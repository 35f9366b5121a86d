// Quickstart: build a toy road network by hand, index it with ROAD, place
// a few points of interest and run the two core query types.
package main

import (
	"context"
	"fmt"
	"log"

	"road"
)

func main() {
	// A small town: a 4×3 grid of intersections, unit-length blocks.
	b := road.NewNetworkBuilder()
	const w, h = 4, 3
	var nodes [h][w]road.NodeID
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			nodes[y][x] = b.AddNode(float64(x), float64(y))
		}
	}
	var roads []road.EdgeID
	addRoad := func(u, v road.NodeID) road.EdgeID {
		e, err := b.AddRoad(u, v, 1)
		if err != nil {
			log.Fatal(err)
		}
		roads = append(roads, e)
		return e
	}
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				addRoad(nodes[y][x], nodes[y][x+1])
			}
			if y+1 < h {
				addRoad(nodes[y][x], nodes[y+1][x])
			}
		}
	}

	db, err := road.Open(b, road.Options{Fanout: 2, Levels: 2})
	if err != nil {
		log.Fatal(err)
	}

	// Two cafés and a pharmacy. Attribute categories are app-defined.
	const (
		cafe     = 1
		pharmacy = 2
	)
	db.AddObject(roads[0], 0.5, cafe)
	db.AddObject(roads[len(roads)-1], 0.25, cafe)
	db.AddObject(roads[len(roads)/2], 0.75, pharmacy)

	home := nodes[0][0]
	ctx := context.Background()

	// Queries go through the road.Store v1 API: a context plus a typed
	// request built with functional options.
	fmt.Println("nearest café to home:")
	hits, stats, err := db.KNNContext(ctx, road.NewKNN(home, 1, road.WithAttr(cafe)))
	if err != nil {
		log.Fatal(err)
	}
	for _, hit := range hits {
		fmt.Printf("  object %d at network distance %.2f\n", hit.Object.ID, hit.Dist)
	}
	fmt.Printf("  (settled %d intersections)\n", stats.NodesPopped)

	fmt.Println("everything within 3 blocks of home:")
	within, _, err := db.WithinContext(ctx, road.NewWithin(home, 3))
	if err != nil {
		log.Fatal(err)
	}
	for _, hit := range within {
		kind := "café"
		if hit.Object.Attr == pharmacy {
			kind = "pharmacy"
		}
		fmt.Printf("  %s (object %d) at %.2f\n", kind, hit.Object.ID, hit.Dist)
	}

	// Roadworks: the block past home doubles in travel time. The index
	// repairs itself incrementally; queries stay exact.
	if err := db.SetRoadDistance(roads[0], 2); err != nil {
		log.Fatal(err)
	}
	hits, _, err = db.KNNContext(ctx, road.NewKNN(home, 1, road.WithAttr(cafe)))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("nearest café after roadworks: object %d at %.2f\n",
		hits[0].Object.ID, hits[0].Dist)
}
