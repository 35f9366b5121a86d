// Conference travel planning — the paper's motivating scenario (§1):
// a conference venue on a city road network where edge weights are walking
// minutes, answering
//
//	Q1: find the nearest bus station to the conference venue
//	Q2: find hotels within a 10-minute walk from the conference venue
//
// The network is a generated city; bus stations and hotels are separate
// attribute categories mapped onto the same Route Overlay, exactly the
// content-provider model the paper describes.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"time"

	"road"
	"road/internal/dataset"
	"road/internal/graph"
)

const (
	busStation int32 = 1
	hotel      int32 = 2
)

func main() {
	// A San-Francisco-class street grid, scaled to a city district.
	// Weights come out of the generator as distances; reinterpret them as
	// walking minutes (the framework is metric-agnostic).
	spec := dataset.Scaled(dataset.SF(), 0.02)
	g := dataset.MustGenerate(spec)
	fmt.Printf("city district: %d intersections, %d street segments\n",
		g.NumNodes(), g.NumEdges())

	objects := graph.NewObjectSet(g)
	rng := rand.New(rand.NewSource(42))
	place := func(n int, attr int32) {
		for i := 0; i < n; i++ {
			e := graph.EdgeID(rng.Intn(g.NumEdges()))
			objects.MustAdd(e, rng.Float64()*g.Weight(e), attr)
		}
	}
	place(25, busStation)
	place(40, hotel)

	db, err := road.OpenWithObjects(road.FromGraph(g), objects, road.Options{})
	if err != nil {
		log.Fatal(err)
	}

	// The conference venue sits at a random intersection. Every query
	// below runs under a request deadline through the v1 Store API — the
	// discipline a trip-planning service would apply per request.
	venue := dataset.RandomNodes(g, 1, 7)[0]
	fmt.Printf("conference venue at intersection %d\n\n", venue)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()

	// Q1: nearest bus station.
	q1, stats, err := db.KNNContext(ctx, road.NewKNN(venue, 1, road.WithAttr(busStation)))
	if err != nil {
		log.Fatal(err)
	}
	if len(q1) == 0 {
		log.Fatal("no bus station reachable")
	}
	fmt.Printf("Q1: nearest bus station is object %d, %.1f minutes away\n",
		q1[0].Object.ID, q1[0].Dist)
	fmt.Printf("    search settled %d intersections, bypassed %d regions\n",
		stats.NodesPopped, stats.RnetsBypassed)
	if p, _, err := db.PathToContext(ctx, road.NewPath(venue, q1[0].Object.ID)); err == nil {
		fmt.Printf("    walking route: %d intersections", len(p.Nodes))
		if len(p.Nodes) > 6 {
			fmt.Printf(" (%v ... %v)", p.Nodes[:3], p.Nodes[len(p.Nodes)-3:])
		} else {
			fmt.Printf(" %v", p.Nodes)
		}
		fmt.Println()
	}
	fmt.Println()

	// Q2: hotels within a 10-minute walk.
	q2, stats, err := db.WithinContext(ctx, road.NewWithin(venue, 10, road.WithAttr(hotel)))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Q2: %d hotels within a 10-minute walk:\n", len(q2))
	for _, hit := range q2 {
		fmt.Printf("    hotel %d at %.1f min\n", hit.Object.ID, hit.Dist)
	}
	if len(q2) == 0 {
		fmt.Println("    (none — try the 3 nearest instead)")
		for _, hit := range first3(ctx, db, venue) {
			fmt.Printf("    hotel %d at %.1f min\n", hit.Object.ID, hit.Dist)
		}
	}
	fmt.Printf("    search settled %d intersections, bypassed %d regions\n",
		stats.NodesPopped, stats.RnetsBypassed)
}

func first3(ctx context.Context, db *road.DB, venue road.NodeID) []road.Result {
	res, _, _ := db.KNNContext(ctx, road.NewKNN(venue, 3, road.WithAttr(hotel)))
	return res
}
