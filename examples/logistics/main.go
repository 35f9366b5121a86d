// Logistics coverage analysis: a delivery company with a handful of depots
// on a highway network wants, for each depot, the customers reachable
// within a drive-distance budget — a batch of range queries — and for each
// customer the closest depot — a batch of 1NN queries over a second object
// set sharing the same Route Overlay. Demonstrates ROAD's clean separation
// of one network from multiple independently-maintained object sets.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"road"
	"road/internal/core"
	"road/internal/dataset"
	"road/internal/graph"
)

func main() {
	// A CA-class highway network at quarter scale.
	g := dataset.MustGenerate(dataset.Scaled(dataset.CA(), 0.25))
	fmt.Printf("highway network: %d nodes, %d edges\n", g.NumNodes(), g.NumEdges())

	rng := rand.New(rand.NewSource(9))

	// Object set 1: customers, clustered around three metro areas.
	customers := dataset.PlaceClustered(g, 120, 3, 11)

	// Object set 2: depots, a handful of uniform sites.
	depots := graph.NewObjectSet(g)
	var depotEdges []graph.EdgeID
	for i := 0; i < 4; i++ {
		e := graph.EdgeID(rng.Intn(g.NumEdges()))
		depots.MustAdd(e, g.Weight(e)/2, 0)
		depotEdges = append(depotEdges, e)
	}

	db, err := road.OpenWithObjects(road.FromGraph(g), customers, road.Options{})
	if err != nil {
		log.Fatal(err)
	}
	// Attach the depot directory to the same overlay.
	depotDir := db.Framework().AttachObjects(depots, core.AbstractSet)

	budget := g.EstimateDiameter() * 0.15
	fmt.Printf("drive-distance budget per depot: %.2f\n\n", budget)

	// Coverage per depot: one BATCH of range queries through the v1
	// Store API — every answer computed on one session at one epoch,
	// exactly how a fleet-planning service would amortize the work.
	reqs := make([]road.Request, len(depotEdges))
	for i, e := range depotEdges {
		w := road.NewWithin(g.Edge(e).U, budget)
		reqs[i] = road.Request{Within: &w}
	}
	covered := map[graph.ObjectID]bool{}
	for i, ans := range db.Query(context.Background(), reqs) {
		if ans.Err != nil {
			log.Fatal(ans.Err)
		}
		for _, r := range ans.Results {
			covered[r.Object.ID] = true
		}
		fmt.Printf("depot %d (node %d): %d customers in range "+
			"(settled %d nodes, bypassed %d regions, epoch %d)\n",
			i, reqs[i].Within.From, len(ans.Results),
			ans.Stats.NodesPopped, ans.Stats.RnetsBypassed, ans.Epoch)
	}
	fmt.Printf("\ntotal coverage: %d of %d customers\n\n", len(covered), customers.Len())

	// Closest depot per customer sample: 1NN against the depot directory.
	fmt.Println("closest depot for 5 sample customers:")
	sample := customers.All()
	for i := 0; i < 5 && i < len(sample); i++ {
		c := sample[i]
		from := g.Edge(c.Edge).U
		res, _ := db.Framework().KNNOn(depotDir, core.Query{Node: from}, 1)
		if len(res) == 0 {
			fmt.Printf("  customer %d: unreachable\n", c.ID)
			continue
		}
		fmt.Printf("  customer %d -> depot object %d at %.2f\n",
			c.ID, res[0].Object.ID, res[0].Dist)
	}
}
