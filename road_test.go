package road

import (
	"math"
	"slices"
	"testing"

	"road/internal/dataset"
)

// buildChain builds a 6-node chain network 0-1-2-3-4-5 with unit roads.
func buildChain(t *testing.T) (*NetworkBuilder, []NodeID, []EdgeID) {
	t.Helper()
	b := NewNetworkBuilder()
	var nodes []NodeID
	for i := 0; i < 6; i++ {
		nodes = append(nodes, b.AddNode(float64(i), 0))
	}
	var edges []EdgeID
	for i := 0; i < 5; i++ {
		e, err := b.AddRoad(nodes[i], nodes[i+1], 1)
		if err != nil {
			t.Fatal(err)
		}
		edges = append(edges, e)
	}
	return b, nodes, edges
}

func TestOpenRejectsTinyNetwork(t *testing.T) {
	b := NewNetworkBuilder()
	b.AddNode(0, 0)
	if _, err := Open(b, Options{}); err == nil {
		t.Fatal("1-node network accepted")
	}
}

func TestQuickstartFlow(t *testing.T) {
	b, nodes, edges := buildChain(t)
	db, err := Open(b, Options{Fanout: 2, Levels: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Object in the middle of road 2-3 (offset 0.5 from node 2).
	o, err := db.AddObject(edges[2], 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	hits, _ := testKNN(db, nodes[0], 1, AnyAttr)
	if len(hits) != 1 || hits[0].Object.ID != o.ID {
		t.Fatalf("KNN = %v", hits)
	}
	if math.Abs(hits[0].Dist-2.5) > 1e-12 {
		t.Fatalf("dist = %g, want 2.5", hits[0].Dist)
	}
	within, _ := testWithin(db, nodes[0], 2.0, AnyAttr)
	if len(within) != 0 {
		t.Fatal("object at 2.5 returned for radius 2.0")
	}
	within, _ = testWithin(db, nodes[0], 3.0, AnyAttr)
	if len(within) != 1 {
		t.Fatal("object at 2.5 missing for radius 3.0")
	}
}

func TestAttributeQueries(t *testing.T) {
	b, nodes, edges := buildChain(t)
	db, err := Open(b, Options{Fanout: 2, Levels: 2})
	if err != nil {
		t.Fatal(err)
	}
	db.AddObject(edges[0], 0.5, 1) // nearer, wrong type
	want, _ := db.AddObject(edges[3], 0.5, 2)
	hits, _ := testKNN(db, nodes[0], 1, 2)
	if len(hits) != 1 || hits[0].Object.ID != want.ID {
		t.Fatalf("typed KNN = %v", hits)
	}
}

func TestRoadMaintenanceFlow(t *testing.T) {
	b, nodes, edges := buildChain(t)
	db, err := Open(b, Options{Fanout: 2, Levels: 2})
	if err != nil {
		t.Fatal(err)
	}
	o, _ := db.AddObject(edges[4], 0.5, 0) // between nodes 4 and 5
	// Traffic jam on road 0-1: distance 1 -> 10.
	if err := db.SetRoadDistance(edges[0], 10); err != nil {
		t.Fatal(err)
	}
	hits, _ := testKNN(db, nodes[0], 1, AnyAttr)
	if math.Abs(hits[0].Dist-13.5) > 1e-12 {
		t.Fatalf("dist after jam = %g, want 13.5", hits[0].Dist)
	}
	// Build a bypass road 0-2 of distance 1.
	if _, err := db.AddRoad(nodes[0], nodes[2], 1); err != nil {
		t.Fatal(err)
	}
	hits, _ = testKNN(db, nodes[0], 1, AnyAttr)
	if math.Abs(hits[0].Dist-3.5) > 1e-12 {
		t.Fatalf("dist via bypass = %g, want 3.5", hits[0].Dist)
	}
	// Close the road the object lives on: the object disappears.
	if err := db.CloseRoad(edges[4]); err != nil {
		t.Fatal(err)
	}
	hits, _ = testKNN(db, nodes[0], 1, AnyAttr)
	if len(hits) != 0 {
		t.Fatalf("object survived CloseRoad: %v", hits)
	}
	_ = o
	// Reopen and the road is usable again (object stays gone).
	if err := db.ReopenRoad(edges[4]); err != nil {
		t.Fatal(err)
	}
	o2, err := db.AddObject(edges[4], 0.25, 0)
	if err != nil {
		t.Fatal(err)
	}
	hits, _ = testKNN(db, nodes[5], 1, AnyAttr)
	if len(hits) != 1 || hits[0].Object.ID != o2.ID {
		t.Fatalf("KNN after reopen = %v", hits)
	}
}

func TestObjectLifecycle(t *testing.T) {
	b, nodes, edges := buildChain(t)
	db, err := Open(b, Options{Fanout: 2, Levels: 2})
	if err != nil {
		t.Fatal(err)
	}
	o, _ := db.AddObject(edges[1], 0.5, 1)
	if err := db.SetObjectAttr(o.ID, 9); err != nil {
		t.Fatal(err)
	}
	hits, _ := testKNN(db, nodes[0], 1, 9)
	if len(hits) != 1 {
		t.Fatal("attr change not visible")
	}
	if err := db.RemoveObject(o.ID); err != nil {
		t.Fatal(err)
	}
	hits, _ = testKNN(db, nodes[0], 1, AnyAttr)
	if len(hits) != 0 {
		t.Fatal("object survived removal")
	}
	if err := db.RemoveObject(o.ID); err == nil {
		t.Fatal("double removal succeeded")
	}
}

func TestOpenWithObjects(t *testing.T) {
	g := dataset.MustGenerate(dataset.Spec{Name: "t", Nodes: 300, Edges: 350, Seed: 1})
	objects := dataset.PlaceUniform(g, 20, 2)
	b := FromGraph(g)
	db, err := OpenWithObjects(b, objects, Options{Fanout: 4, Levels: 3})
	if err != nil {
		t.Fatal(err)
	}
	hits, stats := testKNN(db, 0, 5, AnyAttr)
	if len(hits) != 5 {
		t.Fatalf("KNN returned %d", len(hits))
	}
	if stats.NodesPopped == 0 {
		t.Fatal("stats empty")
	}
	if db.IndexSizeBytes() <= 0 {
		t.Fatal("IndexSizeBytes = 0")
	}
}

func TestOpenWithObjectsRejectsForeignSet(t *testing.T) {
	g1 := dataset.MustGenerate(dataset.Spec{Name: "a", Nodes: 100, Edges: 120, Seed: 1})
	g2 := dataset.MustGenerate(dataset.Spec{Name: "b", Nodes: 100, Edges: 120, Seed: 2})
	objects := dataset.PlaceUniform(g2, 5, 3)
	if _, err := OpenWithObjects(FromGraph(g1), objects, Options{}); err == nil {
		t.Fatal("foreign object set accepted")
	}
}

func TestPathToFacade(t *testing.T) {
	g := dataset.MustGenerate(dataset.Spec{Name: "pt", Nodes: 300, Edges: 350, Seed: 5})
	objects := dataset.PlaceUniform(g, 10, 6)
	db, err := OpenWithObjects(FromGraph(g), objects, Options{StorePaths: true})
	if err != nil {
		t.Fatal(err)
	}
	from := dataset.RandomNodes(g, 1, 7)[0]
	hits, _ := testKNN(db, from, 1, AnyAttr)
	if len(hits) == 0 {
		t.Fatal("no result")
	}
	path, dist, err := testPathTo(db, from, hits[0].Object.ID)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(dist-hits[0].Dist) > 1e-9*math.Max(1, dist) {
		t.Fatalf("PathTo dist %g != KNN dist %g", dist, hits[0].Dist)
	}
	if len(path) == 0 || path[0] != from {
		t.Fatalf("path = %v", path)
	}
	// StorePaths is a no-op: a DB opened without it routes the same.
	gc := g.Clone()
	db2, err := OpenWithObjects(FromGraph(gc), objects.Clone(gc), Options{})
	if err != nil {
		t.Fatal(err)
	}
	path2, dist2, err := testPathTo(db2, from, hits[0].Object.ID)
	if err != nil || dist2 != dist || !slices.Equal(path2, path) {
		t.Fatalf("without StorePaths: %v (%v, %v); with it: %v (%v)", path2, dist2, err, path, dist)
	}
}

func TestSessionFacade(t *testing.T) {
	g := dataset.MustGenerate(dataset.Spec{Name: "sf", Nodes: 300, Edges: 350, Seed: 8})
	objects := dataset.PlaceUniform(g, 15, 9)
	db, err := OpenWithObjects(FromGraph(g), objects, Options{})
	if err != nil {
		t.Fatal(err)
	}
	from := dataset.RandomNodes(g, 1, 10)[0]
	want, _ := testKNN(db, from, 3, AnyAttr)
	s := db.NewSession()
	got, _ := testKNN(s, from, 3, AnyAttr)
	if len(got) != len(want) {
		t.Fatalf("session KNN %d results, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Object.ID != want[i].Object.ID {
			t.Fatalf("session result %d differs", i)
		}
	}
	within, _ := testWithin(s, from, g.EstimateDiameter()*0.1, AnyAttr)
	wantW, _ := testWithin(db, from, g.EstimateDiameter()*0.1, AnyAttr)
	if len(within) != len(wantW) {
		t.Fatal("session Within mismatch")
	}
}

// TestOpenBuildsNoPageStore: Open builds the serving configuration — no
// simulated page store, shortcut waypoints kept — and DB-level queries
// run on the CSR slabs, charging no I/O.
func TestOpenBuildsNoPageStore(t *testing.T) {
	b, nodes, edges := buildChain(t)
	db, err := Open(b, Options{Fanout: 2, Levels: 2})
	if err != nil {
		t.Fatal(err)
	}
	if db.Framework().Store() != nil {
		t.Fatal("Open built a simulated page store")
	}
	if !db.Framework().Hierarchy().Config().StorePaths {
		t.Fatal("Open built a hierarchy without waypoints")
	}
	db.AddObject(edges[2], 0.5, 0)
	_, stats := testKNN(db, nodes[0], 1, AnyAttr)
	if stats.IO.Reads != 0 || stats.NodesPopped == 0 {
		t.Fatalf("DB-level kNN stats %+v: want pops and no I/O", stats)
	}
}
