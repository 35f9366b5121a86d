package shard

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"road/internal/core"
	"road/internal/dataset"
	"road/internal/graph"
	"road/internal/snapshot"
)

// buildPair generates a random network with objects and returns a
// monolithic framework plus a router over the same data (each on its own
// graph copy, so they cannot alias).
func buildPair(t testing.TB, seed int64, nodes, objects, shards int) (*core.Framework, *Router, *graph.Graph) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := dataset.MustGenerate(dataset.Spec{
		Name:  "equiv",
		Nodes: nodes,
		Edges: nodes + rng.Intn(nodes/2+1),
		Seed:  seed,
	})
	set := dataset.PlaceUniform(g, objects, seed, 0, 1, 2, 3)

	gMono := g.Clone()
	setMono := set.Clone(gMono)
	mono, err := core.Build(gMono, setMono, core.Config{BufferPages: -1})
	if err != nil {
		t.Fatalf("mono build: %v", err)
	}

	r, err := Build(g, set, Options{Shards: shards, Seed: seed, Core: core.Config{BufferPages: -1}})
	if err != nil {
		t.Fatalf("router build: %v", err)
	}
	return mono, r, g
}

// sameResults compares two result lists as distance-sorted multisets,
// tolerating floating-point drift from differently-associated distance
// sums and arbitrary tie order at equal distances.
func sameResults(t *testing.T, label string, want, got []core.Result) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("%s: got %d results, want %d\n got:  %v\nwant: %v", label, len(got), len(want), ids(got), ids(want))
	}
	const eps = 1e-9
	for i := range want {
		if math.Abs(want[i].Dist-got[i].Dist) > eps*math.Max(1, want[i].Dist) {
			t.Fatalf("%s: result %d dist %g != %g", label, i, got[i].Dist, want[i].Dist)
		}
	}
	// Same object sets within each distance-tie group.
	wantIDs := make(map[graph.ObjectID]bool, len(want))
	gotIDs := make(map[graph.ObjectID]bool, len(got))
	for i := range want {
		wantIDs[want[i].Object.ID] = true
		gotIDs[got[i].Object.ID] = true
	}
	for id := range wantIDs {
		if !gotIDs[id] {
			// Only acceptable when the missing object ties with the last
			// returned distance (kNN boundary ties pick arbitrarily).
			last := want[len(want)-1].Dist
			var d float64 = -1
			for i := range want {
				if want[i].Object.ID == id {
					d = want[i].Dist
				}
			}
			if math.Abs(d-last) > eps*math.Max(1, last) {
				t.Fatalf("%s: object %d (dist %g) missing from sharded results %v", label, id, d, ids(got))
			}
		}
	}
}

func ids(res []core.Result) []graph.ObjectID {
	out := make([]graph.ObjectID, len(res))
	for i, r := range res {
		out[i] = r.Object.ID
	}
	return out
}

// queryNodes picks a node sample that always includes border nodes, so
// cross-shard behaviour is exercised every run.
func queryNodes(r *Router, rng *rand.Rand, n int) []graph.NodeID {
	var out []graph.NodeID
	for _, s := range r.shards {
		out = append(out, s.borders...)
		if len(out) >= n {
			break
		}
	}
	for len(out) < 2*n {
		out = append(out, graph.NodeID(rng.Intn(r.g.NumNodes())))
	}
	return out
}

func TestBuildPartitionInvariants(t *testing.T) {
	_, r, g := buildPair(t, 7, 300, 60, 4)
	owned := 0
	for _, s := range r.shards {
		owned += len(s.globalEdge)
	}
	if owned != g.NumEdges() {
		t.Fatalf("shards own %d edges, network has %d", owned, g.NumEdges())
	}
	for e := 0; e < g.NumEdges(); e++ {
		sid := r.edgeShard[e]
		if sid < 0 {
			t.Fatalf("edge %d owned by no shard", e)
		}
		s := r.shards[sid]
		le := s.localEdge[graph.EdgeID(e)]
		if s.globalEdge[le] != graph.EdgeID(e) {
			t.Fatalf("edge %d round-trips to %d", e, s.globalEdge[le])
		}
		led := s.F.Graph().Edge(le)
		ged := g.Edge(graph.EdgeID(e))
		if s.globalNode[led.U] != ged.U && s.globalNode[led.U] != ged.V {
			t.Fatalf("edge %d endpoints do not round-trip", e)
		}
		if led.Weight != ged.Weight {
			t.Fatalf("edge %d weight %g != %g", e, led.Weight, ged.Weight)
		}
	}
	// A border must be present in every shard that claims it, and every
	// multi-shard node must be a border.
	for n := 0; n < g.NumNodes(); n++ {
		if len(r.shardsOf[n]) > 1 {
			for _, sid := range r.shardsOf[n] {
				found := false
				for _, b := range r.shards[sid].borders {
					if b == graph.NodeID(n) {
						found = true
					}
				}
				if !found {
					t.Fatalf("node %d in %d shards but missing from shard %d borders", n, len(r.shardsOf[n]), sid)
				}
			}
		}
	}
}

func TestBorderTableExact(t *testing.T) {
	_, r, g := buildPair(t, 11, 250, 40, 4)
	gs := graph.NewSearch(g)
	checked := 0
	for _, s := range r.shards {
		for from, arcs := range s.btable {
			for _, arc := range arcs {
				// The table distance must be a realizable global walk...
				want := gs.ShortestDist(from, arc.To)
				if arc.Dist < want-1e-9 {
					t.Fatalf("shard %d: btable %d->%d = %g below global shortest %g", s.ID, from, arc.To, arc.Dist, want)
				}
				checked++
				if checked > 200 {
					return
				}
			}
		}
	}
}

func TestRandomizedEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 42} {
		mono, r, _ := buildPair(t, seed, 300, 50, 4)
		rng := rand.New(rand.NewSource(seed * 31))
		rs := r.NewSession()
		diam := r.g.EstimateDiameter()

		for _, n := range queryNodes(r, rng, 25) {
			for _, k := range []int{1, 3, 8} {
				attr := int32(rng.Intn(3)) // 0 = any
				want, _ := mono.KNN(core.Query{Node: n, Attr: attr}, k)
				got, _ := rs.KNN(n, k, attr)
				sameResults(t, "knn", want, got)
			}
			radius := diam * (0.02 + rng.Float64()*0.15)
			want, _ := mono.Range(core.Query{Node: n}, radius)
			got, _ := rs.Within(n, radius, 0)
			sameResults(t, "within", want, got)
		}
	}
}

func TestPathToEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := dataset.MustGenerate(dataset.Spec{Name: "path", Nodes: 260, Edges: 340, Seed: 5})
	set := dataset.PlaceUniform(g, 40, 5, 0, 1)

	gMono := g.Clone()
	setMono := set.Clone(gMono)
	mono, err := core.Build(gMono, setMono, core.Config{BufferPages: -1})
	if err != nil {
		t.Fatal(err)
	}
	_ = mono
	r, err := Build(g, set, Options{Shards: 4, Seed: 5, Core: core.Config{BufferPages: -1}})
	if err != nil {
		t.Fatal(err)
	}
	rs := r.NewSession()
	gs := graph.NewSearch(g)

	objs := set.All()
	for i := 0; i < 60; i++ {
		n := graph.NodeID(rng.Intn(g.NumNodes()))
		o := objs[rng.Intn(len(objs))]
		path, dist, err := rs.PathTo(n, o.ID)
		// Oracle distance via plain global Dijkstra.
		e := g.Edge(o.Edge)
		gs.Run(n, graph.Options{Targets: []graph.NodeID{e.U, e.V}})
		want := math.Min(gs.Dist(e.U)+o.DU, gs.Dist(e.V)+o.DV)
		if math.IsInf(want, 1) {
			if err == nil {
				t.Fatalf("PathTo(%d,%d) found a path to an unreachable object", n, o.ID)
			}
			continue
		}
		if err != nil {
			t.Fatalf("PathTo(%d,%d): %v", n, o.ID, err)
		}
		if math.Abs(dist-want) > 1e-9*math.Max(1, want) {
			t.Fatalf("PathTo(%d,%d) dist %g, oracle %g", n, o.ID, dist, want)
		}
		validatePath(t, g, path, o, dist)
	}
}

// validatePath checks the returned route is a real walk in the global
// network whose length (plus the final object offset) equals dist.
func validatePath(t *testing.T, g *graph.Graph, path []graph.NodeID, o graph.Object, dist float64) {
	t.Helper()
	if len(path) == 0 {
		t.Fatalf("empty path")
	}
	e := g.Edge(o.Edge)
	last := path[len(path)-1]
	var offset float64
	switch last {
	case e.U:
		offset = o.DU
	case e.V:
		offset = o.DV
	default:
		t.Fatalf("path ends at node %d, not an endpoint of object edge %d", last, o.Edge)
	}
	var sum float64
	for i := 1; i < len(path); i++ {
		eid := g.EdgeBetween(path[i-1], path[i])
		if eid == graph.NoEdge {
			t.Fatalf("path hop %d->%d has no live edge", path[i-1], path[i])
		}
		sum += g.Weight(eid)
	}
	if math.Abs(sum+offset-dist) > 1e-6*math.Max(1, dist) {
		t.Fatalf("path length %g + offset %g != dist %g", sum, offset, dist)
	}
}

// TestMutationEquivalence applies the same maintenance stream to the
// monolithic framework and the router (via the journal-op entry point)
// and re-checks query equivalence, exercising border-table refresh.
func TestMutationEquivalence(t *testing.T) {
	mono, r, _ := buildPair(t, 9, 280, 45, 4)
	rng := rand.New(rand.NewSource(99))

	for i := 0; i < 25; i++ {
		ge := graph.EdgeID(rng.Intn(r.g.NumEdges()))
		s, err := r.OwnerOfEdge(ge)
		if err != nil {
			t.Fatal(err)
		}
		le := s.localEdge[ge]
		switch rng.Intn(3) {
		case 0: // re-weight
			w := 0.2 + rng.Float64()*3
			if _, err := mono.SetEdgeWeight(ge, w); err != nil {
				t.Fatal(err)
			}
			if err := r.ApplyOp(s.ID, opSetDistance(le, w), true); err != nil {
				t.Fatal(err)
			}
		case 1: // close (skip if already removed)
			if r.g.Edge(ge).Removed {
				continue
			}
			if _, err := mono.DeleteEdge(ge); err != nil {
				t.Fatal(err)
			}
			if err := r.ApplyOp(s.ID, opClose(le), true); err != nil {
				t.Fatal(err)
			}
		case 2: // reopen
			if !r.g.Edge(ge).Removed {
				continue
			}
			_, errM := mono.RestoreEdge(ge)
			errR := r.ApplyOp(s.ID, opReopen(le), true)
			if (errM == nil) != (errR == nil) {
				t.Fatalf("restore divergence: mono=%v router=%v", errM, errR)
			}
		}
	}

	rs := r.NewSession()
	diam := r.g.EstimateDiameter()
	for _, n := range queryNodes(r, rng, 20) {
		want, _ := mono.KNN(core.Query{Node: n}, 5)
		got, _ := rs.KNN(n, 5, 0)
		sameResults(t, "knn after mutations", want, got)
		radius := diam * 0.1
		wantW, _ := mono.Range(core.Query{Node: n}, radius)
		gotW, _ := rs.Within(n, radius, 0)
		sameResults(t, "within after mutations", wantW, gotW)
	}
}

func opSetDistance(le graph.EdgeID, w float64) snapshot.Op {
	return snapshot.Op{Kind: snapshot.OpSetDistance, Edge: le, Value: w}
}
func opClose(le graph.EdgeID) snapshot.Op {
	return snapshot.Op{Kind: snapshot.OpClose, Edge: le}
}
func opReopen(le graph.EdgeID) snapshot.Op {
	return snapshot.Op{Kind: snapshot.OpReopen, Edge: le}
}

// TestConcurrentSessions hammers the router from many goroutines — the
// -race CI target for the read path.
func TestConcurrentSessions(t *testing.T) {
	mono, r, _ := buildPair(t, 21, 220, 40, 4)
	diam := r.g.EstimateDiameter()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			rs := r.NewSession()
			for i := 0; i < 40; i++ {
				n := graph.NodeID(rng.Intn(r.g.NumNodes()))
				if rng.Intn(2) == 0 {
					rs.KNN(n, 1+rng.Intn(6), 0)
				} else {
					rs.Within(n, diam*0.05, 0)
				}
			}
		}(int64(w))
	}
	wg.Wait()
	_ = mono
}
