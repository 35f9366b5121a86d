package core

import (
	"runtime"
	"testing"

	"road/internal/dataset"
	"road/internal/graph"
	"road/internal/rnet"
)

// These tests pin the CSR hot path's allocation behavior: with a warmed
// session workspace and a caller-reused result buffer, the kNN and range
// inner loops perform zero allocations per query. A regression here —
// a closure creeping into the loop, boxing on the heap, a map rebuilt per
// query — fails CI.

func allocFixture(t *testing.T) (*Session, graph.NodeID) {
	t.Helper()
	cfg := defaultCfg()
	cfg.BufferPages = -1 // serving configuration: no simulated store at all
	f, _, _ := fixture(t, 2000, 2600, 300, 23, cfg)
	return f.NewSession(), 17
}

func TestKNNZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the pin only holds on plain builds")
	}
	s, node := allocFixture(t)
	buf := make([]Result, 0, 64)
	q := Query{Node: node}
	// One warm-up query grows the workspace scratch to the network size.
	buf, _ = s.KNNAppend(buf[:0], q, 10)
	if len(buf) == 0 {
		t.Fatal("warm-up query returned nothing; fixture is broken")
	}
	avg := testing.AllocsPerRun(200, func() {
		buf, _ = s.KNNAppend(buf[:0], q, 10)
	})
	if avg != 0 {
		t.Fatalf("kNN inner loop allocates %v per query; want 0", avg)
	}
}

func TestRangeZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the pin only holds on plain builds")
	}
	s, node := allocFixture(t)
	buf := make([]Result, 0, 256)
	q := Query{Node: node}
	buf, _ = s.RangeAppend(buf[:0], q, 200)
	avg := testing.AllocsPerRun(200, func() {
		buf, _ = s.RangeAppend(buf[:0], q, 200)
	})
	if avg != 0 {
		t.Fatalf("range inner loop allocates %v per query; want 0", avg)
	}
}

func TestKNNZeroAllocsWithAttrFilter(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the pin only holds on plain builds")
	}
	s, node := allocFixture(t)
	buf := make([]Result, 0, 64)
	q := Query{Node: node, Attr: 2}
	buf, _ = s.KNNAppend(buf[:0], q, 5)
	avg := testing.AllocsPerRun(200, func() {
		buf, _ = s.KNNAppend(buf[:0], q, 5)
	})
	if avg != 0 {
		t.Fatalf("attribute-filtered kNN allocates %v per query; want 0", avg)
	}
}

// TestPathToAllocs pins the route query: the search runs in the session's
// workspace and shortcut hops are expanded into its hop buffer, so the one
// allocation left is the node slice handed to the caller.
func TestPathToAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the pin only holds on plain builds")
	}
	cfg := defaultCfg()
	cfg.Rnet.StorePaths = true
	cfg.BufferPages = -1
	f, g, objects := fixture(t, 2000, 2600, 300, 23, cfg)
	s := f.NewSession()
	starts := dataset.RandomNodes(g, 16, 24)
	targets := objects.All()[:len(starts)]
	// One pass over the pairs warms the workspace: link arrays, heap and
	// hop buffer; the measured runs repeat the same pairs.
	hops, i := 0, 0
	route := func() {
		path, _, _, err := s.PathToLimited(Query{Node: starts[i%len(starts)]}, targets[i%len(starts)].ID, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		hops += len(path)
		i++
	}
	for range starts {
		route()
	}
	if hops < 10*len(starts) {
		t.Fatalf("warm-up routes average under 10 nodes (%d over %d); fixture is broken", hops, len(starts))
	}
	if avg := testing.AllocsPerRun(len(starts), route); avg > 1 {
		t.Fatalf("route query allocates %v per call; want 1, the returned slice", avg)
	}
}

// The pins below hold the post-mutation fence to O(change): on the CA
// network (21k nodes, where one whole-index rebuild allocates ≈17 MB) a
// mutation plus its WarmTrees allocates a small constant that does not
// grow with the network.

// caFramework builds the CA dataset with the serving configuration and
// warms it, so the first (full) CSR build is behind us.
func caFramework(tb testing.TB) *Framework {
	tb.Helper()
	g := dataset.MustGenerate(dataset.CA())
	objects := dataset.PlaceUniform(g, 1000, 1, 0, 1, 2, 3)
	f, err := Build(g, objects, Config{
		Rnet:        rnet.Config{Fanout: 4, Levels: 4, KLPasses: -1, PruneMaxBorders: 32, StorePaths: true},
		BufferPages: -1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	f.WarmTrees()
	return f
}

// bytesPerRun is testing.AllocsPerRun for bytes.
func bytesPerRun(runs int, fn func()) float64 {
	var before, after runtime.MemStats
	fn() // warm-up, as AllocsPerRun does
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// objectChurn is one insert/delete pair, each followed by the fence.
func objectChurn(tb testing.TB, f *Framework, e graph.EdgeID) {
	o, err := f.InsertObject(e, f.g.Weight(e)/2, 0)
	if err != nil {
		tb.Fatal(err)
	}
	f.WarmTrees()
	if err := f.DeleteObject(o.ID); err != nil {
		tb.Fatal(err)
	}
	f.WarmTrees()
}

// weightChurn raises edge e's weight by a fifth and restores it — the
// same-shape change: distances move, no slab changes size — with the fence
// after each step.
func weightChurn(tb testing.TB, f *Framework, e graph.EdgeID) {
	w := f.g.Weight(e)
	for _, next := range [2]float64{w * 1.2, w} {
		if _, err := f.SetEdgeWeight(e, next); err != nil {
			tb.Fatal(err)
		}
		f.WarmTrees()
	}
}

func TestMutationFenceAllocsAreConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the pin only holds on plain builds")
	}
	if testing.Short() {
		t.Skip("builds the CA network")
	}
	f := caFramework(t)
	const e = graph.EdgeID(4242)

	// Object churn leaves the hierarchy alone: the fence is a generation
	// compare and allocates nothing itself; what remains is the object set
	// and directory bookkeeping of the pair.
	if allocs := testing.AllocsPerRun(50, func() { objectChurn(t, f, e) }); allocs > 32 {
		t.Fatalf("insert+delete object with fences allocates %v per pair; want a handful", allocs)
	}
	if b := bytesPerRun(50, func() { objectChurn(t, f, e) }); b > 16<<10 {
		t.Fatalf("insert+delete object with fences allocates %.0f bytes per pair; want O(1), not O(nodes)", b)
	}

	// A re-weight pays for the Rnet repair (per-border maps over one
	// chain of Rnets) but patches the slabs in place.
	rebuilds := f.CSRStats().Rebuilds
	allocs := testing.AllocsPerRun(20, func() { weightChurn(t, f, e) })
	bytes := bytesPerRun(20, func() { weightChurn(t, f, e) })
	if f.CSRStats().Rebuilds != rebuilds {
		t.Fatalf("same-shape re-weights rebuilt the index: %+v", f.CSRStats())
	}
	t.Logf("re-weight pair: %.0f allocs, %.0f bytes", allocs, bytes)
	if allocs > 512 || bytes > 512<<10 {
		t.Fatalf("re-weight pair with fences allocates %.0f objects / %.0f bytes; want the repair's own, not O(nodes)", allocs, bytes)
	}
}

// BenchmarkMutateWarm{Object,SetDistance} time a mutation plus its fence
// at the core seam on CA: the number the serving layers pay per write.
func BenchmarkMutateWarmObject(b *testing.B) {
	f := caFramework(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		objectChurn(b, f, graph.EdgeID(i%f.g.NumEdges()))
	}
}

func BenchmarkMutateWarmSetDistance(b *testing.B) {
	f := caFramework(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		weightChurn(b, f, graph.EdgeID(i*7919%f.g.NumEdges()))
	}
}
