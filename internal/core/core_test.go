package core

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"road/internal/dataset"
	"road/internal/graph"
	"road/internal/rnet"
	"road/internal/storage"
)

// bruteKNN computes ground-truth kNN by full Dijkstra from the query node:
// an object's distance is min over its edge's endpoints of node distance
// plus offset (§3.1).
func bruteKNN(g *graph.Graph, objects *graph.ObjectSet, q Query, k int) []Result {
	all := bruteAll(g, objects, q)
	if len(all) > k {
		all = all[:k]
	}
	return all
}

func bruteRange(g *graph.Graph, objects *graph.ObjectSet, q Query, radius float64) []Result {
	all := bruteAll(g, objects, q)
	out := []Result{}
	for _, r := range all {
		if r.Dist <= radius {
			out = append(out, r)
		}
	}
	return out
}

func bruteAll(g *graph.Graph, objects *graph.ObjectSet, q Query) []Result {
	s := graph.NewSearch(g)
	s.Run(q.Node, graph.Options{})
	var out []Result
	for _, o := range objects.All() {
		if q.Attr != 0 && o.Attr != q.Attr {
			continue
		}
		e := g.Edge(o.Edge)
		if e.Removed {
			continue
		}
		d := math.Inf(1)
		if du := s.Dist(e.U); !math.IsInf(du, 1) {
			d = du + o.DU
		}
		if dv := s.Dist(e.V); !math.IsInf(dv, 1) && dv+o.DV < d {
			d = dv + o.DV
		}
		if !math.IsInf(d, 1) {
			out = append(out, Result{Object: o, Dist: d})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dist != out[j].Dist {
			return out[i].Dist < out[j].Dist
		}
		return out[i].Object.ID < out[j].Object.ID
	})
	return out
}

func fixture(t testing.TB, nodes, edges, objs int, seed int64, cfg Config) (*Framework, *graph.Graph, *graph.ObjectSet) {
	t.Helper()
	g := dataset.MustGenerate(dataset.Spec{Name: "t", Nodes: nodes, Edges: edges, Seed: seed})
	objects := dataset.PlaceUniform(g, objs, seed+1, 0, 7, 9)
	f, err := Build(g, objects, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f, g, objects
}

func defaultCfg() Config {
	return Config{Rnet: rnet.Config{Fanout: 4, Levels: 3, KLPasses: -1, PruneMaxBorders: 32}}
}

// resultsMatch compares result lists by (distance, multiset of IDs at each
// distance) — ties may legitimately reorder.
func resultsMatch(a, b []Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Abs(a[i].Dist-b[i].Dist) > 1e-9*math.Max(1, a[i].Dist) {
			return false
		}
	}
	// IDs as multisets (order can differ within distance ties).
	ids := func(rs []Result) []int32 {
		out := make([]int32, len(rs))
		for i, r := range rs {
			out[i] = r.Object.ID
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	ia, ib := ids(a), ids(b)
	for i := range ia {
		if ia[i] != ib[i] {
			// Allow swaps only when distances tie; since sorted distance
			// lists already matched, differing ID multisets on tied
			// distances are still acceptable — check distances per ID.
			return tiedIDsEquivalent(a, b)
		}
	}
	return true
}

func tiedIDsEquivalent(a, b []Result) bool {
	da := map[int32]float64{}
	for _, r := range a {
		da[r.Object.ID] = r.Dist
	}
	for _, r := range b {
		if d, ok := da[r.Object.ID]; ok && math.Abs(d-r.Dist) > 1e-9 {
			return false
		}
	}
	// Boundary ties (k-th place) can pick different objects; accept when
	// the last distances agree.
	return math.Abs(a[len(a)-1].Dist-b[len(b)-1].Dist) <= 1e-9*math.Max(1, a[len(a)-1].Dist)
}

func TestKNNMatchesBruteForce(t *testing.T) {
	f, g, objects := fixture(t, 400, 460, 25, 1, defaultCfg())
	qs := dataset.RandomNodes(g, 40, 2)
	for _, qn := range qs {
		for _, k := range []int{1, 3, 10} {
			q := Query{Node: qn}
			got, _ := f.KNN(q, k)
			want := bruteKNN(g, objects, q, k)
			if !resultsMatch(got, want) {
				t.Fatalf("KNN(%d, k=%d):\n got %v\nwant %v", qn, k, got, want)
			}
		}
	}
}

func TestKNNWithAttributePredicate(t *testing.T) {
	f, g, objects := fixture(t, 400, 460, 30, 3, defaultCfg())
	qs := dataset.RandomNodes(g, 25, 4)
	for _, qn := range qs {
		q := Query{Node: qn, Attr: 7}
		got, _ := f.KNN(q, 5)
		want := bruteKNN(g, objects, q, 5)
		if !resultsMatch(got, want) {
			t.Fatalf("attr KNN(%d): got %v want %v", qn, got, want)
		}
		for _, r := range got {
			if r.Object.Attr != 7 {
				t.Fatalf("predicate violated: object %d attr %d", r.Object.ID, r.Object.Attr)
			}
		}
	}
}

func TestRangeMatchesBruteForce(t *testing.T) {
	f, g, objects := fixture(t, 400, 460, 25, 5, defaultCfg())
	diam := g.EstimateDiameter()
	qs := dataset.RandomNodes(g, 30, 6)
	for _, qn := range qs {
		for _, frac := range []float64{0.05, 0.1, 0.2} {
			q := Query{Node: qn}
			r := diam * frac
			got, _ := f.Range(q, r)
			want := bruteRange(g, objects, q, r)
			if !resultsMatch(got, want) {
				t.Fatalf("Range(%d, r=%g): got %d results want %d", qn, r, len(got), len(want))
			}
		}
	}
}

func TestKNNMoreThanAvailable(t *testing.T) {
	f, g, objects := fixture(t, 200, 230, 5, 7, defaultCfg())
	q := Query{Node: dataset.RandomNodes(g, 1, 8)[0]}
	got, _ := f.KNN(q, 50)
	if len(got) != objects.Len() {
		t.Fatalf("asked 50 of %d objects, got %d", objects.Len(), len(got))
	}
}

func TestRangeZeroRadius(t *testing.T) {
	f, _, _ := fixture(t, 200, 230, 20, 9, defaultCfg())
	got, _ := f.Range(Query{Node: 0}, 0)
	// Only objects at distance exactly 0 (offset 0 on an incident edge).
	for _, r := range got {
		if r.Dist != 0 {
			t.Fatalf("zero-radius range returned dist %g", r.Dist)
		}
	}
}

func TestResultsSortedByDistance(t *testing.T) {
	f, g, _ := fixture(t, 300, 350, 40, 10, defaultCfg())
	for _, qn := range dataset.RandomNodes(g, 10, 11) {
		got, _ := f.KNN(Query{Node: qn}, 10)
		for i := 1; i < len(got); i++ {
			if got[i].Dist < got[i-1].Dist {
				t.Fatal("kNN results not sorted by distance")
			}
		}
	}
}

func TestSearchBypassesEmptyRnets(t *testing.T) {
	// With very few objects, most Rnets are empty: queries must record
	// bypasses and settle far fewer nodes than the network has.
	f, g, _ := fixture(t, 2500, 2800, 3, 12, defaultCfg())
	var bypassed, popped int
	for _, qn := range dataset.RandomNodes(g, 20, 13) {
		_, st := f.KNN(Query{Node: qn}, 1)
		bypassed += st.RnetsBypassed
		popped += st.NodesPopped
	}
	if bypassed == 0 {
		t.Fatal("search never bypassed an Rnet despite sparse objects")
	}
	if popped >= 20*g.NumNodes()/2 {
		t.Fatalf("search settled %d nodes over 20 queries; pruning ineffective", popped)
	}
}

func TestSearchPruningBeatsPlainExpansionOnVisits(t *testing.T) {
	// ROAD's settled-node count must be well below a plain Dijkstra that
	// stops at the same result distance.
	f, g, objects := fixture(t, 2500, 2800, 5, 14, defaultCfg())
	s := graph.NewSearch(g)
	var roadTotal, plainTotal int
	for _, qn := range dataset.RandomNodes(g, 15, 15) {
		res, st := f.KNN(Query{Node: qn}, 1)
		if len(res) == 0 {
			continue
		}
		roadTotal += st.NodesPopped
		s.Run(qn, graph.Options{MaxDist: res[0].Dist})
		plainTotal += s.Visited
	}
	_ = objects
	if roadTotal >= plainTotal {
		t.Fatalf("ROAD settled %d nodes, plain expansion %d — no pruning benefit", roadTotal, plainTotal)
	}
}

func TestQueryStatsIO(t *testing.T) {
	cfg := defaultCfg()
	cfg.BufferPages = storage.DefaultBufferPages // the paper rig's opt-in
	f, g, _ := fixture(t, 400, 460, 20, 16, cfg)
	f.DropCache()
	_, st := f.KNN(Query{Node: dataset.RandomNodes(g, 1, 17)[0]}, 5)
	if st.IO.Reads == 0 {
		t.Fatal("no simulated reads recorded")
	}
	if st.IO.Faults == 0 {
		t.Fatal("cold-cache query recorded no faults")
	}
}

// TestIOSimulationDisabled: the zero Config — the serving configuration —
// builds no page store, and report-mode queries over it charge nothing.
func TestIOSimulationDisabled(t *testing.T) {
	f, g, objects := fixture(t, 300, 350, 15, 18, defaultCfg())
	q := Query{Node: dataset.RandomNodes(g, 1, 19)[0]}
	got, st := f.KNN(q, 3)
	want := bruteKNN(g, objects, q, 3)
	if !resultsMatch(got, want) {
		t.Fatal("results wrong with I/O simulation disabled")
	}
	if st.IO.Reads != 0 {
		t.Fatal("I/O recorded while disabled")
	}
	if f.Store() != nil {
		t.Fatal("store present while disabled")
	}
}

func TestAllAbstractKindsAgree(t *testing.T) {
	g := dataset.MustGenerate(dataset.Spec{Name: "t", Nodes: 400, Edges: 460, Seed: 20})
	objects := dataset.PlaceUniform(g, 30, 21, 0, 7, 9)
	qs := dataset.RandomNodes(g, 20, 22)
	var baseline [][]Result
	for _, kind := range []AbstractKind{AbstractSet, AbstractCount, AbstractBloom} {
		cfg := defaultCfg()
		cfg.Abstract = kind
		f, err := Build(g, objects, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var results [][]Result
		for _, qn := range qs {
			got, _ := f.KNN(Query{Node: qn, Attr: 7}, 5)
			results = append(results, got)
		}
		if baseline == nil {
			baseline = results
			continue
		}
		for i := range results {
			if !resultsMatch(results[i], baseline[i]) {
				t.Fatalf("kind %v disagrees with set abstract on query %d", kind, i)
			}
		}
	}
}

func TestAbstractKindSizesOrdered(t *testing.T) {
	g := dataset.MustGenerate(dataset.Spec{Name: "t", Nodes: 400, Edges: 460, Seed: 23})
	objects := dataset.PlaceUniform(g, 200, 24, 1, 2, 3, 4, 5, 6, 7, 8)
	sizes := map[AbstractKind]int64{}
	for _, kind := range []AbstractKind{AbstractSet, AbstractCount, AbstractBloom} {
		cfg := defaultCfg()
		cfg.Abstract = kind
		f, err := Build(g, objects, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sizes[kind] = f.Directory().SizeBytes()
	}
	if sizes[AbstractCount] >= sizes[AbstractSet] {
		t.Fatalf("count abstract (%d B) not smaller than set (%d B)", sizes[AbstractCount], sizes[AbstractSet])
	}
}

func TestMultipleDirectoriesOnOneOverlay(t *testing.T) {
	// Hotels and restaurants as separate object sets over one network.
	g := dataset.MustGenerate(dataset.Spec{Name: "t", Nodes: 300, Edges: 350, Seed: 25})
	hotels := dataset.PlaceUniform(g, 10, 26)
	restaurants := dataset.PlaceUniform(g, 15, 27)
	f, err := Build(g, hotels, defaultCfg())
	if err != nil {
		t.Fatal(err)
	}
	restDir := f.AttachObjects(restaurants, AbstractSet)
	q := Query{Node: dataset.RandomNodes(g, 1, 28)[0]}

	gotH, _ := f.KNN(q, 3)
	wantH := bruteKNN(g, hotels, q, 3)
	if !resultsMatch(gotH, wantH) {
		t.Fatal("hotel results wrong")
	}
	// Swap in the restaurant directory and objects for comparison.
	f2 := &Framework{g: f.g, h: f.h, objects: restaurants, ro: f.ro, ad: restDir, store: f.store}
	gotR, _ := f2.KNN(q, 3)
	wantR := bruteKNN(g, restaurants, q, 3)
	if !resultsMatch(gotR, wantR) {
		t.Fatal("restaurant results wrong")
	}
}

func TestQuickRandomGraphEquivalence(t *testing.T) {
	// Property test: on many random small networks with random objects and
	// random hierarchy shapes, ROAD == brute force for kNN and range.
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		nodes := 60 + rng.Intn(200)
		edges := nodes + rng.Intn(nodes/2)
		g := dataset.MustGenerate(dataset.Spec{Name: "q", Nodes: nodes, Edges: edges, Seed: int64(trial)})
		objects := dataset.PlaceUniform(g, 1+rng.Intn(20), int64(trial*7), 0, 5)
		cfg := Config{Rnet: rnet.Config{
			Fanout:          2 << rng.Intn(2), // 2 or 4
			Levels:          1 + rng.Intn(3),
			KLPasses:        rng.Intn(4),
			PruneMaxBorders: rng.Intn(40),
			Seed:            int64(trial),
		}}
		f, err := Build(g, objects, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 6; i++ {
			q := Query{Node: graph.NodeID(rng.Intn(nodes))}
			k := 1 + rng.Intn(5)
			got, _ := f.KNN(q, k)
			want := bruteKNN(g, objects, q, k)
			if !resultsMatch(got, want) {
				t.Fatalf("trial %d: KNN mismatch at node %d k=%d\n got %v\nwant %v",
					trial, q.Node, k, got, want)
			}
			r := g.EstimateDiameter() * (0.02 + rng.Float64()*0.2)
			gotR, _ := f.Range(q, r)
			wantR := bruteRange(g, objects, q, r)
			if !resultsMatch(gotR, wantR) {
				t.Fatalf("trial %d: Range mismatch at node %d r=%g: got %d want %d",
					trial, q.Node, r, len(gotR), len(wantR))
			}
		}
	}
}

func TestBuildDefaultsApplied(t *testing.T) {
	g := dataset.MustGenerate(dataset.Spec{Name: "t", Nodes: 300, Edges: 350, Seed: 30})
	objects := dataset.PlaceUniform(g, 10, 31)
	f, err := Build(g, objects, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if f.Hierarchy().Levels() != 4 {
		t.Fatalf("default levels = %d, want 4", f.Hierarchy().Levels())
	}
	if f.BuildTime <= 0 {
		t.Fatal("BuildTime not recorded")
	}
	if f.IndexSizeBytes() <= 0 {
		t.Fatal("IndexSizeBytes = 0")
	}
}

func TestObjectAwarePartitioningStaysExact(t *testing.T) {
	// The future-work object-based partitioning must not change answers,
	// only the Rnet shapes.
	g := dataset.MustGenerate(dataset.Spec{Name: "oap", Nodes: 500, Edges: 570, Seed: 70})
	objects := dataset.PlaceClustered(g, 40, 2, 71)
	cfg := defaultCfg()
	cfg.ObjectAwarePartitioning = true
	f, err := Build(g, objects, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, qn := range dataset.RandomNodes(g, 20, 72) {
		q := Query{Node: qn}
		got, _ := f.KNN(q, 5)
		want := bruteKNN(g, objects, q, 5)
		if !resultsMatch(got, want) {
			t.Fatalf("object-aware KNN mismatch at %d", qn)
		}
	}
}
