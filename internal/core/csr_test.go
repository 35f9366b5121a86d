package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"road/internal/apierr"
	"road/internal/dataset"
	"road/internal/geom"
	"road/internal/graph"
	"road/internal/rnet"
)

// assertIdenticalResults demands rank-for-rank identity: same order, same
// objects, bit-identical distances. The CSR path replays the reference
// traversal's push sequence exactly (including FIFO tie-breaking), so this
// is stronger than resultsMatch's tie tolerance — any drift is a bug.
func assertIdenticalResults(t *testing.T, label string, ref, got []Result) {
	t.Helper()
	if len(ref) != len(got) {
		t.Fatalf("%s: reference returned %d results, CSR %d", label, len(ref), len(got))
	}
	for i := range ref {
		if ref[i].Object.ID != got[i].Object.ID || ref[i].Dist != got[i].Dist {
			t.Fatalf("%s: rank %d diverged: reference (obj %d, %v) vs CSR (obj %d, %v)",
				label, i, ref[i].Object.ID, ref[i].Dist, got[i].Object.ID, got[i].Dist)
		}
	}
}

func assertIdenticalStats(t *testing.T, label string, ref, got QueryStats) {
	t.Helper()
	if ref.NodesPopped != got.NodesPopped || ref.RnetsBypassed != got.RnetsBypassed ||
		ref.RnetsDescended != got.RnetsDescended || ref.Truncated != got.Truncated {
		t.Fatalf("%s: traversal stats diverged: reference %+v vs CSR %+v", label, ref, got)
	}
}

func assertSameError(t *testing.T, label string, ref, got error) {
	t.Helper()
	if (ref == nil) != (got == nil) {
		t.Fatalf("%s: reference error %v vs CSR error %v", label, ref, got)
	}
	if ref == nil {
		return
	}
	for _, typed := range []error{
		apierr.ErrCanceled, apierr.ErrBudgetExhausted, apierr.ErrNoSuchObject,
		apierr.ErrAttrMismatch, apierr.ErrUnreachable, apierr.ErrPathsNotStored,
	} {
		if errors.Is(ref, typed) != errors.Is(got, typed) {
			t.Fatalf("%s: typed error mismatch for %v: reference %v vs CSR %v", label, typed, ref, got)
		}
	}
}

// csrAndRefSessions returns a CSR-path session and a reference-path
// session over the same framework.
func csrAndRefSessions(f *Framework) (*Session, *Session) {
	csr := f.NewSession()
	ref := f.NewSession()
	ref.UseReferencePath(true)
	return csr, ref
}

// TestCSRMatchesReferenceStorm interleaves randomized kNN/range/path
// queries with object churn and network mutations, asserting the CSR hot
// path and the retained page-store reference produce rank-for-rank
// identical answers, distances, traversal statistics and typed errors
// throughout; after every mutation the patched slabs must equal a fresh
// build and report the sizes pointer trees give.
func TestCSRMatchesReferenceStorm(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			cfg := defaultCfg()
			cfg.Rnet.StorePaths = true
			cfg.BufferPages = -1
			f, g, objects := fixture(t, 700, 900, 160, seed, cfg)
			rng := rand.New(rand.NewSource(seed))
			csr, ref := csrAndRefSessions(f)

			checkQueries := func(phase string) {
				for i := 0; i < 12; i++ {
					q := Query{Node: graph.NodeID(rng.Intn(g.NumNodes())), Attr: int32(rng.Intn(4))}
					label := fmt.Sprintf("%s q%d node=%d attr=%d", phase, i, q.Node, q.Attr)
					switch rng.Intn(4) {
					case 0:
						k := 1 + rng.Intn(12)
						wantRes, wantStats := ref.KNN(q, k)
						gotRes, gotStats := csr.KNN(q, k)
						assertIdenticalResults(t, label+" knn", wantRes, gotRes)
						assertIdenticalStats(t, label+" knn", wantStats, gotStats)
					case 1:
						r := 40 + 400*rng.Float64()
						wantRes, wantStats := ref.Range(q, r)
						gotRes, gotStats := csr.Range(q, r)
						assertIdenticalResults(t, label+" range", wantRes, gotRes)
						assertIdenticalStats(t, label+" range", wantStats, gotStats)
					case 2:
						// Budget-limited kNN: truncation and typed errors
						// must agree too.
						lim := Limits{Budget: 1 + rng.Intn(60)}
						wantRes, wantStats, wantErr := ref.KNNLimited(q, 8, 0, lim)
						gotRes, gotStats, gotErr := csr.KNNLimited(q, 8, 0, lim)
						assertSameError(t, label+" knnlim", wantErr, gotErr)
						assertIdenticalResults(t, label+" knnlim", wantRes, gotRes)
						assertIdenticalStats(t, label+" knnlim", wantStats, gotStats)
					case 3:
						all := objects.All()
						if len(all) == 0 {
							continue
						}
						target := all[rng.Intn(len(all))].ID
						wantPath, wantDist, wantStats, wantErr := ref.PathToLimited(q, target, Limits{})
						gotPath, gotDist, gotStats, gotErr := csr.PathToLimited(q, target, Limits{})
						assertSameError(t, label+" path", wantErr, gotErr)
						if wantErr != nil {
							continue
						}
						if wantDist != gotDist {
							t.Fatalf("%s path: dist %v vs %v", label, wantDist, gotDist)
						}
						if len(wantPath) != len(gotPath) {
							t.Fatalf("%s path: length %d vs %d", label, len(wantPath), len(gotPath))
						}
						for j := range wantPath {
							if wantPath[j] != gotPath[j] {
								t.Fatalf("%s path: hop %d: %d vs %d", label, j, wantPath[j], gotPath[j])
							}
						}
						assertIdenticalStats(t, label+" path", wantStats, gotStats)
					}
				}
			}

			// Ground truth for routes, so both twins cannot be wrong
			// together; its picks come from their own generator so the
			// storm's sequence is not disturbed.
			truthRng := rand.New(rand.NewSource(seed + 1000))
			checkRoutes := func(phase string) {
				all := objects.All()
				for i := 0; i < 8 && len(all) > 0; i++ {
					from := graph.NodeID(truthRng.Intn(g.NumNodes()))
					target := all[truthRng.Intn(len(all))]
					assertRouteIsShortest(t, fmt.Sprintf("%s truth%d", phase, i), g, csr, ref, from, target, false)
				}
			}

			checkQueries("initial")
			checkRoutes("initial")
			var closed []graph.EdgeID
			for round := 0; round < 8; round++ {
				// A burst of mutations, each followed by the patch
				// referee (every mutator leaves the slabs current), then
				// differential queries.
				for m := 0; m < 5; m++ {
					switch rng.Intn(6) {
					case 0:
						e := graph.EdgeID(rng.Intn(g.NumEdges()))
						if !g.Edge(e).Removed {
							_, _ = f.SetEdgeWeight(e, 1+120*rng.Float64())
						}
					case 1:
						e := graph.EdgeID(rng.Intn(g.NumEdges()))
						if !g.Edge(e).Removed {
							if _, err := f.DeleteEdge(e); err == nil {
								closed = append(closed, e)
							}
						}
					case 2:
						if len(closed) > 0 {
							i := rng.Intn(len(closed))
							if _, err := f.RestoreEdge(closed[i]); err == nil {
								closed = append(closed[:i], closed[i+1:]...)
							}
						}
					case 3:
						e := graph.EdgeID(rng.Intn(g.NumEdges()))
						if ed := g.Edge(e); !ed.Removed {
							_, _ = f.InsertObject(e, ed.Weight*rng.Float64(), int32(rng.Intn(4)))
						}
					case 4:
						all := objects.All()
						if len(all) > 0 {
							_ = f.DeleteObject(all[rng.Intn(len(all))].ID)
						}
					case 5:
						u := graph.NodeID(rng.Intn(g.NumNodes()))
						v := graph.NodeID(rng.Intn(g.NumNodes()))
						_, _, _ = f.AddEdge(u, v, 1+120*rng.Float64())
					}
					label := fmt.Sprintf("round%d m%d", round, m)
					assertCSRMatchesFreshBuild(t, label, f)
					assertSlabSizesMatchPointerTrees(t, label, f)
				}
				checkQueries(fmt.Sprintf("round%d", round))
				checkRoutes(fmt.Sprintf("round%d", round))
			}
			// On a network this small a structural change relocates a few
			// percent of all cells, so compaction fires now and then; the
			// bulk of the drains must still be patches.
			if st := f.CSRStats(); st.Patches < 4*st.Rebuilds {
				t.Fatalf("storm drains should mostly patch, got %+v", st)
			}
		})
	}
}

// assertRouteIsShortest checks a route against ground truth, on both
// twins: the distance equals a plain Dijkstra's to the nearer-by-offset
// endpoint of the target's edge, the path starts at from, every hop is a
// live road and the walk adds up (verifyPath). A target no road reaches
// must be ErrUnreachable from both; mustReach rules that outcome out.
func assertRouteIsShortest(t *testing.T, label string, g *graph.Graph, csr, ref *Session, from graph.NodeID, target graph.Object, mustReach bool) {
	t.Helper()
	ed := g.Edge(target.Edge)
	truth := graph.NewSearch(g)
	truth.Run(from, graph.Options{Targets: []graph.NodeID{ed.U, ed.V}})
	want := math.Min(truth.Dist(ed.U)+target.DU, truth.Dist(ed.V)+target.DV)
	for _, s := range []*Session{csr, ref} {
		path, dist, _, err := s.PathToLimited(Query{Node: from}, target.ID, Limits{})
		if math.IsInf(want, 1) {
			if mustReach {
				t.Fatalf("%s: node %d cannot reach object %d at all; the case is vacuous", label, from, target.ID)
			}
			if !errors.Is(err, apierr.ErrUnreachable) {
				t.Fatalf("%s: object %d is cut off from node %d, got path %v, err %v", label, target.ID, from, path, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("%s: node %d -> object %d: %v", label, from, target.ID, err)
		}
		if math.Abs(dist-want) > 1e-9*math.Max(1, want) {
			t.Fatalf("%s: node %d -> object %d: route distance %v, Dijkstra %v", label, from, target.ID, dist, want)
		}
		verifyPath(t, g, target, from, path, dist)
	}
}

// TestPathGroundTruthEdgeCases names the route cases a target-directed
// search can get wrong and checks each against plain Dijkstra, on both
// twins.
func TestPathGroundTruthEdgeCases(t *testing.T) {
	cfg := defaultCfg()
	cfg.Rnet.StorePaths = true
	cfg.BufferPages = -1
	f, g, objects := fixture(t, 700, 900, 40, 31, cfg)
	csr, ref := csrAndRefSessions(f)
	far := dataset.RandomNodes(g, 6, 32)

	t.Run("target on an AddRoad edge", func(t *testing.T) {
		// A chord between two nodes of different top-level Rnets.
		u := far[0]
		v := graph.NoNode
		for _, n := range far[1:] {
			if g.EdgeBetween(u, n) == graph.NoEdge && topRnetOf(f, n) != topRnetOf(f, u) {
				v = n
				break
			}
		}
		if v == graph.NoNode {
			t.Fatal("no node pair to join; fixture is broken")
		}
		e, _, err := f.AddEdge(u, v, 3)
		if err != nil {
			t.Fatal(err)
		}
		o, err := f.InsertObject(e, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, from := range far {
			assertRouteIsShortest(t, "added road", g, csr, ref, from, o, true)
		}
	})

	target := objects.All()[0]
	ed := g.Edge(target.Edge)

	t.Run("query node is an endpoint of the target edge", func(t *testing.T) {
		assertRouteIsShortest(t, "endpoint U", g, csr, ref, ed.U, target, true)
		assertRouteIsShortest(t, "endpoint V", g, csr, ref, ed.V, target, true)
	})

	t.Run("query node interior to the target's leaf Rnet", func(t *testing.T) {
		// An object whose leaf Rnet holds a node that is none of its
		// borders and neither endpoint of the object's edge.
		for _, o := range objects.All() {
			oe := g.Edge(o.Edge)
			leaf := f.h.Rnet(f.h.LeafOf(o.Edge))
			for _, e := range leaf.Edges {
				for _, n := range [2]graph.NodeID{g.Edge(e).U, g.Edge(e).V} {
					if n != oe.U && n != oe.V && !slices.Contains(leaf.Borders, n) {
						assertRouteIsShortest(t, "leaf interior", g, csr, ref, n, o, true)
						return
					}
				}
			}
		}
		t.Fatal("no leaf Rnet with an interior node; fixture is broken")
	})

	t.Run("budget stop", func(t *testing.T) {
		lim := Limits{Budget: 3}
		for _, s := range []*Session{csr, ref} {
			path, _, stats, err := s.PathToLimited(Query{Node: far[1]}, target.ID, lim)
			if !errors.Is(err, apierr.ErrBudgetExhausted) || !stats.Truncated || stats.NodesPopped != lim.Budget || path != nil {
				t.Fatalf("budget %d: path %v, stats %+v, err %v", lim.Budget, path, stats, err)
			}
		}
	})

	// Last, because it takes the fixture apart.
	t.Run("target cut off by closures", func(t *testing.T) {
		for _, n := range [2]graph.NodeID{ed.U, ed.V} {
			for _, half := range append([]graph.Half(nil), g.Neighbors(n)...) {
				if half.Edge == target.Edge {
					continue
				}
				if _, err := f.DeleteEdge(half.Edge); err != nil {
					t.Fatal(err)
				}
			}
		}
		from := far[2]
		if from == ed.U || from == ed.V {
			from = far[3]
		}
		assertRouteIsShortest(t, "cut off", g, csr, ref, from, target, false)
		_, _, wantStats, wantErr := ref.PathToLimited(Query{Node: from}, target.ID, Limits{})
		_, _, gotStats, gotErr := csr.PathToLimited(Query{Node: from}, target.ID, Limits{})
		assertSameError(t, "cut off", wantErr, gotErr)
		assertIdenticalStats(t, "cut off", wantStats, gotStats)
		if !errors.Is(gotErr, apierr.ErrUnreachable) {
			t.Fatalf("closures left object %d reachable from node %d (err %v); the case is vacuous", target.ID, from, gotErr)
		}
		// From inside the island the target is still one hop away.
		assertRouteIsShortest(t, "inside the island", g, csr, ref, ed.U, target, true)
	})
}

// topRnetOf returns the level-1 Rnet of n's first live edge.
func topRnetOf(f *Framework, n graph.NodeID) rnet.RnetID {
	return f.h.AncestorAt(f.h.LeafOf(f.g.Neighbors(n)[0].Edge), 1)
}

// TestPathPopsFarBelowDijkstra is the coarse pin on what the index buys a
// route: on the CA network, with 1000 objects spread over it, the mean
// nodes a route settles stay under a fifth of what a plain Dijkstra to the
// same target's endpoints settles.
func TestPathPopsFarBelowDijkstra(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CA network")
	}
	f := caFramework(t)
	s := f.NewSession()
	truth := graph.NewSearch(f.g)
	rng := rand.New(rand.NewSource(41))
	all := f.objects.All()
	var routePops, plainPops int
	for i := 0; i < 100; i++ {
		from := graph.NodeID(rng.Intn(f.g.NumNodes()))
		target := all[rng.Intn(len(all))]
		_, _, stats, err := s.PathToLimited(Query{Node: from}, target.ID, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		routePops += stats.NodesPopped
		ed := f.g.Edge(target.Edge)
		truth.Run(from, graph.Options{Targets: []graph.NodeID{ed.U, ed.V}})
		plainPops += truth.Visited
	}
	t.Logf("100 CA routes: %d pops through the index, %d by plain Dijkstra", routePops, plainPops)
	if routePops*5 > plainPops {
		t.Fatalf("routes settle %d nodes, plain Dijkstra %d: the index should save at least 5x", routePops, plainPops)
	}
}

// assertCSRMatchesFreshBuild is the referee for incremental patching:
// node by node, the index the framework holds after its drain must be
// logically equal to what buildCSR produces from the same hierarchy —
// the same entries with skips rebased to the node's start, and the same
// shortcut (to,dist) and leaf (to,edge,w) lists behind their offsets.
func assertCSRMatchesFreshBuild(t *testing.T, label string, f *Framework) {
	t.Helper()
	got := f.ro.loadCSR()
	want := buildCSR(f.g, f.h, new(rnet.FlatTree))
	if got.gen != want.gen {
		t.Fatalf("%s: index at generation %d, hierarchy at %d", label, got.gen, want.gen)
	}
	for n := 0; n < f.g.NumNodes(); n++ {
		var gs csrSpan // a node the patched index never saw has no entries
		if n < len(got.span) {
			gs = got.span[n]
		}
		ws := want.span[n]
		if gs.end-gs.start != ws.end-ws.start {
			t.Fatalf("%s: node %d has %d entries, fresh build %d", label, n, gs.end-gs.start, ws.end-ws.start)
		}
		for i := int32(0); i < ws.end-ws.start; i++ {
			ge, we := got.ents[gs.start+i], want.ents[ws.start+i]
			if ge.rnet != we.rnet || ge.flags != we.flags || ge.skip-gs.start != we.skip-ws.start ||
				ge.scEnd-ge.scOff != we.scEnd-we.scOff || ge.edgeEnd-ge.edgeOff != we.edgeEnd-we.edgeOff {
				t.Fatalf("%s: node %d entry %d: patched %+v (slab at %d), fresh build %+v (slab at %d)",
					label, n, i, ge, gs.start, we, ws.start)
			}
			for j := int32(0); j < we.scEnd-we.scOff; j++ {
				if got.scTo[ge.scOff+j] != want.scTo[we.scOff+j] || got.scDist[ge.scOff+j] != want.scDist[we.scOff+j] {
					t.Fatalf("%s: node %d entry %d shortcut %d: patched (%d,%v), fresh build (%d,%v)", label, n, i, j,
						got.scTo[ge.scOff+j], got.scDist[ge.scOff+j], want.scTo[we.scOff+j], want.scDist[we.scOff+j])
				}
			}
			for j := int32(0); j < we.edgeEnd-we.edgeOff; j++ {
				g, w := ge.edgeOff+j, we.edgeOff+j
				if got.leTo[g] != want.leTo[w] || got.leEdge[g] != want.leEdge[w] || got.leW[g] != want.leW[w] {
					t.Fatalf("%s: node %d entry %d leaf edge %d: patched (%d,%d,%v), fresh build (%d,%d,%v)", label, n, i, j,
						got.leTo[g], got.leEdge[g], got.leW[g], want.leTo[w], want.leEdge[w], want.leW[w])
				}
			}
		}
	}
}

// TestCSRFencePaths walks the fence's edge cases: Build leaves the index
// built; every network mutator returns with the slabs equal to a fresh
// build — a plain one, failed ones, a rolled-back AddEdge (which leaves
// nothing to drain) and one through a Rebind framework sharing the
// overlay; queries after a mutator only read (CSRStats does not move); and
// a hierarchy write that skipped its fence makes the read path panic
// instead of repairing the slabs behind the readers' backs.
func TestCSRFencePaths(t *testing.T) {
	cfg := defaultCfg()
	cfg.Rnet.StorePaths = true
	cfg.BufferPages = -1
	f, g, _ := fixture(t, 400, 520, 60, 29, cfg)
	if st := f.CSRStats(); st.Rebuilds != 1 || st.Patches != 0 {
		t.Fatalf("after Build: %+v, want exactly one build", st)
	}

	// The first mutation patches Build's index before it returns.
	if _, err := f.SetEdgeWeight(3, g.Weight(3)*2); err != nil {
		t.Fatal(err)
	}
	if st := f.CSRStats(); st.Rebuilds != 1 || st.Patches != 1 {
		t.Fatalf("first mutation: %+v, want one patch of Build's index", st)
	}
	assertCSRMatchesFreshBuild(t, "first mutation", f)

	// Failed mutators return with the slabs current too.
	if _, err := f.DeleteEdge(5); err != nil {
		t.Fatal(err)
	}
	failed := map[string]func() error{
		"close a closed road":     func() error { _, err := f.DeleteEdge(5); return err },
		"reopen an open road":     func() error { _, err := f.RestoreEdge(6); return err },
		"non-positive weight":     func() error { _, err := f.SetEdgeWeight(7, -1); return err },
		"re-weight a closed road": func() error { _, err := f.SetEdgeWeight(5, 9); return err },
	}
	for label, op := range failed {
		if err := op(); err == nil {
			t.Fatalf("%s succeeded", label)
		}
		assertCSRMatchesFreshBuild(t, label, f)
	}
	checkCSRAgainstAdjacency(t, f, g)

	// A rolled-back AddEdge: isolate two nodes, fail to connect them.
	var u, v graph.NodeID = 0, 1
	for _, n := range [2]graph.NodeID{u, v} {
		for len(g.Neighbors(n)) > 0 {
			if _, err := f.DeleteEdge(g.Neighbors(n)[0].Edge); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := f.CSRStats()
	if _, _, err := f.AddEdge(u, v, 2); err == nil {
		t.Fatal("AddEdge between isolated nodes succeeded")
	}
	if st := f.CSRStats(); st != before {
		t.Fatalf("rolled-back AddEdge drained something: %+v -> %+v", before, st)
	}
	assertCSRMatchesFreshBuild(t, "rolled-back AddEdge", f)
	checkCSRAgainstAdjacency(t, f, g)

	// Rebind shares the overlay and so the index: a mutation through the
	// bound framework leaves the index current for both.
	bound := Rebind(f, dataset.PlaceUniform(g, 20, 77, 0), AbstractBloom)
	if _, err := bound.SetEdgeWeight(9, g.Weight(9)*3); err != nil {
		t.Fatal(err)
	}
	if f.ro.csr.idx.gen != f.h.TopoGen() || bound.CSRStats() != f.CSRStats() {
		t.Fatalf("Rebind: the mutation through the bound framework did not reach the shared index")
	}
	assertCSRMatchesFreshBuild(t, "rebind", f)

	// Queries after a mutator only read.
	csr, ref := csrAndRefSessions(f)
	if _, err := f.RestoreEdge(5); err != nil {
		t.Fatal(err)
	}
	st := f.CSRStats()
	for n := 0; n < 40; n++ {
		q := Query{Node: graph.NodeID(n * 7 % g.NumNodes())}
		want, _ := ref.KNN(q, 5)
		got, _ := csr.KNN(q, 5)
		assertIdenticalResults(t, fmt.Sprintf("after restore n%d", q.Node), want, got)
	}
	if got := f.CSRStats(); got != st {
		t.Fatalf("queries wrote the index: %+v -> %+v", st, got)
	}
	assertCSRMatchesFreshBuild(t, "after queries", f)

	// Last, because it leaves the index stale: a write straight into the
	// hierarchy bypasses the framework's fence, and the next read says so.
	if _, err := f.Hierarchy().SetEdgeWeight(3, g.Weight(3)*2); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("a query over a stale index did not panic")
		}
	}()
	csr.KNN(Query{Node: 0}, 5)
}

// TestCSRCurrentAfterReplayBurst applies a journal-replay-sized burst of
// network mutations with no call between them, as journal replay does:
// each mutator patches before it returns, so the index ends equal to a
// fresh build having been patched, never rebuilt wholesale.
func TestCSRCurrentAfterReplayBurst(t *testing.T) {
	cfg := defaultCfg()
	cfg.BufferPages = -1
	f, g, _ := fixture(t, 700, 900, 160, 3, cfg)
	before := f.CSRStats()
	rng := rand.New(rand.NewSource(3))
	var closed []graph.EdgeID
	for op := 0; op < 300; op++ {
		e := graph.EdgeID(rng.Intn(g.NumEdges()))
		switch {
		case g.Edge(e).Removed:
		case op%3 == 0:
			if _, err := f.DeleteEdge(e); err == nil {
				closed = append(closed, e)
			}
		case op%3 == 1 && len(closed) > 0:
			_, _ = f.RestoreEdge(closed[len(closed)-1])
			closed = closed[:len(closed)-1]
		default:
			_, _ = f.SetEdgeWeight(e, 1+120*rng.Float64())
		}
	}
	after := f.CSRStats()
	if after.Patches == before.Patches {
		t.Fatalf("a 300-op burst patched nothing: before %+v, after %+v", before, after)
	}
	assertCSRMatchesFreshBuild(t, "burst", f)
	checkCSRAgainstAdjacency(t, f, g)
}

// TestCSRCompactionBoundsSlabs runs a long stream of close/reopen pairs —
// every one relocates its endpoints' slabs and leaves the old cells dead —
// and checks that compaction kicks in: the entry slab never grows past the
// dead-cell cap and the index ends equal to a fresh build.
func TestCSRCompactionBoundsSlabs(t *testing.T) {
	cfg := defaultCfg()
	cfg.BufferPages = -1
	f, g, _ := fixture(t, 700, 900, 160, 9, cfg)
	live := len(f.ro.loadCSR().ents)
	rng := rand.New(rand.NewSource(9))
	for pair := 0; pair < 600; pair++ {
		e := graph.EdgeID(rng.Intn(g.NumEdges()))
		if _, err := f.DeleteEdge(e); err != nil {
			t.Fatal(err)
		}
		if _, err := f.RestoreEdge(e); err != nil {
			t.Fatal(err)
		}
		// A quarter dead plus the one drain that may run past the cap
		// before the next one compacts.
		if n := len(f.ro.loadCSR().ents); n > live+live/2 {
			t.Fatalf("pair %d: entry slab grew to %d cells over %d live ones", pair, n, live)
		}
	}
	st := f.CSRStats()
	if st.Rebuilds < 2 {
		t.Fatalf("600 relocating pairs never compacted: %+v", st)
	}
	if st.Patches < 10*st.Rebuilds {
		t.Fatalf("compaction should be rare next to patching: %+v", st)
	}
	assertCSRMatchesFreshBuild(t, "after compaction", f)
}

// TestCSRTypedErrorsAgree exercises the error edges of the path and limit
// surfaces on both implementations.
func TestCSRTypedErrorsAgree(t *testing.T) {
	cfg := defaultCfg()
	cfg.Rnet.StorePaths = true
	f, _, objects := fixture(t, 200, 260, 30, 5, cfg)
	csr, ref := csrAndRefSessions(f)

	// Unknown object.
	_, _, wantErr := ref.PathTo(Query{Node: 0}, 9999)
	_, _, gotErr := csr.PathTo(Query{Node: 0}, 9999)
	assertSameError(t, "no-such-object", wantErr, gotErr)

	// Attribute mismatch.
	var victim graph.Object
	for _, o := range objects.All() {
		if o.Attr != 0 {
			victim = o
			break
		}
	}
	if victim.ID != 0 || objects.All()[0].ID == victim.ID {
		wrong := victim.Attr%3 + 1
		if wrong == victim.Attr {
			wrong++
		}
		_, _, wantErr = ref.PathTo(Query{Node: 0, Attr: wrong}, victim.ID)
		_, _, gotErr = csr.PathTo(Query{Node: 0, Attr: wrong}, victim.ID)
		assertSameError(t, "attr-mismatch", wantErr, gotErr)
	}

	// Canceled context.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	lim := Limits{Ctx: ctx}
	_, _, wantErr = ref.KNNLimited(Query{Node: 0}, 5, 0, lim)
	_, _, gotErr = csr.KNNLimited(Query{Node: 0}, 5, 0, lim)
	assertSameError(t, "canceled", wantErr, gotErr)

	// Paths not stored.
	f2, _, _ := fixture(t, 120, 150, 10, 6, defaultCfg())
	csr2, ref2 := csrAndRefSessions(f2)
	_, _, wantErr = ref2.PathTo(Query{Node: 0}, 0)
	_, _, gotErr = csr2.PathTo(Query{Node: 0}, 0)
	assertSameError(t, "paths-not-stored", wantErr, gotErr)
}

// TestCSRWatchedSeededAgree drives the sharding router's primitive —
// multi-seed watched searches — through both paths. The watched nodes
// include some that border a leaf Rnet inside its parent, which the watch
// set reaches through the leaf's shortcuts rather than by descending it.
func TestCSRWatchedSeededAgree(t *testing.T) {
	f, g, _ := fixture(t, 500, 650, 90, 11, defaultCfg())
	rng := rand.New(rand.NewSource(11))
	csr, ref := csrAndRefSessions(f)
	watched := append(dataset.RandomNodes(g, 24, 3), leafBordersInsideParent(f.Hierarchy(), g, 4)...)
	watch := f.NewWatchSet(watched)
	for i := 0; i < 20; i++ {
		seeds := []Seed{
			{Node: graph.NodeID(rng.Intn(g.NumNodes())), Dist: 10 * rng.Float64()},
			{Node: graph.NodeID(rng.Intn(g.NumNodes())), Dist: 25 * rng.Float64()},
		}
		attr := int32(rng.Intn(3))
		k := 1 + rng.Intn(8)
		wantWD := map[graph.NodeID]float64{}
		gotWD := map[graph.NodeID]float64{}
		wantRes, wantStats := ref.SearchSeeded(seeds, attr, k, 0, watch, wantWD)
		gotRes, gotStats := csr.SearchSeeded(seeds, attr, k, 0, watch, gotWD)
		label := fmt.Sprintf("seeded %d", i)
		assertIdenticalResults(t, label, wantRes, gotRes)
		assertIdenticalStats(t, label, wantStats, gotStats)
		if len(wantWD) != len(gotWD) {
			t.Fatalf("%s: watch dists %d vs %d", label, len(wantWD), len(gotWD))
		}
		for n, d := range wantWD {
			if gd, ok := gotWD[n]; !ok || gd != d {
				t.Fatalf("%s: watched node %d: %v vs %v (ok=%v)", label, n, d, gd, ok)
			}
		}
	}
}

// TestCSRStructure checks the builder's invariants directly: skip pointers
// partition each node's slab, and the leaf-edge slabs agree with the
// graph's adjacency (every live hosted incident edge appears exactly once,
// with its current weight).
func TestCSRStructure(t *testing.T) {
	f, g, _ := fixture(t, 400, 520, 60, 17, defaultCfg())
	checkCSRAgainstAdjacency(t, f, g)
}

func checkCSRAgainstAdjacency(t *testing.T, f *Framework, g *graph.Graph) {
	t.Helper()
	c := f.ro.loadCSR()
	if len(c.span) != g.NumNodes() {
		t.Fatalf("spans cover %d nodes, graph has %d", len(c.span), g.NumNodes())
	}
	for n := 0; n < g.NumNodes(); n++ {
		start, end := c.span[n].start, c.span[n].end
		if start > end || int(end) > len(c.ents) {
			t.Fatalf("node %d: bad slab [%d,%d)", n, start, end)
		}
		type edgeRef struct {
			to   int32
			edge int32
		}
		got := map[edgeRef]float64{}
		// Walk entries linearly, validating skip pointers and collecting
		// leaf edges.
		for i := start; i < end; i++ {
			e := &c.ents[i]
			if e.skip <= i || e.skip > end {
				t.Fatalf("node %d entry %d: skip %d outside (%d,%d]", n, i, e.skip, i, end)
			}
			if e.flags&csrChildren != 0 {
				if e.skip == i+1 {
					t.Fatalf("node %d entry %d: children flag but empty subtree", n, i)
				}
				continue
			}
			if e.skip != i+1 {
				t.Fatalf("node %d entry %d: leaf entry with skip %d != %d", n, i, e.skip, i+1)
			}
			for j := e.edgeOff; j < e.edgeEnd; j++ {
				ref := edgeRef{to: c.leTo[j], edge: c.leEdge[j]}
				if _, dup := got[ref]; dup {
					t.Fatalf("node %d: duplicate leaf edge %+v", n, ref)
				}
				got[ref] = c.leW[j]
			}
		}
		// Expected: live incident edges hosted by some leaf Rnet.
		want := map[edgeRef]float64{}
		for _, half := range g.Neighbors(graph.NodeID(n)) {
			if f.h.LeafOf(half.Edge) == rnet.NoRnet {
				continue
			}
			want[edgeRef{to: int32(half.To), edge: int32(half.Edge)}] = g.Weight(half.Edge)
		}
		if len(got) != len(want) {
			t.Fatalf("node %d: slab has %d edges, adjacency %d", n, len(got), len(want))
		}
		for ref, w := range want {
			if gw, ok := got[ref]; !ok || gw != w {
				t.Fatalf("node %d: edge %+v weight %v vs slab %v (ok=%v)", n, ref, w, gw, ok)
			}
		}
	}
}

// FuzzCSRBuild feeds arbitrary small graphs — including isolated nodes and
// closed edges — through the CSR builder and then through a mutation
// sequence, asserting the structural adjacency invariant, patched-equals-
// fresh-build and slab sizes equal to pointer-tree sizes after every
// mutation, and differential query equality on every input.
func FuzzCSRBuild(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 1, 10, 1, 2, 20})
	f.Add([]byte{8, 0, 1, 5, 1, 2, 5, 2, 3, 5, 3, 0, 5, 4, 5, 9})
	f.Add([]byte{12, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 4, 4, 4, 0, 5, 0, 2, 9, 1, 3, 9})
	// Six nodes on a path 0-1-2-3 with 4 and 5 isolated (the two triples
	// that would attach them are self-loops). Read as ops the first pair
	// is AddEdge(4, 5) — the both-endpoints-isolated rollback — and the
	// tail isolates edge 0's endpoint, then reopens the edge.
	f.Add([]byte{4, 34, 4, 0, 0, 1, 7, 1, 2, 7, 2, 3, 7, 5, 5, 0, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			t.Skip("inputs beyond a small graph add nothing")
		}
		nodes := 2
		if len(data) > 0 {
			nodes = 2 + int(data[0]%14)
		}
		g := &graph.Graph{}
		for i := 0; i < nodes; i++ {
			g.AddNode(geom.Point{X: float64(i % 4), Y: float64(i / 4)})
		}
		// Edge triples (u, v, w); duplicates and self-loops are rejected by
		// the graph and simply skipped. Trailing bytes close edges and
		// place objects.
		var edges []graph.EdgeID
		i := 1
		for ; i+2 < len(data) && len(edges) < 3*nodes; i += 3 {
			u := graph.NodeID(int(data[i]) % nodes)
			v := graph.NodeID(int(data[i+1]) % nodes)
			w := 1 + float64(data[i+2]%50)
			if e, err := g.AddEdge(u, v, w); err == nil {
				edges = append(edges, e)
			}
		}
		if len(edges) == 0 {
			return
		}
		objects := graph.NewObjectSet(g)
		for j := 0; j < len(data) && j < 6; j++ {
			e := edges[int(data[j])%len(edges)]
			du := g.Edge(e).Weight * float64(data[j]%8) / 8
			_, _ = objects.Add(e, du, int32(data[j]%3))
		}
		cfg := Config{
			Rnet:        rnet.Config{Fanout: 2, Levels: 2, KLPasses: -1, StorePaths: true},
			BufferPages: -1,
		}
		fw, err := Build(g, objects, cfg)
		if err != nil {
			t.Skipf("unbuildable fuzz graph: %v", err)
		}
		// Close some edges through the framework so the CSR rebuild path
		// sees topology churn.
		for j := 0; j < len(data) && j < 3; j++ {
			e := edges[int(data[len(data)-1-j])%len(edges)]
			if !g.Edge(e).Removed {
				_, _ = fw.DeleteEdge(e)
			}
		}
		checkCSRAgainstAdjacency(t, fw, g)

		// Then a mutation sequence read off the same bytes, warmed and
		// refereed after every op so each drain's patch is compared with
		// a fresh build: re-weights up and down, close and reopen, the
		// full isolation of an endpoint, and AddEdge — which fails and
		// rolls back when both endpoints are isolated.
		refereed := func(label string) {
			assertCSRMatchesFreshBuild(t, label, fw)
			assertSlabSizesMatchPointerTrees(t, label, fw)
			checkCSRAgainstAdjacency(t, fw, g)
		}
		for j := 0; j+1 < len(data) && j < 64; j += 2 {
			arg := int(data[j+1])
			e := edges[arg%len(edges)]
			label := fmt.Sprintf("fuzz op %d", j/2)
			switch data[j] % 6 {
			case 0:
				_, _ = fw.SetEdgeWeight(e, g.Weight(e)*1.5+1)
			case 1:
				_, _ = fw.SetEdgeWeight(e, g.Weight(e)/2+0.25)
			case 2:
				_, _ = fw.DeleteEdge(e)
			case 3:
				_, _ = fw.RestoreEdge(e)
			case 4:
				u, v := graph.NodeID(arg%nodes), graph.NodeID((arg/nodes)%nodes)
				if added, _, err := fw.AddEdge(u, v, 1+float64(arg%20)); err == nil {
					edges = append(edges, added)
				}
			case 5:
				u := g.Edge(e).U
				for _, half := range append([]graph.Half(nil), g.Neighbors(u)...) {
					_, _ = fw.DeleteEdge(half.Edge)
					refereed(label + " isolating")
				}
				_, _ = fw.RestoreEdge(e)
			}
			refereed(label)
		}

		csr, ref := csrAndRefSessions(fw)
		for n := 0; n < g.NumNodes(); n++ {
			q := Query{Node: graph.NodeID(n)}
			wantRes, wantStats := ref.KNN(q, 3)
			gotRes, gotStats := csr.KNN(q, 3)
			assertIdenticalResults(t, fmt.Sprintf("fuzz knn n%d", n), wantRes, gotRes)
			assertIdenticalStats(t, fmt.Sprintf("fuzz knn n%d", n), wantStats, gotStats)
			wantRes, wantStats = ref.Range(q, 60)
			gotRes, gotStats = csr.Range(q, 60)
			assertIdenticalResults(t, fmt.Sprintf("fuzz range n%d", n), wantRes, gotRes)
			assertIdenticalStats(t, fmt.Sprintf("fuzz range n%d", n), wantStats, gotStats)
		}
		// And against ground truth, so both paths can't be wrong together.
		for n := 0; n < g.NumNodes(); n++ {
			q := Query{Node: graph.NodeID(n)}
			gotRes, _ := csr.KNN(q, 3)
			want := bruteKNN(g, objects, q, 3)
			if len(want) != len(gotRes) {
				t.Fatalf("fuzz brute n%d: %d vs %d results", n, len(want), len(gotRes))
			}
			for j := range want {
				if math.Abs(want[j].Dist-gotRes[j].Dist) > 1e-9 {
					t.Fatalf("fuzz brute n%d rank %d: dist %v vs %v", n, j, want[j].Dist, gotRes[j].Dist)
				}
			}
		}
	})
}

// benchSession builds the benchmarks' network — 8000 nodes, 1200 objects —
// and a session on the chosen query path.
func benchSession(b *testing.B, ref bool) (*Session, *graph.Graph, *graph.ObjectSet) {
	cfg := defaultCfg()
	cfg.Rnet.StorePaths = true
	cfg.BufferPages = -1
	g := dataset.MustGenerate(dataset.Spec{Name: "b", Nodes: 8000, Edges: 10400, Seed: 99})
	objects := dataset.PlaceUniform(g, 1200, 100, 0, 7, 9)
	fw, err := Build(g, objects, cfg)
	if err != nil {
		b.Fatal(err)
	}
	s := fw.NewSession()
	s.UseReferencePath(ref)
	return s, g, objects
}

// BenchmarkSessionKNNCSR / BenchmarkSessionKNNReference measure the two
// query paths side by side.
func benchmarkSessionKNN(b *testing.B, ref bool) {
	s, g, _ := benchSession(b, ref)
	starts := dataset.RandomNodes(g, 256, 5)
	buf := make([]Result, 0, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _ = s.KNNAppend(buf[:0], Query{Node: starts[i%len(starts)]}, 10)
	}
	_ = buf
}

func BenchmarkSessionKNNCSR(b *testing.B)       { benchmarkSessionKNN(b, false) }
func BenchmarkSessionKNNReference(b *testing.B) { benchmarkSessionKNN(b, true) }

// BenchmarkSessionPathToCSR / BenchmarkSessionPathToReference do the same
// for route queries, and report what a route costs in settled nodes and
// how long it is.
func benchmarkSessionPathTo(b *testing.B, ref bool) {
	s, g, objects := benchSession(b, ref)
	starts := dataset.RandomNodes(g, 256, 5)
	all := objects.All()
	var pops, nodes int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		path, _, stats, err := s.PathToLimited(Query{Node: starts[i%len(starts)]}, all[i*7%len(all)].ID, Limits{})
		if err != nil {
			b.Fatal(err)
		}
		pops += stats.NodesPopped
		nodes += len(path)
	}
	b.ReportMetric(float64(pops)/float64(b.N), "pops/op")
	b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
}

func BenchmarkSessionPathToCSR(b *testing.B)       { benchmarkSessionPathTo(b, false) }
func BenchmarkSessionPathToReference(b *testing.B) { benchmarkSessionPathTo(b, true) }
