package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"road/internal/dataset"
	"road/internal/graph"
	"road/internal/rnet"
)

func pathFixture(t *testing.T, seed int64) (*Framework, *graph.Graph, *graph.ObjectSet) {
	t.Helper()
	g := dataset.MustGenerate(dataset.Spec{Name: "p", Nodes: 400, Edges: 460, Seed: seed})
	objects := dataset.PlaceUniform(g, 20, seed+1, 0, 7)
	f, err := Build(g, objects, Config{Rnet: rnet.Config{
		Fanout: 4, Levels: 3, KLPasses: -1, PruneMaxBorders: 32, StorePaths: true,
	}})
	if err != nil {
		t.Fatal(err)
	}
	return f, g, objects
}

// verifyPath checks a returned path is a real walk ending at an endpoint
// of the object's edge, whose length plus the object offset equals dist.
func verifyPath(t *testing.T, g *graph.Graph, o graph.Object, from graph.NodeID, path []graph.NodeID, dist float64) {
	t.Helper()
	if len(path) == 0 {
		t.Fatal("empty path")
	}
	if path[0] != from {
		t.Fatalf("path starts at %d, want %d", path[0], from)
	}
	var walked float64
	for i := 1; i < len(path); i++ {
		e := g.EdgeBetween(path[i-1], path[i])
		if e == graph.NoEdge {
			t.Fatalf("path hop %d->%d is not an edge", path[i-1], path[i])
		}
		walked += g.Weight(e)
	}
	end := path[len(path)-1]
	ed := g.Edge(o.Edge)
	var offset float64
	switch end {
	case ed.U:
		offset = o.DU
	case ed.V:
		offset = o.DV
	default:
		t.Fatalf("path ends at %d, not an endpoint of object edge (%d,%d)", end, ed.U, ed.V)
	}
	if math.Abs(walked+offset-dist) > 1e-9*math.Max(1, dist) {
		t.Fatalf("path length %g + offset %g != reported dist %g", walked, offset, dist)
	}
}

// refSession returns a session pinned to the reference traversal, the
// oracle the CSR route search is tested against.
func refSession(f *Framework) *Session {
	s := f.NewSession()
	s.UseReferencePath(true)
	return s
}

func TestPathToMatchesKNNDistance(t *testing.T) {
	f, g, _ := pathFixture(t, 1)
	ref := refSession(f)
	for _, qn := range dataset.RandomNodes(g, 25, 2) {
		q := Query{Node: qn}
		res, _ := f.KNN(q, 3)
		for _, r := range res {
			path, dist, err := ref.PathTo(q, r.Object.ID)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(dist-r.Dist) > 1e-9*math.Max(1, r.Dist) {
				t.Fatalf("PathTo dist %g != KNN dist %g", dist, r.Dist)
			}
			verifyPath(t, g, r.Object, qn, path, dist)
		}
	}
}

func TestPathToFarObject(t *testing.T) {
	// Specifically exercise long paths that must cross bypassed regions
	// (few objects -> many bypasses -> shortcut expansion on the way back).
	g := dataset.MustGenerate(dataset.Spec{Name: "p", Nodes: 2000, Edges: 2300, Seed: 3})
	objects := dataset.PlaceUniform(g, 3, 4)
	f, err := Build(g, objects, Config{Rnet: rnet.Config{
		Fanout: 4, Levels: 4, KLPasses: -1, PruneMaxBorders: 32, StorePaths: true,
	}})
	if err != nil {
		t.Fatal(err)
	}
	s := graph.NewSearch(g)
	ref := refSession(f)
	for _, qn := range dataset.RandomNodes(g, 10, 5) {
		q := Query{Node: qn}
		res, _ := f.KNN(q, 1)
		if len(res) == 0 {
			continue
		}
		path, dist, err := ref.PathTo(q, res[0].Object.ID)
		if err != nil {
			t.Fatal(err)
		}
		verifyPath(t, g, res[0].Object, qn, path, dist)
		// The path must be shortest: its node-to-endpoint walk equals the
		// Dijkstra distance.
		end := path[len(path)-1]
		if want := s.ShortestDist(qn, end); math.Abs(want-(dist-offsetAt(g, res[0].Object, end))) > 1e-9*math.Max(1, want) {
			t.Fatalf("path to %d not shortest: %g vs %g", end, dist, want)
		}
	}
}

func offsetAt(g *graph.Graph, o graph.Object, n graph.NodeID) float64 {
	if g.Edge(o.Edge).U == n {
		return o.DU
	}
	return o.DV
}

func TestPathToErrors(t *testing.T) {
	f, _, objects := pathFixture(t, 6)
	for _, s := range []*Session{f.NewSession(), refSession(f)} {
		if _, _, err := s.PathTo(Query{Node: 0}, 9999); err == nil {
			t.Fatal("missing object accepted")
		}
		o := objects.All()[0]
		if _, _, err := s.PathTo(Query{Node: 0, Attr: 42}, o.ID); err == nil && o.Attr != 42 {
			t.Fatal("attribute mismatch accepted")
		}
	}
	// Without waypoints, a route that must expand a shortcut fails
	// cleanly, and every route that comes back is a real shortest walk.
	g2 := dataset.MustGenerate(dataset.Spec{Name: "p", Nodes: 100, Edges: 120, Seed: 7})
	obj2 := dataset.PlaceUniform(g2, 3, 8)
	f2, err := Build(g2, obj2, Config{Rnet: rnet.Config{Fanout: 2, Levels: 2}})
	if err != nil {
		t.Fatal(err)
	}
	failed := 0
	for _, s := range []*Session{f2.NewSession(), refSession(f2)} {
		for n := graph.NodeID(0); int(n) < g2.NumNodes(); n++ {
			for _, o := range obj2.All() {
				path, dist, err := s.PathTo(Query{Node: n}, o.ID)
				if err != nil {
					failed++
					continue
				}
				verifyPath(t, g2, o, n, path, dist)
			}
		}
	}
	if failed == 0 {
		t.Fatal("no route without waypoints failed: none crossed a shortcut")
	}
}

func TestExpandShortcutAllLevels(t *testing.T) {
	g := dataset.MustGenerate(dataset.Spec{Name: "p", Nodes: 600, Edges: 700, Seed: 9})
	h, err := rnet.Build(g, rnet.Config{Fanout: 4, Levels: 3, KLPasses: -1, StorePaths: true, PruneMaxBorders: 32})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(10))
	checked := 0
	for level := 1; level <= 3; level++ {
		for _, id := range h.AtLevel(level) {
			for _, b := range h.Rnet(id).Borders {
				for _, sc := range h.ShortcutsFrom(id, b) {
					if rng.Intn(5) != 0 {
						continue
					}
					path, err := h.ExpandShortcut(id, sc)
					if err != nil {
						t.Fatalf("level %d: %v", level, err)
					}
					if path[0] != sc.From || path[len(path)-1] != sc.To {
						t.Fatalf("expanded path endpoints %d..%d, want %d..%d",
							path[0], path[len(path)-1], sc.From, sc.To)
					}
					var total float64
					for i := 1; i < len(path); i++ {
						e := g.EdgeBetween(path[i-1], path[i])
						if e == graph.NoEdge {
							t.Fatalf("expanded hop %d->%d not an edge", path[i-1], path[i])
						}
						total += g.Weight(e)
					}
					if math.Abs(total-sc.Dist) > 1e-9*math.Max(1, sc.Dist) {
						t.Fatalf("expanded length %g != shortcut dist %g", total, sc.Dist)
					}
					checked++
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no shortcuts expanded; test vacuous")
	}
}

// TestPathToObjectDensityInvariance pins the route search's rule: the only
// object of interest is the target, so what else is on the map must not
// change a route query. The same (query node, target edge) pairs run over
// one network against an object set holding nothing but the target and
// against a dense one (an object on every third edge); path, distance and
// traversal statistics must be identical, on both twins. A verdict that
// consults the object abstracts fails this: the dense set multiplies the
// pops.
func TestPathToObjectDensityInvariance(t *testing.T) {
	g := dataset.MustGenerate(dataset.Spec{Name: "p", Nodes: 2000, Edges: 2300, Seed: 13})
	dense := graph.NewObjectSet(g)
	denseOn := map[graph.EdgeID]graph.ObjectID{}
	for e := 0; e < g.NumEdges(); e += 3 {
		o := dense.MustAdd(graph.EdgeID(e), g.Weight(graph.EdgeID(e))/2, int32(e%4))
		denseOn[o.Edge] = o.ID
	}
	fDense, err := Build(g, dense, Config{
		Rnet:        rnet.Config{Fanout: 4, Levels: 4, KLPasses: -1, PruneMaxBorders: 32, StorePaths: true},
		BufferPages: -1,
	})
	if err != nil {
		t.Fatal(err)
	}

	denseCSR, denseRef := csrAndRefSessions(fDense)

	rng := rand.New(rand.NewSource(14))
	var bypassed, popped int
	for i := 0; i < 40; i++ {
		q := Query{Node: graph.NodeID(rng.Intn(g.NumNodes()))}
		target := graph.EdgeID(3 * rng.Intn(g.NumEdges()/3))
		solo := graph.NewObjectSet(g)
		only := solo.MustAdd(target, g.Weight(target)/2, 0)
		soloCSR, soloRef := csrAndRefSessions(Rebind(fDense, solo, AbstractBloom))

		for _, twin := range []struct {
			name          string
			sSolo, sDense *Session
		}{{"csr", soloCSR, denseCSR}, {"reference", soloRef, denseRef}} {
			sSolo, sDense := twin.sSolo, twin.sDense
			label := fmt.Sprintf("pair %d node=%d edge=%d %s", i, q.Node, target, twin.name)

			wantPath, wantDist, wantStats, err := sSolo.PathToLimited(q, only.ID, Limits{})
			if err != nil {
				t.Fatalf("%s: target-only set: %v", label, err)
			}
			gotPath, gotDist, gotStats, err := sDense.PathToLimited(q, denseOn[target], Limits{})
			if err != nil {
				t.Fatalf("%s: dense set: %v", label, err)
			}
			if gotDist != wantDist || !slices.Equal(gotPath, wantPath) {
				t.Fatalf("%s: dense set routed %v (%v), target-only set %v (%v)", label, gotPath, gotDist, wantPath, wantDist)
			}
			if gotStats.NodesPopped != wantStats.NodesPopped || gotStats.RnetsBypassed != wantStats.RnetsBypassed ||
				gotStats.RnetsDescended != wantStats.RnetsDescended {
				t.Fatalf("%s: dense set cost %+v, target-only set %+v", label, gotStats, wantStats)
			}
			verifyPath(t, g, only, q.Node, gotPath, gotDist)
			bypassed += gotStats.RnetsBypassed
			popped += gotStats.NodesPopped
		}
	}
	if bypassed == 0 || popped == 0 {
		t.Fatalf("no Rnet bypassed (%d) or node settled (%d); test vacuous", bypassed, popped)
	}
}

// leafBordersInsideParent returns up to max nodes that border the leaf
// Rnet of one of their edges while interior to that leaf's parent: the
// nodes where the node-goal descent rule marks the parent and not the
// leaf.
func leafBordersInsideParent(h *rnet.Hierarchy, g *graph.Graph, max int) []graph.NodeID {
	var out []graph.NodeID
	for n := graph.NodeID(0); int(n) < g.NumNodes() && len(out) < max; n++ {
		for _, half := range g.Neighbors(n) {
			leaf := h.LeafOf(half.Edge)
			if leaf == rnet.NoRnet {
				continue
			}
			if p := h.Rnet(leaf).Parent; p != rnet.NoRnet && h.IsBorder(leaf, n) && !h.IsBorder(p, n) {
				out = append(out, n)
				break
			}
		}
	}
	return out
}

// TestNodeGoalsDescendOnlyInteriorRnets holds the one descent rule of node
// goals — a watch set and RouteToNode descend, on the chains of the node's
// edges, only the Rnets the node is interior to — at nodes where the rule
// bites: each borders the leaf of one of its edges but is interior to the
// leaf's parent, so the watch set marks the parent and not the leaf, and
// the search reaches the node through the leaf's shortcuts. A few random
// nodes, mostly interior to their leaves, ride along. Distances and routes
// must equal a Dijkstra oracle.
func TestNodeGoalsDescendOnlyInteriorRnets(t *testing.T) {
	f, g, _ := pathFixture(t, 5)
	h := f.Hierarchy()
	goals := leafBordersInsideParent(h, g, 8)
	if len(goals) == 0 {
		t.Fatal("fixture has no node bordering a leaf inside its parent")
	}
	goals = append(goals, dataset.RandomNodes(g, 4, 5)...)
	sess := f.NewSession()
	oracle := graph.NewSearch(g)
	rng := rand.New(rand.NewSource(5))
	for _, n := range goals {
		w := f.NewWatchSet([]graph.NodeID{n})
		for _, half := range g.Neighbors(n) {
			for r := h.LeafOf(half.Edge); r != rnet.NoRnet; r = h.Rnet(r).Parent {
				if got, want := w.rnets[r], !h.IsBorder(r, n); got != want {
					t.Fatalf("node %d: level-%d Rnet %d marked %v, want %v (marked iff the node is interior to it)", n, h.Rnet(r).Level, r, got, want)
				}
			}
		}
		for i := 0; i < 10; i++ {
			src := graph.NodeID(rng.Intn(g.NumNodes()))
			seeds := []Seed{{Node: src, Dist: rng.Float64()}}
			oracle.RunSeeded(seeds, graph.Options{})
			want := oracle.Dist(n)
			label := fmt.Sprintf("%d->%d", src, n)
			d, _, err := sess.WatchedDistances(nil, seeds, w, 0, Limits{})
			if err != nil {
				t.Fatal(err)
			}
			if !sameDist(d[0], want) {
				t.Fatalf("%s: WatchedDistances %v, Dijkstra %v", label, d[0], want)
			}
			path, dist, _, err := sess.RouteToNode(nil, seeds, n, Limits{})
			if err != nil {
				t.Fatal(err)
			}
			if !sameDist(dist, want) {
				t.Fatalf("%s: RouteToNode %v, Dijkstra %v", label, dist, want)
			}
			if math.IsInf(want, 1) {
				continue
			}
			walked := seeds[0].Dist
			for j := 1; j < len(path); j++ {
				e := g.EdgeBetween(path[j-1], path[j])
				if e == graph.NoEdge {
					t.Fatalf("%s: hop %d->%d is not an edge", label, path[j-1], path[j])
				}
				walked += g.Weight(e)
			}
			if path[0] != src || path[len(path)-1] != n || !sameDist(walked, dist) {
				t.Fatalf("%s: route %v walks %v, reported %v", label, path, walked, dist)
			}
		}
	}
}

// sameDist compares distances up to the drift of differently associated
// sums; infinities compare equal.
func sameDist(a, b float64) bool {
	if math.IsInf(a, 1) || math.IsInf(b, 1) {
		return math.IsInf(a, 1) && math.IsInf(b, 1)
	}
	return math.Abs(a-b) <= 1e-9*math.Max(1, b)
}
