package rnet

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"road/internal/graph"
)

// verifyInvariants checks, after any sequence of maintenance operations,
// that the hierarchy still satisfies its defining properties: borders match
// Definition 1 (a pinned node borders every Rnet holding its edges), leaf
// edge sets partition the live edges, and every stored shortcut distance
// equals the within-Rnet shortest-path oracle with full pair coverage
// (tests use PruneMaxBorders=0 so coverage is total).
func verifyInvariants(t *testing.T, h *Hierarchy) {
	t.Helper()
	g := h.Graph()

	// Leaf partition covers exactly the live edges.
	seen := make(map[graph.EdgeID]bool)
	for _, id := range h.AtLevel(h.Levels()) {
		for _, e := range h.Rnet(id).Edges {
			if seen[e] {
				t.Fatalf("edge %d in two leaf Rnets", e)
			}
			seen[e] = true
			if g.Edge(e).Removed {
				t.Fatalf("removed edge %d still in leaf Rnet", e)
			}
		}
	}
	if len(seen) != g.CountActiveEdges() {
		t.Fatalf("leaves cover %d edges, live count %d", len(seen), g.CountActiveEdges())
	}

	// Borders match Definition 1, extended by the pins, at every level.
	for level := 1; level <= h.Levels(); level++ {
		inout := make(map[graph.NodeID][2]bool) // per Rnet below
		for _, id := range h.AtLevel(level) {
			for k := range inout {
				delete(inout, k)
			}
			for e := 0; e < g.NumEdges(); e++ {
				eid := graph.EdgeID(e)
				if g.Edge(eid).Removed {
					continue
				}
				leaf := h.LeafOf(eid)
				if leaf == NoRnet {
					continue
				}
				ed := g.Edge(eid)
				inside := h.AncestorAt(leaf, level) == id
				for _, n := range [2]graph.NodeID{ed.U, ed.V} {
					v := inout[n]
					if inside {
						v[0] = true
					} else {
						v[1] = true
					}
					inout[n] = v
				}
			}
			for n, v := range inout {
				want := v[0] && (v[1] || h.isPinned(n))
				if got := h.IsBorder(id, n); got != want {
					t.Fatalf("level %d Rnet %d node %d: IsBorder=%v want %v", level, id, n, got, want)
				}
			}
		}
	}

	// Shortcut distances and coverage.
	for level := 1; level <= h.Levels(); level++ {
		for _, id := range h.AtLevel(level) {
			borders := h.Rnet(id).Borders
			for _, b := range borders {
				stored := make(map[graph.NodeID]float64)
				for _, sc := range h.ShortcutsFrom(id, b) {
					stored[sc.To] = sc.Dist
				}
				for _, b2 := range borders {
					if b2 == b {
						continue
					}
					want := shortcutOracleDist(h, g, id, b, b2)
					got, ok := stored[b2]
					if math.IsInf(want, 1) {
						if ok {
							t.Fatalf("Rnet %d: shortcut %d->%d stored but pair disconnected", id, b, b2)
						}
						continue
					}
					if !ok {
						t.Fatalf("Rnet %d: missing shortcut %d->%d (dist %g)", id, b, b2, want)
					}
					if math.Abs(got-want) > 1e-9*math.Max(1, want) {
						t.Fatalf("Rnet %d: shortcut %d->%d dist %g, oracle %g", id, b, b2, got, want)
					}
				}
			}
		}
	}
}

func maintenanceFixture(t *testing.T, seed int64) *Hierarchy {
	g := testNetwork(t, 250, 290, seed)
	return build(t, g, Config{Fanout: 2, Levels: 3, KLPasses: -1, PruneMaxBorders: 0})
}

func TestSetEdgeWeightIncrease(t *testing.T) {
	h := maintenanceFixture(t, 20)
	g := h.Graph()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10; i++ {
		e := graph.EdgeID(rng.Intn(g.NumEdges()))
		if _, err := h.SetEdgeWeight(e, g.Weight(e)*3); err != nil {
			t.Fatal(err)
		}
	}
	verifyInvariants(t, h)
}

func TestSetEdgeWeightDecrease(t *testing.T) {
	h := maintenanceFixture(t, 21)
	g := h.Graph()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 10; i++ {
		e := graph.EdgeID(rng.Intn(g.NumEdges()))
		if _, err := h.SetEdgeWeight(e, g.Weight(e)/4); err != nil {
			t.Fatal(err)
		}
	}
	verifyInvariants(t, h)
}

func TestSetEdgeWeightNoopFiltered(t *testing.T) {
	h := maintenanceFixture(t, 22)
	g := h.Graph()
	e := graph.EdgeID(0)
	res, err := h.SetEdgeWeight(e, g.Weight(e))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Filtered {
		t.Fatal("identical weight not filtered")
	}
}

func TestSetEdgeWeightFilterSkipsUncoveredEdges(t *testing.T) {
	// An edge covered by no shortcut (e.g. a dead-end spur inside an Rnet)
	// must be filtered without any recomputation when its weight grows.
	h := maintenanceFixture(t, 23)
	g := h.Graph()
	filteredCount := 0
	for e := 0; e < g.NumEdges(); e++ {
		eid := graph.EdgeID(e)
		old := g.Weight(eid)
		res, err := h.SetEdgeWeight(eid, old*1.001)
		if err != nil {
			t.Fatal(err)
		}
		if res.Filtered {
			filteredCount++
			if len(res.RecomputedRnets) != 0 {
				t.Fatal("filtered update recomputed Rnets")
			}
		}
		// Restore.
		if _, err := h.SetEdgeWeight(eid, old); err != nil {
			t.Fatal(err)
		}
	}
	if filteredCount == 0 {
		t.Fatal("filter never fired; expected some uncovered edges")
	}
	verifyInvariants(t, h)
}

func TestSetEdgeWeightRejectsInvalid(t *testing.T) {
	h := maintenanceFixture(t, 24)
	if _, err := h.SetEdgeWeight(0, -5); err == nil {
		t.Fatal("negative weight accepted")
	}
}

func TestUpdatePropagationStopsWhenUnchanged(t *testing.T) {
	// Weight changes that alter only leaf-level shortcuts must not ripple
	// to the root: RecomputedRnets stays shallow for most updates.
	h := maintenanceFixture(t, 25)
	g := h.Graph()
	deeper := 0
	for e := 0; e < 40; e++ {
		eid := graph.EdgeID(e)
		res, err := h.SetEdgeWeight(eid, g.Weight(eid)*1.5)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.RecomputedRnets) > 1 {
			deeper++
		}
	}
	if deeper == 40 {
		t.Fatal("every update propagated above the leaf; change detection broken")
	}
	verifyInvariants(t, h)
}

func TestDeleteAndRestoreEdge(t *testing.T) {
	h := maintenanceFixture(t, 26)
	g := h.Graph()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 8; i++ {
		e := graph.EdgeID(rng.Intn(g.NumEdges()))
		if g.Edge(e).Removed {
			continue
		}
		if _, err := h.DeleteEdge(e); err != nil {
			t.Fatal(err)
		}
		if _, err := h.RestoreEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	verifyInvariants(t, h)
}

// TestRestoreEdgeAfterFullIsolation: closing every edge incident to both
// endpoints leaves chooseHostLeaf with no live edge to nominate a leaf;
// the restore must fall back to the edge's build-time origin leaf instead
// of failing (the ROADMAP-pinned reopen-after-full-isolation bug).
func TestRestoreEdgeAfterFullIsolation(t *testing.T) {
	h := maintenanceFixture(t, 31)
	g := h.Graph()
	e := graph.EdgeID(0)
	ed := g.Edge(e)
	origin := h.OriginLeafOf(e)
	if origin == NoRnet {
		t.Fatalf("edge %d has no origin leaf", e)
	}
	// Close every live edge touching either endpoint (e included).
	for _, n := range [2]graph.NodeID{ed.U, ed.V} {
		for len(g.Neighbors(n)) > 0 {
			if _, err := h.DeleteEdge(g.Neighbors(n)[0].Edge); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := h.RestoreEdge(e); err != nil {
		t.Fatalf("RestoreEdge after full isolation: %v", err)
	}
	if got := h.LeafOf(e); got != origin {
		t.Fatalf("restored edge hosted by Rnet %d, want origin leaf %d", got, origin)
	}
	verifyInvariants(t, h)
}

func TestDeleteEdgePermanent(t *testing.T) {
	h := maintenanceFixture(t, 27)
	g := h.Graph()
	rng := rand.New(rand.NewSource(4))
	removed := 0
	for removed < 5 {
		e := graph.EdgeID(rng.Intn(g.NumEdges()))
		if g.Edge(e).Removed {
			continue
		}
		if _, err := h.DeleteEdge(e); err != nil {
			t.Fatal(err)
		}
		removed++
	}
	verifyInvariants(t, h)
}

func TestDeleteEdgeDemotesBorder(t *testing.T) {
	// Find a border node of some leaf Rnet with exactly one edge crossing
	// out of it; deleting that edge must demote the node.
	h := maintenanceFixture(t, 28)
	g := h.Graph()
	leafLevel := h.Levels()
	for _, id := range h.AtLevel(leafLevel) {
		for _, b := range h.Rnet(id).Borders {
			outside := []graph.EdgeID{}
			for _, half := range g.Neighbors(b) {
				if h.LeafOf(half.Edge) != id {
					outside = append(outside, half.Edge)
				}
			}
			if len(outside) != 1 {
				continue
			}
			if _, err := h.DeleteEdge(outside[0]); err != nil {
				t.Fatal(err)
			}
			// b may still be a border of id at leaf level through another
			// mechanism only if it still has edges outside; it does not.
			if h.IsBorder(id, b) {
				t.Fatalf("node %d not demoted after losing its only outside edge", b)
			}
			verifyInvariants(t, h)
			return
		}
	}
	t.Skip("no single-outside-edge border in fixture")
}

func TestAddEdgeSameLeaf(t *testing.T) {
	h := maintenanceFixture(t, 29)
	g := h.Graph()
	// Pick two nodes inside the same leaf Rnet, not already adjacent.
	leaf := h.AtLevel(h.Levels())[0]
	edges := h.Rnet(leaf).Edges
	if len(edges) < 2 {
		t.Skip("leaf too small")
	}
	u := g.Edge(edges[0]).U
	var v graph.NodeID = graph.NoNode
	for _, e := range edges[1:] {
		cand := g.Edge(e).V
		if cand != u && g.EdgeBetween(u, cand) == graph.NoEdge {
			v = cand
			break
		}
	}
	if v == graph.NoNode {
		t.Skip("no same-leaf non-adjacent pair")
	}
	e, _, err := h.AddEdge(u, v, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if h.LeafOf(e) != leaf {
		t.Fatalf("new edge assigned to leaf %d, want %d", h.LeafOf(e), leaf)
	}
	verifyInvariants(t, h)
}

func TestAddEdgeCrossLeafPromotesBorder(t *testing.T) {
	h := maintenanceFixture(t, 30)
	g := h.Graph()
	// Find two interior (non-border at leaf level) nodes in different
	// leaf Rnets.
	leafLevel := h.Levels()
	interior := func(n graph.NodeID) (RnetID, bool) {
		leaves := h.nodeLeaves(n)
		if len(leaves) != 1 {
			return NoRnet, false
		}
		return leaves[0], !h.IsBorder(leaves[0], n)
	}
	var u, v graph.NodeID = graph.NoNode, graph.NoNode
	var uLeaf RnetID
	for n := 0; n < g.NumNodes() && v == graph.NoNode; n++ {
		nid := graph.NodeID(n)
		leaf, ok := interior(nid)
		if !ok {
			continue
		}
		if u == graph.NoNode {
			u, uLeaf = nid, leaf
			continue
		}
		if leaf != uLeaf && g.EdgeBetween(u, nid) == graph.NoEdge {
			v = nid
		}
	}
	if v == graph.NoNode {
		t.Skip("no suitable interior pair")
	}
	e, _, err := h.AddEdge(u, v, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	host := h.LeafOf(e)
	if host != uLeaf {
		t.Fatalf("cross edge hosted in %d, want u's leaf %d", host, uLeaf)
	}
	// v now has an edge outside its own leaf: promoted to border of both.
	if !h.IsBorder(h.nodeLeaves(v)[0], v) && !h.IsBorder(host, v) {
		t.Fatalf("node %d not promoted to border at leaf level %d", v, leafLevel)
	}
	verifyInvariants(t, h)
}

func TestRandomizedMaintenanceSequence(t *testing.T) {
	// Mixed random updates; invariants verified at the end. This is the
	// failure-injection soak for the maintenance machinery.
	h := maintenanceFixture(t, 31)
	g := h.Graph()
	rng := rand.New(rand.NewSource(5))
	var deleted []graph.EdgeID
	for op := 0; op < 60; op++ {
		switch rng.Intn(4) {
		case 0: // increase
			e := graph.EdgeID(rng.Intn(g.NumEdges()))
			if !g.Edge(e).Removed {
				if _, err := h.SetEdgeWeight(e, g.Weight(e)*(1+rng.Float64()*2)); err != nil {
					t.Fatal(err)
				}
			}
		case 1: // decrease
			e := graph.EdgeID(rng.Intn(g.NumEdges()))
			if !g.Edge(e).Removed {
				if _, err := h.SetEdgeWeight(e, g.Weight(e)*(0.1+rng.Float64()*0.8)); err != nil {
					t.Fatal(err)
				}
			}
		case 2: // delete
			e := graph.EdgeID(rng.Intn(g.NumEdges()))
			if !g.Edge(e).Removed && g.Degree(g.Edge(e).U) > 1 && g.Degree(g.Edge(e).V) > 1 {
				if _, err := h.DeleteEdge(e); err != nil {
					t.Fatal(err)
				}
				deleted = append(deleted, e)
			}
		case 3: // restore
			if len(deleted) > 0 {
				e := deleted[len(deleted)-1]
				deleted = deleted[:len(deleted)-1]
				if _, err := h.RestoreEdge(e); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	verifyInvariants(t, h)
}

func TestTreeInvalidationAfterStructuralChange(t *testing.T) {
	h := maintenanceFixture(t, 32)
	g := h.Graph()
	// Build a tree, delete one of the node's edges, tree must reflect it.
	var n graph.NodeID = graph.NoNode
	for i := 0; i < g.NumNodes(); i++ {
		if g.Degree(graph.NodeID(i)) >= 2 {
			n = graph.NodeID(i)
			break
		}
	}
	if n == graph.NoNode {
		t.Skip("no multi-degree node")
	}
	countEdges := func() int {
		total := 0
		var walk func(tn *TreeNode)
		walk = func(tn *TreeNode) {
			total += len(tn.Edges)
			for _, c := range tn.Children {
				walk(c)
			}
		}
		for _, top := range h.Tree(n) {
			walk(top)
		}
		return total
	}
	before := countEdges()
	e := g.Neighbors(n)[0].Edge
	if _, err := h.DeleteEdge(e); err != nil {
		t.Fatal(err)
	}
	after := countEdges()
	if after != before-1 {
		t.Fatalf("tree edges %d -> %d after delete, want %d", before, after, before-1)
	}
}

// TestWaypointsFollowMaintenance: after every update, every stored
// shortcut still expands (AppendShortcutPath) into a walk over live edges
// whose length is the shortcut's distance. Integer weights make
// equal-length detours common, which is where a refresh that finds the
// distances unchanged must still take the fresh waypoints: the old path
// may have moved onto a heavier or closed edge, or onto a child shortcut
// that a refresh below dropped.
func TestWaypointsFollowMaintenance(t *testing.T) {
	g := testNetwork(t, 400, 520, 17)
	for e := 0; e < g.NumEdges(); e++ {
		g.SetWeight(graph.EdgeID(e), float64(1+e%3))
	}
	h := build(t, g, Config{Fanout: 2, Levels: 4, KLPasses: -1, PruneMaxBorders: 32, StorePaths: true})
	rng := rand.New(rand.NewSource(17))
	check := func(op int) {
		t.Helper()
		for r := RnetID(0); int(r) < h.NumRnets(); r++ {
			for _, b := range h.Rnet(r).Borders {
				for _, sc := range h.ShortcutsFrom(r, b) {
					path, err := h.ExpandShortcut(r, sc)
					if err != nil {
						t.Fatalf("op %d: Rnet %d shortcut %d->%d: %v", op, r, sc.From, sc.To, err)
					}
					var sum float64
					for i := 1; i < len(path); i++ {
						w := math.Inf(1)
						for _, half := range g.Neighbors(path[i-1]) {
							if half.To == path[i] && !g.Edge(half.Edge).Removed {
								w = math.Min(w, g.Weight(half.Edge))
							}
						}
						sum += w
					}
					if math.Abs(sum-sc.Dist) > 1e-9*math.Max(1, sc.Dist) {
						t.Fatalf("op %d: Rnet %d shortcut %d->%d (%g) expands to a %g walk", op, r, sc.From, sc.To, sc.Dist, sum)
					}
				}
			}
		}
	}
	var deleted []graph.EdgeID
	for op := 0; op < 150; op++ {
		e := graph.EdgeID(rng.Intn(g.NumEdges()))
		switch rng.Intn(3) {
		case 0:
			if !g.Edge(e).Removed {
				if _, err := h.SetEdgeWeight(e, float64(1+rng.Intn(3))); err != nil {
					t.Fatal(err)
				}
			}
		case 1:
			if !g.Edge(e).Removed {
				if _, err := h.DeleteEdge(e); err != nil {
					t.Fatal(err)
				}
				deleted = append(deleted, e)
			}
		case 2:
			if len(deleted) > 0 {
				i := rng.Intn(len(deleted))
				if _, err := h.RestoreEdge(deleted[i]); err != nil {
					t.Fatal(err)
				}
				deleted = append(deleted[:i], deleted[i+1:]...)
			}
		}
		check(op)
	}
}

// TestPinMatchesPinnedBuild: pinning a built hierarchy recomputes exactly
// what building it with the pins would have computed, a second pin of the
// same nodes recomputes nothing, and topology maintenance keeps pinned
// nodes pinned — every step checked against the shortcut oracle and a
// fresh derivation.
func TestPinMatchesPinnedBuild(t *testing.T) {
	cfg := Config{Fanout: 2, Levels: 3, KLPasses: -1, PruneMaxBorders: 0}
	g := testNetwork(t, 250, 290, 33)
	rng := rand.New(rand.NewSource(33))
	var pins []graph.NodeID
	for len(pins) < 25 {
		pins = append(pins, graph.NodeID(rng.Intn(g.NumNodes())))
	}
	want, err := BuildPinned(g.Clone(), cfg, pins)
	if err != nil {
		t.Fatal(err)
	}
	h := build(t, g, cfg)
	before := h.BorderCount()
	gen := h.TopoGen()
	res := h.Pin(pins)
	if len(res.RecomputedRnets) == 0 || h.BorderCount() <= before || h.TopoGen() == gen {
		t.Fatalf("pin recomputed %d Rnets, borders %d -> %d, generation %d -> %d", len(res.RecomputedRnets), before, h.BorderCount(), gen, h.TopoGen())
	}
	for r := 0; r < h.NumRnets(); r++ {
		id := RnetID(r)
		if !slices.Equal(h.Rnet(id).Borders, want.Rnet(id).Borders) {
			t.Fatalf("Rnet %d: pinned borders %v, pinned build %v", r, h.Rnet(id).Borders, want.Rnet(id).Borders)
		}
		if !shortcutSetsEqual(h.shortcuts[r], want.shortcuts[r]) {
			t.Fatalf("Rnet %d: pinned shortcuts differ from the pinned build's", r)
		}
	}
	for _, n := range pins {
		for _, half := range g.Neighbors(n) {
			for r := h.LeafOf(half.Edge); r != NoRnet; r = h.Rnet(r).Parent {
				if !h.IsBorder(r, n) {
					t.Fatalf("pinned node %d interior to level-%d Rnet %d", n, h.Rnet(r).Level, r)
				}
			}
		}
	}
	verifyInvariants(t, h)
	if res := h.Pin(pins); len(res.RecomputedRnets) != 0 {
		t.Fatalf("second pin recomputed %v", res.RecomputedRnets)
	}

	// Close, reopen and add roads at the pins.
	for _, n := range pins[:10] {
		nb := g.Neighbors(n)
		if len(nb) == 0 {
			continue
		}
		e := nb[0].Edge
		if _, err := h.DeleteEdge(e); err != nil {
			t.Fatal(err)
		}
		if _, err := h.RestoreEdge(e); err != nil {
			t.Fatal(err)
		}
		v := graph.NodeID(rng.Intn(g.NumNodes()))
		if v != n {
			if _, _, err := h.AddEdge(n, v, 0.5+rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
	}
	verifyInvariants(t, h)
	if err := h.CheckFresh(); err != nil {
		t.Fatal(err)
	}
}
