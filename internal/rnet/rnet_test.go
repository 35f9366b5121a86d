package rnet

import (
	"math"
	"math/rand"
	"testing"

	"road/internal/dataset"
	"road/internal/graph"
)

func testNetwork(t testing.TB, nodes, edges int, seed int64) *graph.Graph {
	t.Helper()
	return dataset.MustGenerate(dataset.Spec{Name: "t", Nodes: nodes, Edges: edges, Seed: seed})
}

func build(t testing.TB, g *graph.Graph, cfg Config) *Hierarchy {
	t.Helper()
	h, err := Build(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestBuildRejectsBadConfig(t *testing.T) {
	g := testNetwork(t, 50, 60, 1)
	if _, err := Build(g, Config{Fanout: 3, Levels: 2}); err == nil {
		t.Fatal("non-power-of-two fanout accepted")
	}
	if _, err := Build(g, Config{Fanout: 4, Levels: 0}); err == nil {
		t.Fatal("zero levels accepted")
	}
}

func TestHierarchyStructure(t *testing.T) {
	g := testNetwork(t, 500, 570, 2)
	h := build(t, g, Config{Fanout: 4, Levels: 3, KLPasses: -1})
	// Rnet counts per level: 4, 16, 64.
	want := 4
	for level := 1; level <= 3; level++ {
		if got := len(h.AtLevel(level)); got != want {
			t.Fatalf("level %d has %d Rnets, want %d", level, got, want)
		}
		want *= 4
	}
	if h.NumRnets() != 4+16+64 {
		t.Fatalf("NumRnets = %d", h.NumRnets())
	}
	// Parent/child links are mutually consistent.
	for i := 0; i < h.NumRnets(); i++ {
		r := h.Rnet(RnetID(i))
		for _, c := range r.Children {
			if h.Rnet(c).Parent != r.ID {
				t.Fatalf("child %d of %d has parent %d", c, r.ID, h.Rnet(c).Parent)
			}
			if h.Rnet(c).Level != r.Level+1 {
				t.Fatalf("child level mismatch")
			}
		}
		if r.Level == 1 && r.Parent != NoRnet {
			t.Fatalf("level-1 Rnet %d has parent %d", r.ID, r.Parent)
		}
	}
}

func TestLeafEdgesPartitionNetwork(t *testing.T) {
	// Definition 4: leaf edge sets are disjoint and cover every edge.
	g := testNetwork(t, 600, 690, 3)
	h := build(t, g, Config{Fanout: 4, Levels: 3, KLPasses: -1})
	seen := make(map[graph.EdgeID]RnetID)
	for _, id := range h.AtLevel(3) {
		for _, e := range h.Rnet(id).Edges {
			if prev, dup := seen[e]; dup {
				t.Fatalf("edge %d in leaf Rnets %d and %d", e, prev, id)
			}
			seen[e] = id
			if h.LeafOf(e) != id {
				t.Fatalf("LeafOf(%d) = %d, want %d", e, h.LeafOf(e), id)
			}
		}
	}
	if len(seen) != g.NumEdges() {
		t.Fatalf("leaves cover %d edges, want %d", len(seen), g.NumEdges())
	}
}

func TestBordersMatchDefinition(t *testing.T) {
	// A node is a border of Rnet R iff it has incident edges inside and
	// outside R (Definition 1), for every level.
	g := testNetwork(t, 400, 460, 4)
	h := build(t, g, Config{Fanout: 2, Levels: 3, KLPasses: -1})
	for level := 1; level <= 3; level++ {
		for _, id := range h.AtLevel(level) {
			inSet := make(map[graph.NodeID]bool)
			outSet := make(map[graph.NodeID]bool)
			for e := 0; e < g.NumEdges(); e++ {
				leaf := h.LeafOf(graph.EdgeID(e))
				ed := g.Edge(graph.EdgeID(e))
				if h.AncestorAt(leaf, level) == id {
					inSet[ed.U] = true
					inSet[ed.V] = true
				} else {
					outSet[ed.U] = true
					outSet[ed.V] = true
				}
			}
			for n := 0; n < g.NumNodes(); n++ {
				nid := graph.NodeID(n)
				want := inSet[nid] && outSet[nid]
				if got := h.IsBorder(id, nid); got != want {
					t.Fatalf("level %d Rnet %d node %d: IsBorder=%v want %v", level, id, n, got, want)
				}
			}
			// Borders slice matches the membership map.
			for _, b := range h.Rnet(id).Borders {
				if !h.IsBorder(id, b) {
					t.Fatalf("border list of %d contains non-border %d", id, b)
				}
			}
		}
	}
}

func TestBordersOfParentAreBordersOfChildren(t *testing.T) {
	// Definition 4(3): every border of a parent Rnet is a border of one of
	// its children.
	g := testNetwork(t, 500, 560, 5)
	h := build(t, g, Config{Fanout: 4, Levels: 3, KLPasses: -1})
	for level := 1; level < 3; level++ {
		for _, id := range h.AtLevel(level) {
			r := h.Rnet(id)
			for _, b := range r.Borders {
				found := false
				for _, c := range r.Children {
					if h.IsBorder(c, b) {
						found = true
						break
					}
				}
				if !found {
					t.Fatalf("border %d of level-%d Rnet %d is border of no child", b, level, id)
				}
			}
		}
	}
}

// shortcutOracleDist computes the within-Rnet shortest distance between two
// nodes using a fresh Dijkstra restricted to the Rnet's edge set.
func shortcutOracleDist(h *Hierarchy, g *graph.Graph, r RnetID, from, to graph.NodeID) float64 {
	s := graph.NewSearch(g)
	level := h.Rnet(r).Level
	s.Run(from, graph.Options{
		Filter: func(e graph.EdgeID) bool {
			leaf := h.LeafOf(e)
			return leaf != NoRnet && h.AncestorAt(leaf, level) == r
		},
		Targets: []graph.NodeID{to},
	})
	return s.Dist(to)
}

func TestShortcutDistancesMatchRestrictedDijkstra(t *testing.T) {
	// Core invariant: every stored shortcut's distance equals the true
	// shortest-path distance within its Rnet's sub-network — at every
	// level, even though upper levels are computed from child overlays
	// (Lemma 2).
	g := testNetwork(t, 700, 800, 6)
	h := build(t, g, Config{Fanout: 4, Levels: 3, KLPasses: -1, PruneMaxBorders: 0})
	rng := rand.New(rand.NewSource(1))
	checked := 0
	for level := 1; level <= 3; level++ {
		for _, id := range h.AtLevel(level) {
			for _, b := range h.Rnet(id).Borders {
				scs := h.ShortcutsFrom(id, b)
				for _, sc := range scs {
					if rng.Intn(10) != 0 { // sample to keep runtime bounded
						continue
					}
					want := shortcutOracleDist(h, g, id, sc.From, sc.To)
					if math.Abs(want-sc.Dist) > 1e-9*math.Max(1, want) {
						t.Fatalf("level %d Rnet %d shortcut %d->%d: dist %g, oracle %g",
							level, id, sc.From, sc.To, sc.Dist, want)
					}
					checked++
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no shortcuts sampled; test vacuous")
	}
}

func TestShortcutsCoverConnectedBorderPairs(t *testing.T) {
	// Without pruning, every pair of borders connected within the Rnet
	// must have a shortcut.
	g := testNetwork(t, 300, 340, 7)
	h := build(t, g, Config{Fanout: 4, Levels: 2, KLPasses: -1, PruneMaxBorders: 0})
	for level := 1; level <= 2; level++ {
		for _, id := range h.AtLevel(level) {
			borders := h.Rnet(id).Borders
			for _, b := range borders {
				for _, b2 := range borders {
					if b == b2 {
						continue
					}
					d := shortcutOracleDist(h, g, id, b, b2)
					if math.IsInf(d, 1) {
						continue
					}
					if !hasShortcut(h.shortcuts[id], b, b2) {
						t.Fatalf("missing shortcut %d->%d in Rnet %d (dist %g)", b, b2, id, d)
					}
				}
			}
		}
	}
}

func TestPrunedShortcutsPreserveDistances(t *testing.T) {
	// Lemma 4: after pruning, every border pair's distance is still
	// realized by a chain of retained shortcuts.
	g := testNetwork(t, 300, 340, 8)
	full := build(t, g, Config{Fanout: 4, Levels: 2, KLPasses: -1, PruneMaxBorders: 0})
	pruned := build(t, g, Config{Fanout: 4, Levels: 2, KLPasses: -1, PruneMaxBorders: 1 << 30})
	if pruned.ShortcutCount() > full.ShortcutCount() {
		t.Fatalf("pruning increased shortcuts: %d -> %d", full.ShortcutCount(), pruned.ShortcutCount())
	}
	for level := 1; level <= 2; level++ {
		for _, id := range pruned.AtLevel(level) {
			borders := pruned.Rnet(id).Borders
			// All-pairs over retained shortcuts via Floyd-like relaxation
			// through Dijkstra on the retained set.
			adj := make(map[graph.NodeID][]overlayArc)
			for from, scs := range pruned.shortcuts[id] {
				for _, sc := range scs {
					adj[from] = append(adj[from], overlayArc{to: sc.To, dist: sc.Dist})
				}
			}
			targets := make(map[graph.NodeID]bool)
			for _, b := range borders {
				targets[b] = true
			}
			for _, b := range borders {
				dist, _ := overlayDijkstra(adj, b, targets)
				for _, sc := range full.shortcuts[id][b] {
					got, ok := dist[sc.To]
					if !ok {
						t.Fatalf("Rnet %d: retained set disconnects %d->%d", id, b, sc.To)
					}
					if math.Abs(got-sc.Dist) > 1e-9*math.Max(1, sc.Dist) {
						t.Fatalf("Rnet %d: retained dist %d->%d = %g, full %g", id, b, sc.To, got, sc.Dist)
					}
				}
			}
		}
	}
}

func TestShortcutTreeShape(t *testing.T) {
	g := testNetwork(t, 400, 460, 9)
	h := build(t, g, Config{Fanout: 4, Levels: 3, KLPasses: -1})
	for n := 0; n < g.NumNodes(); n++ {
		nid := graph.NodeID(n)
		tree := h.Tree(nid)
		// Collect edges at tree leaves; must equal the node's adjacency.
		got := make(map[graph.EdgeID]bool)
		var walk func(tn *TreeNode)
		walk = func(tn *TreeNode) {
			if tn.Level == h.Levels() {
				if len(tn.Children) != 0 {
					t.Fatalf("leaf-level entry has children")
				}
				for _, half := range tn.Edges {
					got[half.Edge] = true
				}
				return
			}
			if len(tn.Edges) != 0 {
				t.Fatalf("non-leaf entry carries edges")
			}
			for _, c := range tn.Children {
				walk(c)
			}
		}
		for _, top := range tree {
			if top.Level != 1 {
				t.Fatalf("top entry at level %d", top.Level)
			}
			walk(top)
		}
		want := make(map[graph.EdgeID]bool)
		for _, half := range g.Neighbors(nid) {
			want[half.Edge] = true
		}
		if len(got) != len(want) {
			t.Fatalf("node %d: tree covers %d edges, adjacency has %d", n, len(got), len(want))
		}
		for e := range want {
			if !got[e] {
				t.Fatalf("node %d: edge %d missing from tree", n, e)
			}
		}
		// IsBorder flags must match hierarchy membership.
		var check func(tn *TreeNode)
		check = func(tn *TreeNode) {
			if tn.IsBorder != h.IsBorder(tn.Rnet, nid) {
				t.Fatalf("node %d Rnet %d: tree IsBorder=%v, hierarchy %v",
					n, tn.Rnet, tn.IsBorder, h.IsBorder(tn.Rnet, nid))
			}
			for _, c := range tn.Children {
				check(c)
			}
		}
		for _, top := range tree {
			check(top)
		}
	}
}

func TestTreeBranchingMatchesBorderLevels(t *testing.T) {
	// A node that is a border at level i must have ≥ 2 entries at level i.
	g := testNetwork(t, 300, 340, 10)
	h := build(t, g, Config{Fanout: 2, Levels: 3, KLPasses: -1})
	for n := 0; n < g.NumNodes(); n++ {
		nid := graph.NodeID(n)
		level := h.Tree(nid)
		for lv := 1; lv <= 3; lv++ {
			isBorderAtLevel := false
			for _, r := range h.AtLevel(lv) {
				if h.IsBorder(r, nid) {
					isBorderAtLevel = true
					break
				}
			}
			// A border at level lv has edges in ≥ 2 distinct level-lv
			// Rnets, so the tree holds ≥ 2 entries at that depth overall.
			if isBorderAtLevel && len(level) < 2 {
				t.Fatalf("node %d border at level %d but tree has %d entries there", n, lv, len(level))
			}
			var next []*TreeNode
			for _, e := range level {
				next = append(next, e.Children...)
			}
			level = next
		}
	}
}

func TestAncestorHelpers(t *testing.T) {
	g := testNetwork(t, 200, 230, 11)
	h := build(t, g, Config{Fanout: 4, Levels: 3, KLPasses: -1})
	leaf := h.AtLevel(3)[7]
	chain := h.AncestorChain(leaf)
	if len(chain) != 3 {
		t.Fatalf("chain length = %d, want 3", len(chain))
	}
	if chain[0] != leaf {
		t.Fatal("chain does not start at leaf")
	}
	for i := 1; i < len(chain); i++ {
		if h.Rnet(chain[i]).Level != h.Rnet(chain[i-1]).Level-1 {
			t.Fatal("chain levels not decreasing")
		}
	}
	if h.AncestorAt(leaf, 1) != chain[2] {
		t.Fatal("AncestorAt(leaf,1) mismatch")
	}
	if h.AncestorAt(leaf, 3) != leaf {
		t.Fatal("AncestorAt(leaf,3) should be identity")
	}
}

func TestSizeAndCountStats(t *testing.T) {
	g := testNetwork(t, 300, 340, 12)
	h := build(t, g, Config{Fanout: 4, Levels: 2, KLPasses: -1})
	if h.ShortcutCount() <= 0 {
		t.Fatal("no shortcuts built")
	}
	if h.BorderCount() <= 0 {
		t.Fatal("no borders")
	}
	if h.SizeBytes() <= 0 {
		t.Fatal("SizeBytes = 0")
	}
	if h.TreeSizeBytes(0) <= 0 {
		t.Fatal("TreeSizeBytes = 0")
	}
}

func TestDefaultConfig(t *testing.T) {
	small := DefaultConfig(21048)
	if small.Levels != 4 || small.Fanout != 4 {
		t.Fatalf("small config = %+v", small)
	}
	big := DefaultConfig(175813)
	if big.Levels != 8 {
		t.Fatalf("big config levels = %d", big.Levels)
	}
}

func TestStorePathsViaWaypoints(t *testing.T) {
	g := testNetwork(t, 300, 340, 13)
	h := build(t, g, Config{Fanout: 4, Levels: 2, KLPasses: -1, StorePaths: true, PruneMaxBorders: 0})
	s := graph.NewSearch(g)
	// Leaf-level Via chains must be real paths with matching length.
	for _, id := range h.AtLevel(2) {
		for _, b := range h.Rnet(id).Borders {
			for _, sc := range h.ShortcutsFrom(id, b) {
				nodes := append([]graph.NodeID{sc.From}, sc.Via...)
				nodes = append(nodes, sc.To)
				var total float64
				ok := true
				for i := 1; i < len(nodes); i++ {
					e := g.EdgeBetween(nodes[i-1], nodes[i])
					if e == graph.NoEdge {
						ok = false
						break
					}
					total += g.Weight(e)
				}
				if !ok {
					continue // upper-level via chains are border sequences, skip
				}
				if math.Abs(total-sc.Dist) > 1e-9*math.Max(1, sc.Dist) {
					want := s.ShortestDist(sc.From, sc.To)
					t.Fatalf("via path length %g != shortcut dist %g (true %g)", total, sc.Dist, want)
				}
			}
		}
	}
}

// TestDefaultConfigValidates: the default shape passes the depth check on
// networks of every size, below and above the 50k-node switch to 8
// levels.
func TestDefaultConfigValidates(t *testing.T) {
	for _, n := range []int{0, 2, 100, 21048, 49999, 50000, 175813, 1 << 22} {
		if err := DefaultConfig(n).Validate(n); err != nil {
			t.Errorf("DefaultConfig(%d): %v", n, err)
		}
	}
}
