package rnet

import (
	"math/rand"
	"testing"

	"road/internal/graph"
)

// assertFlatMatchesPointerTree compares node n's flat tree with its
// freshly built pointer tree popped in stack order — top-level entries
// and children last-first, edges in order — entry by entry, skip
// pointers and leaf edges included.
func assertFlatMatchesPointerTree(t *testing.T, h *Hierarchy, ft *FlatTree, n graph.NodeID) {
	t.Helper()
	h.FlattenTree(n, ft)
	i := 0
	var walk func(tn *TreeNode)
	walk = func(tn *TreeNode) {
		if i >= len(ft.Ents) {
			t.Fatalf("node %d: flat tree ends at %d entries, pointer tree has more", n, i)
		}
		fe := ft.Ents[i]
		i++
		if fe.Rnet != tn.Rnet || fe.IsBorder != tn.IsBorder || fe.Leaf != (len(tn.Children) == 0) {
			t.Fatalf("node %d entry %d: flat %+v, pointer tree Rnet %d border %v children %d",
				n, i-1, fe, tn.Rnet, tn.IsBorder, len(tn.Children))
		}
		edges := ft.Edges[fe.EdgeOff:fe.EdgeEnd]
		if len(edges) != len(tn.Edges) {
			t.Fatalf("node %d entry %d: %d flat edges, %d in the pointer tree", n, i-1, len(edges), len(tn.Edges))
		}
		for j := range edges {
			if edges[j] != tn.Edges[j] {
				t.Fatalf("node %d entry %d edge %d: flat %+v, pointer tree %+v", n, i-1, j, edges[j], tn.Edges[j])
			}
		}
		for c := len(tn.Children) - 1; c >= 0; c-- {
			walk(tn.Children[c])
		}
		if int(fe.Skip) != i {
			t.Fatalf("node %d entry: skip %d, subtree ends at %d", n, fe.Skip, i)
		}
	}
	tops := h.buildTree(n).Children
	for c := len(tops) - 1; c >= 0; c-- {
		walk(tops[c])
	}
	if i != len(ft.Ents) {
		t.Fatalf("node %d: flat tree has %d entries, pointer tree %d", n, len(ft.Ents), i)
	}
}

// TestFlattenTreeMatchesPointerTree holds the flat builder to the pointer
// tree for every node, on a fresh hierarchy and across incidence changes.
func TestFlattenTreeMatchesPointerTree(t *testing.T) {
	g := testNetwork(t, 600, 760, 13)
	h := build(t, g, Config{Fanout: 4, Levels: 3, KLPasses: -1, PruneMaxBorders: 32})
	var ft FlatTree
	checkAll := func() {
		for n := 0; n < g.NumNodes(); n++ {
			assertFlatMatchesPointerTree(t, h, &ft, graph.NodeID(n))
		}
	}
	checkAll()
	rng := rand.New(rand.NewSource(13))
	var closed []graph.EdgeID
	for op := 0; op < 30; op++ {
		switch rng.Intn(3) {
		case 0:
			e := graph.EdgeID(rng.Intn(g.NumEdges()))
			if _, err := h.DeleteEdge(e); err == nil {
				closed = append(closed, e)
			}
		case 1:
			if len(closed) > 0 {
				_, _ = h.RestoreEdge(closed[len(closed)-1])
				closed = closed[:len(closed)-1]
			}
		case 2:
			u, v := graph.NodeID(rng.Intn(g.NumNodes())), graph.NodeID(rng.Intn(g.NumNodes()))
			_, _, _ = h.AddEdge(u, v, 1+50*rng.Float64())
		}
	}
	checkAll()
	if n := h.CachedTrees(); n != 0 {
		t.Fatalf("flattening and sizing cached %d pointer trees; want none", n)
	}
}

// TestFlattenTreeAllocs: with warm scratch the flat builder allocates
// nothing.
func TestFlattenTreeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	g := testNetwork(t, 600, 760, 13)
	h := build(t, g, Config{Fanout: 4, Levels: 3, KLPasses: -1, PruneMaxBorders: 32})
	var ft FlatTree
	for n := 0; n < g.NumNodes(); n++ {
		h.FlattenTree(graph.NodeID(n), &ft) // grow the scratch to the widest node
	}
	allocs := testing.AllocsPerRun(5, func() {
		for n := 0; n < g.NumNodes(); n++ {
			h.FlattenTree(graph.NodeID(n), &ft)
		}
	})
	if allocs != 0 {
		t.Fatalf("flattening every node allocates %v; want 0", allocs)
	}
}
