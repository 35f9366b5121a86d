package rnet

import (
	"sort"

	"road/internal/graph"
)

// TreeNode is one entry of a node's shortcut tree (§3.4, Figure 6). For a
// node n, the tree nests the Rnets containing n's incident edges from
// level 1 down to the leaf level: an entry for Rnet R carries whether n is
// a border of R (and therefore has shortcuts across R, fetched live via
// Hierarchy.ShortcutsFrom), the child entries one level down, and — at the
// leaf level — the physical edges of n inside that leaf Rnet.
type TreeNode struct {
	Rnet     RnetID
	Level    int
	IsBorder bool
	Children []*TreeNode
	Edges    []graph.Half // leaf level only: n's edges inside this leaf Rnet
}

// Tree returns node n's shortcut tree, building and caching it on demand.
// The returned slice holds the top-level (level-1) entries. A node with no
// live edges has an empty tree.
func (h *Hierarchy) Tree(n graph.NodeID) []*TreeNode {
	if h.trees[n] != nil {
		return h.trees[n].Children
	}
	root := h.buildTree(n)
	h.trees[n] = root
	return root.Children
}

// InvalidateTree drops the cached tree of n (after incidence or border
// changes) and logs n dirty, so whoever drains the log re-materializes it.
func (h *Hierarchy) InvalidateTree(n graph.NodeID) {
	h.trees[n] = nil
	h.markDirty(n)
}

// buildTree assembles the shortcut tree of n from its incident edges'
// ancestor chains. The virtual root has Level 0 and Rnet NoRnet.
func (h *Hierarchy) buildTree(n graph.NodeID) *TreeNode {
	root := &TreeNode{Rnet: NoRnet, Level: 0}
	// Group incident edges by their Rnet at each level, nesting as we go.
	for _, half := range h.g.Neighbors(n) {
		leaf := h.LeafOf(half.Edge)
		if leaf == NoRnet {
			continue
		}
		cur := root
		for level := 1; level <= h.cfg.Levels; level++ {
			r := h.AncestorAt(leaf, level)
			cur = cur.childFor(r, level)
			cur.IsBorder = h.isBorder[r][n]
		}
		cur.Edges = append(cur.Edges, half)
	}
	sortTree(root)
	return root
}

// childFor finds or creates the child entry for Rnet r.
func (t *TreeNode) childFor(r RnetID, level int) *TreeNode {
	for _, c := range t.Children {
		if c.Rnet == r {
			return c
		}
	}
	c := &TreeNode{Rnet: r, Level: level}
	t.Children = append(t.Children, c)
	return c
}

// sortTree orders children by Rnet ID and edges by edge ID so traversal
// order — and therefore every query answer — is deterministic.
func sortTree(t *TreeNode) {
	sort.Slice(t.Children, func(i, j int) bool { return t.Children[i].Rnet < t.Children[j].Rnet })
	sort.Slice(t.Edges, func(i, j int) bool { return t.Edges[i].Edge < t.Edges[j].Edge })
	for _, c := range t.Children {
		sortTree(c)
	}
}

// TreeSizeBytes estimates the storage footprint of node n's shortcut tree
// record (entries plus edge references), for the index-size metric.
func (h *Hierarchy) TreeSizeBytes(n graph.NodeID) int {
	var walk func(t *TreeNode) int
	walk = func(t *TreeNode) int {
		size := 12 + 8*len(t.Edges) // rnet id + flags + (edge,node) pairs
		for _, c := range t.Children {
			size += walk(c)
		}
		return size
	}
	size := 0
	for _, c := range h.Tree(n) {
		size += walk(c)
	}
	if size == 0 {
		size = 4
	}
	return size
}
