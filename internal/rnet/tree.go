package rnet

import (
	"slices"
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

// Tree returns node n's shortcut tree as pointer entries, building and
// caching it on demand. Only the reference traversal (report mode and the
// differential oracle) reads this form, so the cache fills lazily as that
// path visits nodes; serving keeps the flat form (FlattenTree) instead.
// The returned slice holds the top-level (level-1) entries. A node with no
// live edges has an empty tree.
func (h *Hierarchy) Tree(n graph.NodeID) []*TreeNode {
	if int(n) >= len(h.trees) {
		h.trees = append(h.trees, make([]*TreeNode, h.g.NumNodes()-len(h.trees))...)
	}
	if h.trees[n] == nil {
		h.trees[n] = h.buildTree(n)
	}
	return h.trees[n].Children
}

// CachedTrees counts the pointer trees Tree currently holds, so tests can
// check that serving leaves the cache empty.
func (h *Hierarchy) CachedTrees() int {
	count := 0
	for _, t := range h.trees {
		if t != nil {
			count++
		}
	}
	return count
}

// InvalidateTree drops the cached tree of n (after incidence or border
// changes) and logs n dirty, so whoever drains the log re-flattens it.
func (h *Hierarchy) InvalidateTree(n graph.NodeID) {
	if int(n) < len(h.trees) {
		h.trees[n] = nil
	}
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

// Stored sizes of a shortcut-tree record, for the index-size metric: an
// entry (rnet id + flags), a leaf edge ((edge,node) pair), and the record
// of a node with no entries.
const (
	TreeEntryBytes = 12
	TreeEdgeBytes  = 8
	EmptyTreeBytes = 4
)

// TreeSizeBytes is the storage footprint of node n's shortcut tree record
// (entries plus edge references), computed over a freshly built pointer
// tree and caching nothing. core reads the same figure off the node's
// flat slab; this is the definition tests hold that reading to.
func (h *Hierarchy) TreeSizeBytes(n graph.NodeID) int {
	var walk func(t *TreeNode) int
	walk = func(t *TreeNode) int {
		size := TreeEntryBytes + TreeEdgeBytes*len(t.Edges)
		for _, c := range t.Children {
			size += walk(c)
		}
		return size
	}
	size := 0
	for _, c := range h.buildTree(n).Children {
		size += walk(c)
	}
	if size == 0 {
		size = EmptyTreeBytes
	}
	return size
}

// FlatTree is one node's shortcut tree in flat form: the entries of the
// pointer tree Tree builds, in the order a stack traversal of it pops them
// — preorder with children, and the top-level entries, in descending Rnet
// order — and each leaf entry's edges in ascending edge order. It is
// caller-owned scratch: FlattenTree overwrites it and reuses its arrays,
// so a warm FlatTree is filled without allocating.
type FlatTree struct {
	Ents  []FlatEntry
	Edges []graph.Half // leaf edges, each leaf entry's contiguous and in entry order

	chains []RnetID // per edge in Edges: its Rnet at levels 1..Levels (the sort key)
	open   []int32  // per level: the entry whose subtree is still being written
}

// FlatEntry is one entry of a FlatTree.
type FlatEntry struct {
	Rnet     RnetID
	IsBorder bool
	// Leaf marks a leaf-level entry: it has edges and no children. Any
	// other entry's first child is the entry after it.
	Leaf bool
	// Skip is the index in Ents just past this entry's subtree.
	Skip int32
	// EdgeOff and EdgeEnd delimit a leaf entry's edges in Edges.
	EdgeOff, EdgeEnd int32
}

// FlattenTree writes node n's shortcut tree into t. Sorting n's incident
// edges by their ancestor chains (descending Rnet at every level, then
// ascending edge ID) lines them up in traversal order, so one pass opens
// an entry wherever an edge's chain leaves the previous edge's and closes
// the entries it left.
func (h *Hierarchy) FlattenTree(n graph.NodeID, t *FlatTree) {
	levels := h.cfg.Levels
	t.Ents, t.Edges, t.chains = t.Ents[:0], t.Edges[:0], t.chains[:0]
	for _, half := range h.g.Neighbors(n) {
		r := h.LeafOf(half.Edge)
		if r == NoRnet {
			continue
		}
		t.Edges = append(t.Edges, half)
		base := len(t.chains)
		t.chains = append(t.chains, make([]RnetID, levels)...)
		for level := levels; level >= 1; level-- {
			r = h.AncestorAt(r, level)
			t.chains[base+level-1] = r
		}
	}
	sort.Sort((*byChain)(t))

	if cap(t.open) < levels {
		t.open = make([]int32, levels)
	}
	open := t.open[:levels]
	for i := range t.Edges {
		chain := t.chains[i*levels : (i+1)*levels]
		from := 0 // first level where this edge's chain leaves the previous one's
		if i > 0 {
			prev := t.chains[(i-1)*levels : i*levels]
			for from < levels && chain[from] == prev[from] {
				from++
			}
			for level := from; level < levels; level++ {
				t.Ents[open[level]].Skip = int32(len(t.Ents))
			}
		}
		for level := from; level < levels; level++ {
			r := chain[level]
			open[level] = int32(len(t.Ents))
			t.Ents = append(t.Ents, FlatEntry{Rnet: r, IsBorder: slices.Contains(h.borderRnetsOf[n], r)})
		}
		leaf := &t.Ents[open[levels-1]]
		if !leaf.Leaf {
			leaf.Leaf, leaf.EdgeOff = true, int32(i)
		}
		leaf.EdgeEnd = int32(i + 1)
	}
	if len(t.Edges) > 0 {
		for _, e := range open {
			t.Ents[e].Skip = int32(len(t.Ents))
		}
	}
}

// byChain sorts a FlatTree's edges into traversal order (see FlattenTree).
type byChain FlatTree

func (t *byChain) Len() int { return len(t.Edges) }

func (t *byChain) Less(i, j int) bool {
	levels := len(t.chains) / len(t.Edges)
	a, b := t.chains[i*levels:(i+1)*levels], t.chains[j*levels:(j+1)*levels]
	for level := range a {
		if a[level] != b[level] {
			return a[level] > b[level]
		}
	}
	return t.Edges[i].Edge < t.Edges[j].Edge
}

func (t *byChain) Swap(i, j int) {
	t.Edges[i], t.Edges[j] = t.Edges[j], t.Edges[i]
	levels := len(t.chains) / len(t.Edges)
	a, b := t.chains[i*levels:(i+1)*levels], t.chains[j*levels:(j+1)*levels]
	for level := range a {
		a[level], b[level] = b[level], a[level]
	}
}
