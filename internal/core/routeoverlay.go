package core

import (
	"road/internal/btree"
	"road/internal/graph"
	"road/internal/rnet"
	"road/internal/storage"
)

// RouteOverlay is the network-side index (§3.4): a B+-tree keyed by node
// ID whose leaf entries lead to each node's shortcut tree — the flattened
// representation of the Rnet hierarchy that lets a traversal switch
// between physical edges and shortcuts without ever leaving one structure.
// The shortcut data live in the Hierarchy; the trees are held only as the
// CSR slabs (csr.go), which the overlay builds with itself. RouteOverlay
// adds the paged-index simulation so report-mode queries are charged
// realistic I/O.
type RouteOverlay struct {
	h      *rnet.Hierarchy
	csr    *csrBox
	index  *btree.Tree[int32]
	layout *storage.Layout
	store  *storage.Store
	// order is the Hilbert/CCAM record clustering order node entries were
	// laid out in. Cached so snapshots export it without re-ranking every
	// coordinate under the serving layer's write lock.
	order []graph.NodeID
}

// NewRouteOverlay wraps hierarchy h and flattens every node's shortcut
// tree into the CSR slabs; store may be nil to skip I/O simulation. Node
// records are laid out in Hilbert order (CCAM-style clustering [18]) sized
// by shortcut-tree and shortcut payload.
func NewRouteOverlay(h *rnet.Hierarchy, store *storage.Store) *RouteOverlay {
	ro := &RouteOverlay{
		h:     h,
		csr:   newCSRBox(h),
		index: btree.New[int32](btree.DefaultOrder),
		store: store,
	}
	c := ro.csr.idx
	if store != nil {
		ro.layout = storage.NewLayout(store)
		ro.index.OnAccess = func(id int64) { store.Read(roIndexPageBase - storage.PageID(id)) }
	}
	g := h.Graph()
	ro.order = storage.ClusterNodes(g)
	for _, n := range ro.order {
		ro.index.Put(int64(n), 0)
		if ro.layout != nil {
			ro.layout.Place(int64(n), ro.nodeRecordSize(c, n))
			ro.layout.Write(int64(n))
		}
	}
	return ro
}

// nodeRecordSize estimates the stored size of node n's entry: its shortcut
// tree plus all shortcuts departing n, read off n's slab in c.
func (ro *RouteOverlay) nodeRecordSize(c *csrIndex, n graph.NodeID) int {
	size := c.treeSizeBytes(n)
	sp := c.span[n]
	for i := sp.start; i < sp.end; i++ {
		if e := &c.ents[i]; e.flags&csrBorder != 0 {
			for _, sc := range ro.h.ShortcutsFrom(e.rnet, n) {
				size += 16 + 4*len(sc.Via)
			}
		}
	}
	return size
}

// Visit charges the I/O of loading node n's entry (B+-tree descent plus
// the shortcut-tree record) and returns the node's shortcut tree.
func (ro *RouteOverlay) Visit(n graph.NodeID) []*rnet.TreeNode {
	ro.index.Get(int64(n))
	if ro.layout != nil {
		ro.layout.Read(int64(n))
	}
	return ro.h.Tree(n)
}

// SizeBytes estimates the Route Overlay's storage footprint: the
// hierarchy's Rnet/shortcut data plus per-node shortcut-tree records,
// counted off the CSR slabs.
func (ro *RouteOverlay) SizeBytes() int64 {
	return ro.h.SizeBytes() + ro.ensureCSR().treeBytes(ro.h.Graph().NumNodes())
}
