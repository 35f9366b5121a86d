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
// CSR slabs (csr.go), which the overlay builds with itself. The paged
// B+-tree and the record layout exist only over a simulated page store,
// so that report-mode queries are charged realistic I/O; without a store
// the overlay is the slabs alone.
type RouteOverlay struct {
	h      *rnet.Hierarchy
	csr    *csrBox
	index  *btree.Tree[int32]
	layout *storage.Layout
}

// NewRouteOverlay wraps hierarchy h and flattens every node's shortcut
// tree into the CSR slabs. With a store (nil skips I/O simulation), node
// records are also laid out in Hilbert order (CCAM-style clustering [18])
// sized by shortcut-tree and shortcut payload, behind a paged B+-tree.
func NewRouteOverlay(h *rnet.Hierarchy, store *storage.Store) *RouteOverlay {
	ro := &RouteOverlay{h: h, csr: newCSRBox(h)}
	if store == nil {
		return ro
	}
	ro.index = btree.New[int32](btree.DefaultOrder)
	ro.layout = storage.NewLayout(store)
	ro.index.OnAccess = func(id int64) { store.Read(roIndexPageBase - storage.PageID(id)) }
	c := ro.csr.idx
	for _, n := range storage.ClusterNodes(h.Graph()) {
		ro.index.Put(int64(n), 0)
		ro.layout.Place(int64(n), ro.nodeRecordSize(c, n))
		ro.layout.Write(int64(n))
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
// the shortcut-tree record) and returns the node's shortcut tree. Only
// charged searches call it, and they run only over a store.
func (ro *RouteOverlay) Visit(n graph.NodeID) []*rnet.TreeNode {
	ro.index.Get(int64(n))
	ro.layout.Read(int64(n))
	return ro.h.Tree(n)
}

// SizeBytes estimates the Route Overlay's storage footprint: the
// hierarchy's Rnet/shortcut data plus per-node shortcut-tree records,
// counted off the CSR slabs.
func (ro *RouteOverlay) SizeBytes() int64 {
	return ro.h.SizeBytes() + ro.loadCSR().treeBytes(ro.h.Graph().NumNodes())
}
