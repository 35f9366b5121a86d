package core

import (
	"fmt"
	"sort"
	"time"

	"road/internal/btree"
	"road/internal/graph"
	"road/internal/rnet"
	"road/internal/storage"
)

// AssocDirState is the explicit, serializable form of an Association
// Directory: per-node object associations and per-Rnet abstract counts.
// The exact per-attribute counts are the directory's ground truth — the
// Bloom filter (AbstractBloom) and the simulated B+-tree/page layout are
// derived from them on restore.
type AssocDirState struct {
	Kind      AbstractKind
	Nodes     []NodeAssocState
	Abstracts []AbstractState
}

// NodeAssocState is one node's association list, in stored (object-ID)
// order.
type NodeAssocState struct {
	Node   graph.NodeID
	Assocs []ObjAssocState
}

// ObjAssocState is one object association: the object, its distance from
// the node, and its attribute.
type ObjAssocState struct {
	Obj  graph.ObjectID
	Dist float64
	Attr int32
}

// AbstractState is one Rnet's abstract: exact per-attribute counts.
type AbstractState struct {
	Rnet   rnet.RnetID
	Counts []AttrCount
}

// AttrCount is one attribute category's object count inside an Rnet.
type AttrCount struct {
	Attr  int32
	Count int32
}

// ExportState captures the directory for snapshotting, with deterministic
// (sorted) ordering so identical directories serialize identically.
func (ad *AssocDir) ExportState() *AssocDirState {
	st := &AssocDirState{Kind: ad.kind}
	// The dense entry arrays are indexed by ID, so ascending iteration is
	// already the deterministic (sorted) order.
	for n, list := range ad.byNode {
		if len(list) == 0 {
			continue
		}
		entry := NodeAssocState{Node: graph.NodeID(n), Assocs: make([]ObjAssocState, len(list))}
		for i, a := range list {
			entry.Assocs[i] = ObjAssocState{Obj: a.obj, Dist: a.dist, Attr: a.attr}
		}
		st.Nodes = append(st.Nodes, entry)
	}
	for r, a := range ad.abstracts {
		if a == nil {
			continue
		}
		attrs := make([]int32, 0, len(a.counts))
		for attr := range a.counts {
			attrs = append(attrs, attr)
		}
		sort.Slice(attrs, func(i, j int) bool { return attrs[i] < attrs[j] })
		entry := AbstractState{Rnet: rnet.RnetID(r)}
		for _, attr := range attrs {
			entry.Counts = append(entry.Counts, AttrCount{Attr: attr, Count: int32(a.counts[attr])})
		}
		st.Abstracts = append(st.Abstracts, entry)
	}
	return st
}

// RestoreAssocDir reassembles a directory over h and set from exported
// state, rebuilding the derived pieces (Bloom filters, simulated B+-tree)
// and validating every reference against the object set. With a store,
// layout must carry the exported page layout (the record placement that
// accumulated over the directory's insertion history).
func RestoreAssocDir(h *rnet.Hierarchy, set *graph.ObjectSet, store *storage.Store, layout *storage.LayoutState, st *AssocDirState) (*AssocDir, error) {
	switch st.Kind {
	case AbstractSet, AbstractCount, AbstractBloom:
	default:
		return nil, fmt.Errorf("core: state: unknown abstract kind %d", st.Kind)
	}
	ad := &AssocDir{
		h:         h,
		kind:      st.Kind,
		byNode:    make([][]objAssoc, h.Graph().NumNodes()),
		abstracts: make([]*abstractRec, h.NumRnets()),
		index:     newAssocIndex(store),
		store:     store,
	}
	if store != nil {
		if layout == nil {
			return nil, fmt.Errorf("core: state: directory page layout missing")
		}
		restored, err := storage.RestoreLayout(store, layout)
		if err != nil {
			return nil, fmt.Errorf("core: state: directory layout: %w", err)
		}
		ad.layout = restored
	}
	g := h.Graph()
	for _, entry := range st.Nodes {
		if entry.Node < 0 || int(entry.Node) >= g.NumNodes() {
			return nil, fmt.Errorf("core: state: association node %d out of range", entry.Node)
		}
		if len(entry.Assocs) == 0 {
			return nil, fmt.Errorf("core: state: empty association list for node %d", entry.Node)
		}
		if len(ad.byNode[entry.Node]) != 0 {
			return nil, fmt.Errorf("core: state: duplicate association node %d", entry.Node)
		}
		list := make([]objAssoc, len(entry.Assocs))
		for i, a := range entry.Assocs {
			if _, ok := set.Get(a.Obj); !ok {
				return nil, fmt.Errorf("core: state: node %d references unknown object %d", entry.Node, a.Obj)
			}
			if !(a.Dist >= 0) {
				return nil, fmt.Errorf("core: state: node %d object %d distance %v invalid", entry.Node, a.Obj, a.Dist)
			}
			list[i] = objAssoc{obj: a.Obj, dist: a.Dist, attr: a.Attr}
		}
		ad.byNode[entry.Node] = list
	}
	for _, entry := range st.Abstracts {
		if entry.Rnet < 0 || int(entry.Rnet) >= h.NumRnets() {
			return nil, fmt.Errorf("core: state: abstract Rnet %d out of range", entry.Rnet)
		}
		if ad.abstracts[entry.Rnet] != nil {
			return nil, fmt.Errorf("core: state: duplicate abstract for Rnet %d", entry.Rnet)
		}
		a := newAbstractRec(st.Kind)
		for _, c := range entry.Counts {
			if c.Count <= 0 {
				return nil, fmt.Errorf("core: state: Rnet %d attr %d count %d invalid", entry.Rnet, c.Attr, c.Count)
			}
			a.counts[c.Attr] = int(c.Count)
			a.total += int(c.Count)
			if a.filter != nil {
				a.filter.Add(uint64(uint32(c.Attr)))
			}
		}
		if a.total == 0 {
			return nil, fmt.Errorf("core: state: empty abstract for Rnet %d", entry.Rnet)
		}
		ad.abstracts[entry.Rnet] = a
	}
	// Rebuild the simulated B+-tree over the restored keys in sorted order
	// (node keys first, then Rnet keys — the same disjoint key ranges the
	// live directory uses). Record pages were restored wholesale above, so
	// only the index itself is repopulated; each key must already have its
	// record placed.
	for i, list := range ad.byNode {
		if len(list) == 0 {
			continue
		}
		n := graph.NodeID(i)
		if ad.layout != nil && !ad.layout.Has(nodeKey(n)) {
			return nil, fmt.Errorf("core: state: node %d has no placed record", n)
		}
		ad.index.Put(nodeKey(n), 0)
	}
	for i, a := range ad.abstracts {
		if a == nil {
			continue
		}
		r := rnet.RnetID(i)
		if ad.layout != nil && !ad.layout.Has(rnetKey(r)) {
			return nil, fmt.Errorf("core: state: Rnet %d abstract has no placed record", r)
		}
		ad.index.Put(rnetKey(r), 0)
	}
	return ad, nil
}

// newAssocIndex builds the simulated B+-tree with the same page-charging
// hook NewAssocDir installs.
func newAssocIndex(store *storage.Store) *btree.Tree[int32] {
	idx := btree.New[int32](btree.DefaultOrder)
	if store != nil {
		idx.OnAccess = func(id int64) { store.Read(adIndexPageBase - storage.PageID(id)) }
	}
	return idx
}

// RestoreRouteOverlay reassembles the overlay over h: the simulated
// B+-tree is repopulated in the recorded cluster (Hilbert) order —
// re-deriving it would re-rank and re-sort every coordinate — the page
// layout is restored from exported state, and the CSR slabs are built
// from the hierarchy, as NewRouteOverlay builds them.
func RestoreRouteOverlay(h *rnet.Hierarchy, store *storage.Store, layout *storage.LayoutState, order []graph.NodeID) (*RouteOverlay, error) {
	ro := &RouteOverlay{
		h:     h,
		index: btree.New[int32](btree.DefaultOrder),
		store: store,
	}
	if store != nil {
		if layout == nil {
			return nil, fmt.Errorf("core: state: overlay page layout missing")
		}
		restored, err := storage.RestoreLayout(store, layout)
		if err != nil {
			return nil, fmt.Errorf("core: state: overlay layout: %w", err)
		}
		ro.layout = restored
		ro.index.OnAccess = func(id int64) { store.Read(roIndexPageBase - storage.PageID(id)) }
	}
	g := h.Graph()
	if len(order) != g.NumNodes() {
		return nil, fmt.Errorf("core: state: overlay order covers %d of %d nodes", len(order), g.NumNodes())
	}
	seen := make([]bool, g.NumNodes())
	for _, n := range order {
		if n < 0 || int(n) >= g.NumNodes() || seen[n] {
			return nil, fmt.Errorf("core: state: overlay order is not a node permutation (node %d)", n)
		}
		seen[n] = true
		if ro.layout != nil && !ro.layout.Has(int64(n)) {
			return nil, fmt.Errorf("core: state: node %d has no placed overlay record", n)
		}
		ro.index.Put(int64(n), 0)
	}
	ro.order = order
	ro.csr = newCSRBox(h)
	return ro, nil
}

// RestoreSpec carries the decoded pieces of a snapshot, ready to be
// reassembled into a live Framework.
type RestoreSpec struct {
	Graph     *graph.Graph
	Objects   *graph.ObjectSet
	Hierarchy *rnet.Hierarchy
	Dir       *AssocDirState
	// BufferPages sizes the rebuilt simulated page store; negative
	// disables simulation (mirrors Config.BufferPages, but with the
	// resolved capacity, never 0). When non-negative, StoreAllocated and
	// both layout states must carry the exported page bookkeeping.
	BufferPages    int
	StoreAllocated storage.PageID
	OverlayLayout  *storage.LayoutState
	DirLayout      *storage.LayoutState
	// OverlayOrder is the node order overlay records were laid out in
	// (Hilbert/CCAM clustering at build time). Empty selects a fresh
	// ClusterNodes computation.
	OverlayOrder []graph.NodeID
	Epoch        uint64
	BuildTime    time.Duration
}

// Restore reassembles a Framework from snapshot state: the simulated page
// store and both index layouts are restored exactly, the Route Overlay
// and Association Directory are reconstructed around them, and the
// maintenance epoch resumes where the snapshotted instance left off.
func Restore(spec RestoreSpec) (*Framework, error) {
	if spec.Graph == nil || spec.Objects == nil || spec.Hierarchy == nil || spec.Dir == nil {
		return nil, fmt.Errorf("core: restore: incomplete spec")
	}
	var store *storage.Store
	if spec.BufferPages >= 0 {
		store = storage.NewStore(spec.BufferPages)
		store.SetAllocated(spec.StoreAllocated)
	}
	ad, err := RestoreAssocDir(spec.Hierarchy, spec.Objects, store, spec.DirLayout, spec.Dir)
	if err != nil {
		return nil, err
	}
	order := spec.OverlayOrder
	if len(order) == 0 {
		order = storage.ClusterNodes(spec.Graph)
	}
	ro, err := RestoreRouteOverlay(spec.Hierarchy, store, spec.OverlayLayout, order)
	if err != nil {
		return nil, err
	}
	f := &Framework{
		g:       spec.Graph,
		h:       spec.Hierarchy,
		objects: spec.Objects,
		store:   store,
		ad:      ad,
		// The CSR index is derived state: snapshots don't carry it, and
		// RestoreRouteOverlay rebuilt it from the restored hierarchy.
		ro:        ro,
		BuildTime: spec.BuildTime,
	}
	f.epoch.Store(spec.Epoch)
	return f, nil
}

// ExportLayouts returns the overlay and directory page-layout states plus
// the store's allocation watermark (zeros/nils when I/O simulation is
// disabled), for snapshotting.
func (f *Framework) ExportLayouts() (allocated storage.PageID, overlay, dir *storage.LayoutState) {
	if f.store == nil {
		return 0, nil, nil
	}
	return f.store.Allocated(), f.ro.layout.ExportState(), f.ad.layout.ExportState()
}

// OverlayOrder returns the record clustering order overlay entries were
// laid out in, recomputing only if nodes were added since (snapshots call
// this under the serving layer's write lock, where an O(n log n) re-rank
// would stall every reader).
func (f *Framework) OverlayOrder() []graph.NodeID {
	if len(f.ro.order) != f.g.NumNodes() {
		f.ro.order = storage.ClusterNodes(f.g)
	}
	return f.ro.order
}

// BufferPages reports the framework's simulated-store capacity in pages,
// or -1 when I/O simulation is disabled; snapshots record it so a restore
// rebuilds an equivalently configured store.
func (f *Framework) BufferPages() int {
	if f.store == nil {
		return -1
	}
	return f.store.Capacity()
}
