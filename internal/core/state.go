package core

import (
	"fmt"
	"sort"
	"time"

	"road/internal/graph"
	"road/internal/rnet"
)

// AssocDirState is the explicit, serializable form of an Association
// Directory: per-node object associations and per-Rnet abstract counts.
// The exact per-attribute counts are the directory's ground truth — the
// Bloom filter (AbstractBloom) is derived from them on restore.
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
// state, rebuilding the derived pieces (Bloom filters) and validating
// every reference against the object set. The restored directory sits on
// no page store.
func RestoreAssocDir(h *rnet.Hierarchy, set *graph.ObjectSet, st *AssocDirState) (*AssocDir, error) {
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
	return ad, nil
}

// RestoreSpec carries the decoded pieces of a snapshot, ready to be
// reassembled into a live Framework.
type RestoreSpec struct {
	Graph     *graph.Graph
	Objects   *graph.ObjectSet
	Hierarchy *rnet.Hierarchy
	Dir       *AssocDirState
	Epoch     uint64
	BuildTime time.Duration
}

// Restore reassembles a Framework from snapshot state in the serving
// configuration: the Association Directory is rebuilt from its exact
// state, the Route Overlay's CSR slabs from the restored hierarchy, no
// simulated page store is built, and the maintenance epoch resumes where
// the snapshotted instance left off.
func Restore(spec RestoreSpec) (*Framework, error) {
	if spec.Graph == nil || spec.Objects == nil || spec.Hierarchy == nil || spec.Dir == nil {
		return nil, fmt.Errorf("core: restore: incomplete spec")
	}
	ad, err := RestoreAssocDir(spec.Hierarchy, spec.Objects, spec.Dir)
	if err != nil {
		return nil, err
	}
	f := &Framework{
		g:       spec.Graph,
		h:       spec.Hierarchy,
		objects: spec.Objects,
		ad:      ad,
		// The CSR index is derived state: snapshots don't carry it, and
		// NewRouteOverlay builds it from the restored hierarchy.
		ro:        NewRouteOverlay(spec.Hierarchy, nil),
		BuildTime: spec.BuildTime,
	}
	f.epoch.Store(spec.Epoch)
	return f, nil
}
