package core

import (
	"sort"

	"road/internal/btree"
	"road/internal/graph"
	"road/internal/rnet"
	"road/internal/storage"
)

// Association Directory key space: node keys are the node IDs, Rnet keys
// are offset into a disjoint range (§3.4 indexes both in one B+-tree).
const rnetKeyBase = int64(1) << 32

// Negative page-ID namespaces keep simulated B+-tree node pages distinct
// from record pages (which use non-negative allocated IDs) while sharing
// one LRU buffer.
const (
	adIndexPageBase = storage.PageID(-1)
	roIndexPageBase = storage.PageID(-1) << 32
)

func nodeKey(n graph.NodeID) int64 { return int64(n) }
func rnetKey(r rnet.RnetID) int64  { return rnetKeyBase + int64(r) }

// objAssoc associates an object with one endpoint node of its edge,
// carrying the object's distance from that node and its attribute.
type objAssoc struct {
	obj  graph.ObjectID
	dist float64
	attr int32
}

// AssocDir is the Association Directory (§3.4): a B+-tree over node IDs
// and Rnet IDs. A node's entry holds the objects on its incident edges
// with their distances; an Rnet's entry holds the object abstract. Nodes
// and Rnets without objects have an empty entry — absence implies
// emptiness. The entries themselves live in dense arrays indexed by node
// and Rnet ID, so the per-settled-node probes on the query hot path are
// array loads; the simulated B+-tree and page layout exist only over a
// page store, for the paper-faithful I/O-accounting report mode.
type AssocDir struct {
	h    *rnet.Hierarchy
	kind AbstractKind

	// byNode[n] holds node n's associations (empty = no entry);
	// abstracts[r] holds Rnet r's abstract (nil = no entry). Both are
	// dense — sized to the network at construction, grown on demand if
	// nodes are added later.
	byNode    [][]objAssoc
	abstracts []*abstractRec

	// index simulates the paged B+-tree; layout holds the entry records.
	// Both are nil without a page store.
	index  *btree.Tree[int32]
	layout *storage.Layout
}

// NewAssocDir builds the directory for all objects currently in set,
// over hierarchy h. store may be nil to skip I/O simulation.
func NewAssocDir(h *rnet.Hierarchy, set *graph.ObjectSet, kind AbstractKind, store *storage.Store) *AssocDir {
	ad := &AssocDir{
		h:         h,
		kind:      kind,
		byNode:    make([][]objAssoc, h.Graph().NumNodes()),
		abstracts: make([]*abstractRec, h.NumRnets()),
	}
	if store != nil {
		ad.index = btree.New[int32](btree.DefaultOrder)
		ad.layout = storage.NewLayout(store)
		// B+-tree nodes occupy their own page namespace (negative IDs) so
		// they share the buffer with record pages without aliasing them.
		ad.index.OnAccess = func(id int64) { store.Read(adIndexPageBase - storage.PageID(id)) }
	}
	for _, o := range set.All() {
		ad.Insert(o)
	}
	return ad
}

// Kind returns the abstract representation in use.
func (ad *AssocDir) Kind() AbstractKind { return ad.kind }

// Insert associates object o with its edge's endpoint nodes and adds it to
// the object abstracts of the enclosing Rnet and all its ancestors
// (Lemma 1 keeps parents consistent with children).
func (ad *AssocDir) Insert(o graph.Object) {
	e := ad.h.Graph().Edge(o.Edge)
	ad.addNodeAssoc(e.U, objAssoc{obj: o.ID, dist: o.DU, attr: o.Attr})
	ad.addNodeAssoc(e.V, objAssoc{obj: o.ID, dist: o.DV, attr: o.Attr})
	leaf := ad.h.LeafOf(o.Edge)
	if leaf != rnet.NoRnet {
		for _, r := range ad.h.AncestorChain(leaf) {
			ad.growRnets(r)
			a := ad.abstracts[r]
			if a == nil {
				a = newAbstractRec(ad.kind)
				ad.abstracts[r] = a
				ad.indexPut(rnetKey(r))
			}
			a.add(o.Attr)
			ad.touchRecord(rnetKey(r))
		}
	}
}

// growNodes/growRnets extend the dense entry arrays when the network has
// gained nodes (or, defensively, Rnets) since construction.
func (ad *AssocDir) growNodes(n graph.NodeID) {
	for int(n) >= len(ad.byNode) {
		ad.byNode = append(ad.byNode, nil)
	}
}

func (ad *AssocDir) growRnets(r rnet.RnetID) {
	for int(r) >= len(ad.abstracts) {
		ad.abstracts = append(ad.abstracts, nil)
	}
}

// Remove dissociates object o from nodes and abstracts.
func (ad *AssocDir) Remove(o graph.Object) {
	e := ad.h.Graph().Edge(o.Edge)
	ad.dropNodeAssoc(e.U, o.ID)
	ad.dropNodeAssoc(e.V, o.ID)
	leaf := ad.h.LeafOf(o.Edge)
	if leaf != rnet.NoRnet {
		for _, r := range ad.h.AncestorChain(leaf) {
			if int(r) >= len(ad.abstracts) {
				continue
			}
			a := ad.abstracts[r]
			if a == nil {
				continue
			}
			a.remove(o.Attr)
			if a.total == 0 {
				ad.abstracts[r] = nil
				ad.indexDelete(rnetKey(r))
			} else {
				ad.touchRecord(rnetKey(r))
			}
		}
	}
}

// UpdateAttr changes an object's attribute category in place (§5.1's
// "changes of object attributes").
func (ad *AssocDir) UpdateAttr(o graph.Object, newAttr int32) {
	ad.Remove(o)
	o.Attr = newAttr
	ad.Insert(o)
}

func (ad *AssocDir) addNodeAssoc(n graph.NodeID, a objAssoc) {
	ad.growNodes(n)
	if len(ad.byNode[n]) == 0 {
		ad.indexPut(nodeKey(n))
	}
	ad.byNode[n] = append(ad.byNode[n], a)
	sort.Slice(ad.byNode[n], func(i, j int) bool { return ad.byNode[n][i].obj < ad.byNode[n][j].obj })
	ad.touchRecord(nodeKey(n))
}

func (ad *AssocDir) dropNodeAssoc(n graph.NodeID, id graph.ObjectID) {
	if int(n) >= len(ad.byNode) {
		return
	}
	list := ad.byNode[n]
	for i := range list {
		if list[i].obj == id {
			list = append(list[:i], list[i+1:]...)
			break
		}
	}
	if len(list) == 0 {
		ad.byNode[n] = nil
		ad.indexDelete(nodeKey(n))
	} else {
		ad.byNode[n] = list
		ad.touchRecord(nodeKey(n))
	}
}

// ObjectsAt returns the associations at node n whose attribute matches
// attr (0 = any), charging the B+-tree probe and — when an entry exists —
// the record read when the directory sits on a page store.
func (ad *AssocDir) ObjectsAt(n graph.NodeID, attr int32) []objAssoc {
	return ad.objectsAt(n, attr, ad.index != nil)
}

func (ad *AssocDir) objectsAt(n graph.NodeID, attr int32, chargeIO bool) []objAssoc {
	if chargeIO {
		ad.index.Get(nodeKey(n))
	}
	list := ad.assocsAt(n)
	if len(list) == 0 {
		return nil
	}
	if chargeIO {
		ad.layout.Read(nodeKey(n))
	}
	if attr == 0 {
		return list
	}
	var out []objAssoc
	for _, a := range list {
		if a.attr == attr {
			out = append(out, a)
		}
	}
	return out
}

// RnetMayContain reports whether Rnet r may contain an object matching
// attr — the SearchObject(AD, R) probe of Algorithm ChoosePath. Absent
// entries mean definitely empty. Like ObjectsAt it charges I/O only on a
// page store.
func (ad *AssocDir) RnetMayContain(r rnet.RnetID, attr int32) bool {
	return ad.rnetMayContain(r, attr, ad.index != nil)
}

// assocsAt returns node n's raw association list without I/O accounting or
// attribute filtering — the CSR hot path's probe, a single array load.
func (ad *AssocDir) assocsAt(n graph.NodeID) []objAssoc {
	if int(n) >= len(ad.byNode) {
		return nil
	}
	return ad.byNode[n]
}

func (ad *AssocDir) rnetMayContain(r rnet.RnetID, attr int32, chargeIO bool) bool {
	if chargeIO {
		ad.index.Get(rnetKey(r))
	}
	if int(r) >= len(ad.abstracts) {
		return false
	}
	a := ad.abstracts[r]
	if a == nil {
		return false
	}
	if chargeIO {
		ad.layout.Read(rnetKey(r))
	}
	return a.mayContain(ad.kind, attr)
}

// AbstractTotal returns the exact object count inside Rnet r (0 if absent)
// without charging I/O; used by invariant tests.
func (ad *AssocDir) AbstractTotal(r rnet.RnetID) int {
	if int(r) < len(ad.abstracts) && ad.abstracts[r] != nil {
		return ad.abstracts[r].total
	}
	return 0
}

// SizeBytes estimates the directory's storage footprint: node entries plus
// abstracts under the configured representation.
func (ad *AssocDir) SizeBytes() int64 {
	var total int64
	for _, list := range ad.byNode {
		if len(list) > 0 {
			total += 8 + int64(len(list))*16
		}
	}
	for _, a := range ad.abstracts {
		if a != nil {
			total += 8 + int64(a.sizeBytes(ad.kind))
		}
	}
	return total
}

// indexPut registers a key in the simulated B+-tree and places its record.
func (ad *AssocDir) indexPut(key int64) {
	if ad.index == nil {
		return
	}
	ad.index.Put(key, 0)
	if !ad.layout.Has(key) {
		ad.layout.Place(key, ad.recordSize(key))
		ad.layout.Write(key)
	}
}

// indexDelete drops a key from the simulated B+-tree; its record keeps
// its pages, as a deleted record does on disk.
func (ad *AssocDir) indexDelete(key int64) {
	if ad.index != nil {
		ad.index.Delete(key)
	}
}

func (ad *AssocDir) recordSize(key int64) int {
	if key >= rnetKeyBase {
		if r := rnet.RnetID(key - rnetKeyBase); int(r) < len(ad.abstracts) && ad.abstracts[r] != nil {
			return ad.abstracts[r].sizeBytes(ad.kind)
		}
		return 4
	}
	return 8 + 16*len(ad.assocsAt(graph.NodeID(key)))
}

func (ad *AssocDir) touchRecord(key int64) {
	if ad.layout != nil {
		ad.layout.Write(key)
	}
}
