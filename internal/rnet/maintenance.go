package rnet

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"road/internal/graph"
)

// UpdateResult summarizes the incremental work one network change caused —
// the quantities the maintenance experiments (§6.2) report.
type UpdateResult struct {
	// Filtered is true when the leaf-level filter proved no shortcut could
	// be affected and the update stopped immediately.
	Filtered bool
	// RecomputedRnets lists the Rnets whose shortcut sets were recomputed,
	// bottom-up.
	RecomputedRnets []RnetID
	// ChangedRnets lists the subset whose shortcut sets actually changed.
	ChangedRnets []RnetID
}

// SetEdgeWeight changes the weight of edge e (travel distance, trip time
// or toll, §5.2.1) and incrementally repairs affected shortcuts with the
// filter-and-refresh scheme: the exact leaf-level filter decides whether
// any shortcut of the enclosing Rnet can be affected; on a hit, the leaf
// Rnet's shortcuts are refreshed and the update propagates to ancestors
// only while their shortcut sets keep changing (Lemma 2).
func (h *Hierarchy) SetEdgeWeight(e graph.EdgeID, w float64) (UpdateResult, error) {
	old := h.g.Weight(e)
	if err := h.g.SetWeight(e, w); err != nil {
		return UpdateResult{}, err
	}
	if old == w {
		return UpdateResult{Filtered: true}, nil
	}
	// The weight is already applied; even a filtered update stales the
	// endpoints' flattened views, which bake edge weights in.
	ed := h.g.Edge(e)
	h.markDirty(ed.U)
	h.markDirty(ed.V)
	leaf := h.LeafOf(e)
	if leaf == NoRnet {
		return UpdateResult{Filtered: true}, nil
	}
	if !h.filterAffected(leaf, e, old, w) {
		return UpdateResult{Filtered: true}, nil
	}
	res := h.refreshChains([]RnetID{leaf})
	return res, nil
}

// filterAffected implements the §5.2.1 filter step exactly: with dn and
// dn′ the within-Rnet distances from the changed edge's endpoints to the
// Rnet's borders computed avoiding the edge itself, a stored shortcut
// S(b,b′) is affected by an increase iff its distance equals
// dn(b)+old+dn′(b′) for either edge orientation (its path ran through the
// edge), and by a decrease iff dn(b)+new+dn′(b′) beats its distance (a
// better path now runs through the edge).
func (h *Hierarchy) filterAffected(leaf RnetID, e graph.EdgeID, oldW, newW float64) bool {
	scs := h.shortcuts[leaf]
	if len(scs) == 0 {
		return false
	}
	ed := h.g.Edge(e)
	ws := h.searchWS()
	filter := func(x graph.EdgeID) bool { return x != e && h.LeafOf(x) == leaf }
	borders := h.rnets[leaf].Borders

	distFrom := func(src graph.NodeID) map[graph.NodeID]float64 {
		ws.Run(src, graph.Options{Filter: filter, Targets: borders})
		m := make(map[graph.NodeID]float64, len(borders))
		for _, b := range borders {
			if d := ws.Dist(b); !math.IsInf(d, 1) {
				m[b] = d
			}
		}
		return m
	}
	du := distFrom(ed.U)
	dv := distFrom(ed.V)

	through := func(b, b2 graph.NodeID, w float64) (float64, bool) {
		best := math.Inf(1)
		if a, ok := du[b]; ok {
			if c, ok2 := dv[b2]; ok2 {
				best = a + w + c
			}
		}
		if a, ok := dv[b]; ok {
			if c, ok2 := du[b2]; ok2 && a+w+c < best {
				best = a + w + c
			}
		}
		return best, !math.IsInf(best, 1)
	}

	for from, list := range scs {
		for _, sc := range list {
			if newW > oldW { // increase: was the stored path through e?
				if d, ok := through(from, sc.To, oldW); ok && distEq(d, sc.Dist) {
					return true
				}
			} else { // decrease: does a path through e now beat it?
				if d, ok := through(from, sc.To, newW); ok && d < sc.Dist && !distEq(d, sc.Dist) {
					return true
				}
			}
		}
	}
	// A decrease can also create connectivity where none existed (borders
	// with no stored shortcut); recompute conservatively in that rare case.
	if newW < oldW {
		for _, b := range borders {
			for _, b2 := range borders {
				if b == b2 {
					continue
				}
				if !hasShortcut(scs, b, b2) {
					if _, ok := through(b, b2, newW); ok {
						return true
					}
				}
			}
		}
	}
	return false
}

// adoptWaypoints copies each shortcut's Via from fresh, a recomputation of
// the same (from, to) pairs, into stored, leaving the stored distances —
// which derived indexes bake in — as they are.
func adoptWaypoints(stored, fresh map[graph.NodeID][]Shortcut) {
	for from, list := range stored {
		for i := range list {
			for _, sc := range fresh[from] {
				if sc.To == list[i].To {
					list[i].Via = sc.Via
					break
				}
			}
		}
	}
}

func hasShortcut(scs map[graph.NodeID][]Shortcut, from, to graph.NodeID) bool {
	for _, sc := range scs[from] {
		if sc.To == to {
			return true
		}
	}
	return false
}

// refreshChains recomputes the shortcut sets of the given dirty Rnets and
// propagates upward level by level while sets keep changing.
func (h *Hierarchy) refreshChains(dirty []RnetID) UpdateResult {
	var res UpdateResult
	pending := make(map[RnetID]bool)
	for _, r := range dirty {
		pending[r] = true
	}
	for level := h.cfg.Levels; level >= 1; level-- {
		for _, r := range h.levels[level-1] {
			if !pending[r] {
				continue
			}
			delete(pending, r)
			res.RecomputedRnets = append(res.RecomputedRnets, r)
			fresh := h.computeShortcuts(r)
			if shortcutSetsEqual(h.shortcuts[r], fresh) {
				// Same distances, but the paths behind them may have moved:
				// onto an equal-length detour, or onto child shortcuts a
				// refresh below replaced. Take the fresh waypoints.
				if h.cfg.StorePaths {
					adoptWaypoints(h.shortcuts[r], fresh)
				}
				continue
			}
			h.shortcuts[r] = fresh
			res.ChangedRnets = append(res.ChangedRnets, r)
			h.markBordersDirty(r)
			if p := h.rnets[r].Parent; p != NoRnet {
				pending[p] = true
			}
		}
	}
	return res
}

// Pin marks nodes pinned (see the package doc): each becomes a border of
// every Rnet holding one of its edges, at every level. The shortcut sets
// of the Rnets whose border set grew are recomputed, leaf level first, and
// their borders logged dirty for the derived indexes. Nodes already
// pinned, and Rnets already bordered by their pinned nodes, cost nothing:
// pinning a hierarchy whose stored border lists already include the pins
// (one restored from a snapshot taken after the pin) recomputes nothing.
func (h *Hierarchy) Pin(nodes []graph.NodeID) UpdateResult {
	h.ensureNodeCapacity()
	grown := make(map[RnetID]bool)
	for _, n := range nodes {
		if h.isPinned(n) {
			continue
		}
		h.setPinned(n)
		before := h.borderMemberships(n)
		h.recomputeNodeBorders(n)
		if len(h.borderRnetsOf[n]) == len(before) {
			continue // pinning only adds memberships: none added
		}
		for _, r := range h.borderRnetsOf[n] {
			if !before[r] {
				grown[r] = true
			}
		}
		h.InvalidateTree(n)
	}
	if len(grown) == 0 {
		return UpdateResult{}
	}
	list := make([]RnetID, 0, len(grown))
	for r := range grown {
		list = append(list, r)
	}
	sort.Slice(list, func(i, j int) bool { return list[i] < list[j] })
	for _, r := range list {
		h.rebuildBorderList(r)
		h.markBordersDirty(r)
	}
	return h.refreshChains(list)
}

// CheckFresh compares the hierarchy with a fresh derivation over the same
// partition and pins: every Rnet's border set (Definition 1, extended by
// the pins) and shortcut distances must equal what computing them anew
// from the current graph gives. It is the referee of incremental
// maintenance and of pinning, costs one build's shortcut computation, and
// changes nothing.
func (h *Hierarchy) CheckFresh() error {
	fresh := &Hierarchy{g: h.g, cfg: h.cfg, rnets: slices.Clone(h.rnets), levels: h.levels, leafOf: h.leafOf, pinned: h.pinned}
	fresh.computeBorders()
	fresh.computeAllShortcuts()
	for r := range h.rnets {
		if got, want := h.rnets[r].Borders, fresh.rnets[r].Borders; !slices.Equal(got, want) {
			return fmt.Errorf("rnet: Rnet %d borders %v, fresh derivation %v", r, got, want)
		}
		if !shortcutSetsEqual(h.shortcuts[r], fresh.shortcuts[r]) {
			return fmt.Errorf("rnet: Rnet %d shortcut set differs from a fresh derivation", r)
		}
	}
	return nil
}

// AddEdge inserts a new road segment between existing nodes u and v
// (§5.2.2). When both endpoints' edges lie in the same leaf Rnet the
// change is handled like a distance change from infinity; otherwise the
// edge joins u's leaf Rnet and v is promoted to a border node of the
// Rnets it now spans, with new shortcuts created for it.
func (h *Hierarchy) AddEdge(u, v graph.NodeID, w float64) (graph.EdgeID, UpdateResult, error) {
	e, err := h.g.AddEdge(u, v, w)
	if err != nil {
		return graph.NoEdge, UpdateResult{}, err
	}
	h.ensureNodeCapacity()
	// Extend the edge-indexed maps before any failure return: even a
	// rolled-back AddEdge consumes an edge ID (the removed stub), and
	// every map must keep covering all of g.NumEdges() — snapshots export
	// them and refuse to load on a length mismatch.
	h.ensureEdgeCapacity(e)
	host := h.chooseHostLeaf(u, v)
	if host == NoRnet {
		// Roll the graph mutation back so a failed AddEdge leaves no live
		// orphan edge behind (the removed stub behaves like a closed road).
		h.g.RemoveEdge(e)
		return graph.NoEdge, UpdateResult{}, fmt.Errorf("rnet: cannot host edge (%d,%d): both endpoints isolated", u, v)
	}
	h.leafOf[e] = host
	h.originLeaf[e] = host
	h.rnets[host].Edges = append(h.rnets[host].Edges, e)
	return e, h.repairAfterIncidenceChange(u, v, host), nil
}

// DeleteEdge removes a road segment (§5.2.2): shortcuts through it are
// repaired, and an endpoint whose remaining edges all fall inside one Rnet
// is demoted from border status.
func (h *Hierarchy) DeleteEdge(e graph.EdgeID) (UpdateResult, error) {
	leaf := h.LeafOf(e)
	ed := h.g.Edge(e)
	if err := h.g.RemoveEdge(e); err != nil {
		return UpdateResult{}, err
	}
	if leaf != NoRnet {
		h.removeEdgeFromLeaf(leaf, e)
		h.leafOf[e] = NoRnet
	}
	return h.repairAfterIncidenceChange(ed.U, ed.V, leaf), nil
}

// RestoreEdge re-attaches a previously deleted edge with its stored weight
// (the evaluation's delete-then-reinsert workload). When every edge
// incident to both endpoints is closed — so no live edge can nominate a
// host leaf — the edge returns to the leaf Rnet it was originally
// assigned to at build (or AddEdge) time.
func (h *Hierarchy) RestoreEdge(e graph.EdgeID) (UpdateResult, error) {
	if err := h.g.RestoreEdge(e); err != nil {
		return UpdateResult{}, err
	}
	ed := h.g.Edge(e)
	host := h.chooseHostLeaf(ed.U, ed.V)
	if host == NoRnet {
		host = h.OriginLeafOf(e)
	}
	if host == NoRnet {
		// Roll the graph mutation back so a failed restore leaves the edge
		// closed rather than live-but-unindexed.
		h.g.RemoveEdge(e)
		return UpdateResult{}, fmt.Errorf("rnet: cannot host restored edge %d", e)
	}
	h.ensureEdgeCapacity(e)
	h.leafOf[e] = host
	if h.originLeaf[e] == NoRnet {
		// First successful hosting of a stub edge: this leaf becomes its
		// origin, as it would have in AddEdge.
		h.originLeaf[e] = host
	}
	h.rnets[host].Edges = append(h.rnets[host].Edges, e)
	return h.repairAfterIncidenceChange(ed.U, ed.V, host), nil
}

// chooseHostLeaf picks the leaf Rnet that will own a new edge (u,v):
// a leaf shared by both endpoints if one exists (the same-Rnet case),
// otherwise u's first leaf, otherwise v's.
func (h *Hierarchy) chooseHostLeaf(u, v graph.NodeID) RnetID {
	uLeaves := h.nodeLeaves(u)
	vLeaves := h.nodeLeaves(v)
	for _, lu := range uLeaves {
		for _, lv := range vLeaves {
			if lu == lv {
				return lu
			}
		}
	}
	if len(uLeaves) > 0 {
		return uLeaves[0]
	}
	if len(vLeaves) > 0 {
		return vLeaves[0]
	}
	return NoRnet
}

// nodeLeaves returns the distinct leaf Rnets of n's live incident edges.
func (h *Hierarchy) nodeLeaves(n graph.NodeID) []RnetID {
	var out []RnetID
	for _, half := range h.g.Neighbors(n) {
		leaf := h.LeafOf(half.Edge)
		if leaf == NoRnet {
			continue
		}
		dup := false
		for _, x := range out {
			if x == leaf {
				dup = true
				break
			}
		}
		if !dup {
			out = append(out, leaf)
		}
	}
	return out
}

func (h *Hierarchy) removeEdgeFromLeaf(leaf RnetID, e graph.EdgeID) {
	edges := h.rnets[leaf].Edges
	for i, x := range edges {
		if x == e {
			edges[i] = edges[len(edges)-1]
			h.rnets[leaf].Edges = edges[:len(edges)-1]
			return
		}
	}
}

// repairAfterIncidenceChange recomputes border status of the two affected
// endpoints (promotion/demotion), refreshes shortcut sets of every Rnet
// whose border set or edge set changed, and invalidates the endpoints'
// shortcut trees.
func (h *Hierarchy) repairAfterIncidenceChange(u, v graph.NodeID, hostLeaf RnetID) UpdateResult {
	dirty := make(map[RnetID]bool)
	if hostLeaf != NoRnet {
		dirty[hostLeaf] = true
	}
	for _, n := range [2]graph.NodeID{u, v} {
		before := h.borderMemberships(n)
		h.recomputeNodeBorders(n)
		after := h.borderMemberships(n)
		for r := range symmetricDiff(before, after) {
			h.rebuildBorderList(r)
			h.markBordersDirty(r)
			dirty[r] = true
		}
		h.InvalidateTree(n)
	}
	var dirtyList []RnetID
	for r := range dirty {
		dirtyList = append(dirtyList, r)
	}
	// Deterministic order for reproducible update traces.
	for i := 0; i < len(dirtyList); i++ {
		for j := i + 1; j < len(dirtyList); j++ {
			if dirtyList[j] < dirtyList[i] {
				dirtyList[i], dirtyList[j] = dirtyList[j], dirtyList[i]
			}
		}
	}
	return h.refreshChains(dirtyList)
}

// borderMemberships returns the set of Rnets for which n is currently a
// border node.
func (h *Hierarchy) borderMemberships(n graph.NodeID) map[RnetID]bool {
	out := make(map[RnetID]bool, len(h.borderRnetsOf[n]))
	for _, r := range h.borderRnetsOf[n] {
		out[r] = true
	}
	return out
}

// ensureEdgeCapacity grows the edge-indexed maps to cover edge e, keeping
// the invariant len(leafOf) == len(originLeaf) == g.NumEdges() that the
// snapshot format depends on.
func (h *Hierarchy) ensureEdgeCapacity(e graph.EdgeID) {
	for int(e) >= len(h.leafOf) {
		h.leafOf = append(h.leafOf, NoRnet)
	}
	for int(e) >= len(h.originLeaf) {
		h.originLeaf = append(h.originLeaf, NoRnet)
	}
}

// ensureNodeCapacity grows per-node bookkeeping after nodes were added to
// the graph (the paper folds node changes into edge changes, §5.2.2).
func (h *Hierarchy) ensureNodeCapacity() {
	for len(h.borderRnetsOf) < h.g.NumNodes() {
		h.borderRnetsOf = append(h.borderRnetsOf, nil)
	}
}

func symmetricDiff(a, b map[RnetID]bool) map[RnetID]bool {
	out := make(map[RnetID]bool)
	for r := range a {
		if !b[r] {
			out[r] = true
		}
	}
	for r := range b {
		if !a[r] {
			out[r] = true
		}
	}
	return out
}
