package shard

import "road/internal/graph"

// Incremental border-table maintenance (the paper's §5.2 filter-and-
// refresh, applied at the shard level).
//
// A shard's derived routing state — the border distance table btable and
// the per-node nearest-border array borderDist — depends only on the
// shard's local network, so any single network mutation can invalidate
// only the entries whose shortest path ran over the touched edge. The
// whole-shard rebuild (one Dijkstra per border, B × Dijkstra(shard))
// recomputes every entry regardless; the functions in this file instead
// FILTER the entries that can possibly have changed with two Dijkstras
// from the touched edge's endpoints, then REFRESH only those.
//
// Let e = (u,v) be the touched edge and d(·,·) shortest distances in the
// shard's local graph. Two facts carry the whole scheme (positive
// weights, undirected graph, so a shortest path is simple and crosses e
// at most once, splitting into e-avoiding segments):
//
//   - Weight DECREASE (reopen and road addition are decreases from +Inf):
//     the new distance is exactly
//
//	d'(a,b) = min( d(a,b), d'(a,u)+w'+d'(v,b), d'(a,v)+w'+d'(u,b) )
//
//     — the old value, or the best path through e at its new weight.
//     Two Dijkstras from u and v on the NEW graph therefore repair every
//     btable arc and every borderDist entry with pure arithmetic: no
//     per-entry recomputation at all.
//
//   - Weight INCREASE (closure is an increase to +Inf): entries whose old
//     shortest path avoided e are untouched. An old path that crossed e
//     had length dᵉ(a,u)+w+dᵉ(v,b) (orientation as appropriate), where
//     dᵉ is the old distance avoiding e itself — which equals the NEW
//     graph's e-avoiding distance, computable after the fact. So two
//     e-excluding Dijkstras from u and v decide, per entry, whether the
//     old optimum could have crossed e; only the rows (and the
//     nearest-border array) that fail the check are recomputed, each with
//     the same bounded Dijkstra a full rebuild would spend on it.
//
// Distances are floating-point sums associated differently by the filter
// (prefix + w + suffix) than by a plain traversal, so all "could the old
// path have used e" comparisons carry refreshTol of relative slack:
// a false positive only wastes one row refresh, while a false negative
// would leave a stale arc, so the slack errs toward refreshing.
//
// Everything here runs on the mutation path, under the owning shard's
// write lock (see router.go): readers of this shard are excluded, readers
// of other shards are not — which is the point.

// netChange describes one applied network mutation in shard-local
// coordinates, with enough context to repair derived state incrementally.
type netChange struct {
	u, v graph.NodeID // endpoints of the touched edge (local IDs)
	edge graph.EdgeID // the touched edge (local ID)
	wOld float64      // weight before the mutation; +Inf if the edge did not exist (reopen, add)
	wNew float64      // weight after the mutation; +Inf if the edge is gone (closure)
	// topology marks mutations that add or remove an edge: they can move
	// nodes between the shard's internal Rnets, so the border watch set
	// must be rebuilt alongside the distance state.
	topology bool
}

// refreshTol is the relative slack of the filter comparisons, generously
// above worst-case float64 association drift on any realistic path length
// (≲1e-11) and below any meaningful distance difference.
const refreshTol = 1e-9

// maintainDerived repairs the shard's derived routing state after one
// network mutation: the filter-and-refresh counterpart of a full
// refreshDerived. Must run while readers of this shard are excluded.
func (s *Shard) maintainDerived(chg netChange) {
	s.maintainDerivedEmit(chg, false)
}

// maintainDerivedEmit is maintainDerived with an optional wire recipe:
// when emit is set (shard hosts) it returns the DerivedUpdate a remote
// mirror needs to repair its copy of btable/borderDist — the decrease
// case ships the two endpoint-distance arrays the repair arithmetic runs
// on (computed here anyway), the increase case ships the rows this
// refresh recomputed.
func (s *Shard) maintainDerivedEmit(chg netChange, emit bool) *DerivedUpdate {
	if chg.topology || s.watch == nil {
		s.watch = s.F.NewWatchSet(s.localBorders)
	}
	if len(s.borders) == 0 {
		return nil // no borders: btable empty, borderDist all +Inf, nothing derived from the network
	}
	if chg.wNew <= chg.wOld {
		du := s.endpointDists(&s.du, chg.u, graph.NoEdge)
		dv := s.endpointDists(&s.dv, chg.v, graph.NoEdge)
		s.applyDecrease(du, dv, chg.wNew)
		if emit {
			return &DerivedUpdate{
				Kind: DerivedDecrease,
				W:    chg.wNew,
				DU:   append([]float64(nil), du...),
				DV:   append([]float64(nil), dv...),
			}
		}
		return nil
	}
	stale, bdRebuilt := s.refreshIncrease(chg)
	if emit {
		u := &DerivedUpdate{Kind: DerivedRows}
		for _, i := range stale {
			b := s.borders[i]
			u.Rows = append(u.Rows, BorderRow{Border: b, Arcs: append([]BorderArc(nil), s.btable[b]...)})
		}
		if bdRebuilt {
			u.BorderDist = append([]float64(nil), s.borderDist...)
		}
		return u
	}
	return nil
}

// endpointDists runs one Dijkstra from src over the live local graph
// (optionally excluding one edge) and copies the distance of every node
// into *buf, which is grown on first use and reused afterwards.
func (s *Shard) endpointDists(buf *[]float64, src graph.NodeID, exclude graph.EdgeID) []float64 {
	n := s.F.Graph().NumNodes()
	if cap(*buf) < n {
		*buf = make([]float64, n)
	}
	d := (*buf)[:n]
	opt := graph.Options{}
	if exclude != graph.NoEdge {
		opt.Filter = func(e graph.EdgeID) bool { return e != exclude }
	}
	s.bsearch.Run(src, opt)
	for i := 0; i < n; i++ {
		d[i] = s.bsearch.Dist(graph.NodeID(i))
	}
	return d
}

// nearestBorder returns min over the shard's borders of d[border].
func (s *Shard) nearestBorder(d []float64) float64 {
	best := inf
	for _, b := range s.borders {
		if v := d[s.localNode[b]]; v < best {
			best = v
		}
	}
	return best
}

// applyDecrease repairs btable and borderDist after a weight decrease
// on an edge (reopen and AddRoad are decreases from +Inf). With du/dv
// the new-graph distances from the endpoints, every repaired entry is
// min(old, through-e candidate) — exact, by the decomposition above —
// so the whole repair is pure O(B² + N) arithmetic over the arrays. It
// runs identically on a full local shard (which computed du/dv with two
// Dijkstras) and on a remote mirror (which received them on the wire):
// everything it touches is identity-map and derived state.
func (s *Shard) applyDecrease(du, dv []float64, w float64) {
	// borderDist: a node's nearest border may now be cheaper through e.
	minBu, minBv := s.nearestBorder(du), s.nearestBorder(dv)
	for i := range s.borderDist {
		if c := du[i] + w + minBv; c < s.borderDist[i] {
			s.borderDist[i] = c
		}
		if c := dv[i] + w + minBu; c < s.borderDist[i] {
			s.borderDist[i] = c
		}
	}

	// btable: splice the through-e candidate into every arc, adding arcs
	// between borders the decrease newly connected.
	for _, a := range s.borders {
		la := s.localNode[a]
		dua, dva := du[la], dv[la]
		if isInf(dua) && isInf(dva) {
			continue // a cannot reach the touched edge: row unchanged
		}
		s.spliceRow(a, func(lb graph.NodeID, old float64) float64 {
			if c := dua + w + dv[lb]; c < old {
				old = c
			}
			if c := dva + w + du[lb]; c < old {
				old = c
			}
			return old
		})
	}
}

// spliceRow rewrites border a's btable row: for every other border b the
// new arc distance is next(localB, old) with old = +Inf for absent arcs;
// non-finite results stay absent. The row is assembled in session-free
// scratch first (a new arc may sort before unread old ones, so building
// in place would overwrite entries still to be merged) and copied over
// the old row only when something actually changed.
func (s *Shard) spliceRow(a graph.NodeID, next func(lb graph.NodeID, old float64) float64) {
	row := s.btable[a]
	s.rowScratch = s.rowScratch[:0]
	ri := 0 // read cursor over the old row (sorted by To, as borders are)
	changed := false
	for _, b := range s.borders {
		if b == a {
			continue
		}
		old := inf
		if ri < len(row) && row[ri].To == b {
			old = row[ri].Dist
			ri++
		}
		nd := next(s.localNode[b], old)
		if isInf(nd) {
			if !isInf(old) {
				changed = true
			}
			continue
		}
		if nd != old {
			changed = true
		}
		s.rowScratch = append(s.rowScratch, BorderArc{To: b, Dist: nd})
	}
	if changed {
		s.btable[a] = append(row[:0], s.rowScratch...)
	}
}

// refreshIncrease repairs btable and borderDist after a weight increase
// on chg.edge (closure is an increase to +Inf). Two e-excluding Dijkstras
// from the endpoints reconstruct what any old through-e optimum must have
// cost; entries that could not have crossed e are provably unchanged and
// skipped, the rest are recomputed from scratch (one bounded Dijkstra per
// stale border row, one multi-source Dijkstra if borderDist went stale).
// It reports which border rows it recomputed and whether borderDist was
// rebuilt, so hosts can ship exactly those to their router's mirror.
func (s *Shard) refreshIncrease(chg netChange) (stale []int, bdRebuilt bool) {
	// For a closure the edge is already detached from the adjacency
	// lists; for a re-weight it is live at the new weight and must be
	// excluded explicitly.
	exclude := chg.edge
	if isInf(chg.wNew) {
		exclude = graph.NoEdge
	}
	du := s.endpointDists(&s.du, chg.u, exclude)
	dv := s.endpointDists(&s.dv, chg.v, exclude)
	wOld := chg.wOld

	// borderDist filter: did ANY node's old nearest-border path cross e?
	// The old crossing cost from node i was ≥ du[i]+wOld+minBv (or the
	// v-side mirror), so if that lower bound beats the recorded distance
	// nowhere, every entry's old optimum avoided e and the array is
	// exact as-is.
	minBu, minBv := s.nearestBorder(du), s.nearestBorder(dv)
	for i, bd := range s.borderDist {
		lo := du[i] + wOld + minBv
		if alt := dv[i] + wOld + minBu; alt < lo {
			lo = alt
		}
		if !isInf(lo) && lo <= bd*(1+refreshTol) {
			s.rebuildBorderDist()
			bdRebuilt = true
			break
		}
	}

	// btable filter: a row is stale only if some arc's old optimum could
	// have crossed e. Absent arcs cannot be affected — an increase never
	// creates connectivity.
	for i, a := range s.borders {
		la := s.localNode[a]
		dua, dva := du[la], dv[la]
		if isInf(dua) && isInf(dva) {
			continue // a could not reach e at all
		}
		for _, arc := range s.btable[a] {
			lb := s.localNode[arc.To]
			bound := dua + wOld + dv[lb]
			if alt := dva + wOld + du[lb]; alt < bound {
				bound = alt
			}
			if bound <= arc.Dist*(1+refreshTol) {
				s.refreshBTableRow(i, s.localBorders)
				stale = append(stale, i)
				break
			}
		}
	}
	return stale, bdRebuilt
}
