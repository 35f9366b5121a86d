package shard

import (
	"road/internal/core"
	"road/internal/graph"
)

// Incremental derived-state maintenance (the paper's §5.2 filter-and-
// refresh, applied at the shard level).
//
// A shard's derived routing state — the border distance table btable —
// depends only on the shard's local network, so a single network
// mutation can invalidate only the entries whose shortest path ran over
// the touched edge. The whole-shard rebuild (one border search per
// border) recomputes every entry regardless; the functions in this file
// instead find what the change can touch and refresh only that, so a
// mutation costs what it changed.
//
// Let e = (u,v) be the touched edge and d(·,·) shortest distances in the
// shard's local graph (positive weights, undirected: a shortest path is
// simple and crosses e at most once, splitting into e-avoiding segments).
//
// btable. Two watched searches over the shard's own CSR index
// (core.Session.WatchedDistances, from u and from v, watching the
// borders) give the B-length arrays du, dv of new-graph distances from
// the endpoints to every border; everything after is O(B²) arithmetic.
//
//   - Weight DECREASE (reopen and road addition are decreases from +Inf):
//     the new distance is exactly
//
//	d'(a,b) = min( d(a,b), d'(a,u)+w'+d'(v,b), d'(a,v)+w'+d'(u,b) )
//
//     — the old value, or the best path through e at its new weight —
//     spliced into every row with no per-entry recomputation.
//
//   - Weight INCREASE (closure is an increase to +Inf): an arc whose old
//     optimum avoided e is untouched. One that crossed e had length
//     dᵉ(a,u)+w+dᵉ(v,b) (orientation as appropriate), with dᵉ the
//     distance avoiding e. The new-graph distances are ≤ dᵉ (for a
//     closure, equal), so du[a]+w+dv[b] ≤ arc marks every arc that could
//     have crossed e — the filter can refresh too much, never too
//     little. A flagged row is recomputed with one more watched search,
//     seeded at its border.
//
//   - SKIP. A re-weight after which the hierarchy changed no shortcut
//     set cannot change btable. Every shard border is a pinned border of
//     every Rnet holding its edges (pinBorders), so none lies in the
//     interior of the touched edge's leaf Rnet; distances between nodes
//     outside a leaf's interior are distances in that leaf's overlay
//     (every edge outside the leaf plus the leaf's shortcuts), and the
//     overlay did not change. Topology mutations never skip.
//
// Distances are floating-point sums associated differently by the filter
// (prefix + w + suffix) than by a plain traversal, so the increase
// filter's "could the old path have used e" comparison carries
// refreshTol of relative slack: a false positive only wastes a refresh,
// while a false negative would leave a stale entry, so the slack errs
// toward refreshing.
//
// Everything here runs on the mutation path, under the owning shard's
// write lock (see router.go), after the shard's CSR slabs were re-warmed
// for the mutation: readers of this shard are excluded, readers of other
// shards are not — which is the point. Each repair records the rows it
// changed (repairScratch.rows), so a shard host ships exactly that
// outcome to its router's mirror.

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
	// overlayKept marks a re-weight after which the hierarchy changed no
	// shortcut set (its leaf filter proved none affected, or the refresh
	// recomputed identical sets); btable then cannot have changed, and
	// its repair is skipped.
	overlayKept bool
}

// refreshTol is the relative slack of the filter comparisons, generously
// above worst-case float64 association drift on any realistic path length
// (≲1e-11) and below any meaningful distance difference.
const refreshTol = 1e-9

// repairScratch is the mutation-path workspace of maintain.go, reused
// across mutations (Shard.repair, which documents its locking).
type repairScratch struct {
	// sess runs the border searches over the shard's CSR index.
	sess *core.Session
	// du, dv: distances from the touched edge's endpoints to every
	// border; row: a stale row's fresh distances (all in borders order).
	du, dv, row []float64
	// arcs is the btable row under reassembly.
	arcs []BorderArc
	// rows lists the border indices whose btable row the last repair
	// changed.
	rows []int
}

// maintainDerived repairs the shard's derived routing state after one
// network mutation: the filter-and-refresh counterpart of a full
// refreshDerived. The caller has re-warmed the shard's CSR slabs (the
// border searches read them) and excludes this shard's readers. What
// changed is left in s.repair for derivedUpdate.
func (s *Shard) maintainDerived(chg netChange) {
	s.repair.rows = s.repair.rows[:0]
	if chg.topology || s.watch == nil {
		s.watch = s.F.NewWatchSet(s.localBorders)
	}
	if len(s.borders) < 2 || chg.overlayKept {
		return // no arcs to repair, or none can have changed
	}
	s.repairBTable(chg)
}

// derivedUpdate packages the last repair's outcome for a remote mirror:
// the btable rows it changed, replaced whole. Nil when nothing changed.
func (s *Shard) derivedUpdate() *DerivedUpdate {
	rs := &s.repair
	if len(rs.rows) == 0 {
		return nil
	}
	u := &DerivedUpdate{Kind: DerivedPatch}
	for _, i := range rs.rows {
		b := s.borders[i]
		u.Rows = append(u.Rows, BorderRow{Border: b, Arcs: append([]BorderArc(nil), s.btable[b]...)})
	}
	return u
}

// distToBorders returns, in dst's storage, the distance from local node
// src to every border in borders order: one watched search over the
// shard's CSR index. It runs unlimited from a node of the shard, so it
// cannot fail.
func (s *Shard) distToBorders(dst []float64, src graph.NodeID) []float64 {
	rs := &s.repair
	if rs.sess == nil {
		rs.sess = s.F.NewSession()
	}
	seed := [1]core.Seed{{Node: src}}
	d, _, _ := rs.sess.WatchedDistances(dst[:0], seed[:], s.watch, 0, core.Limits{})
	return d
}

// repairBTable is the btable half of maintainDerived: two border
// searches from the touched edge's endpoints, then the decrease splice or
// the increase filter over them.
func (s *Shard) repairBTable(chg netChange) {
	rs := &s.repair
	rs.du = s.distToBorders(rs.du, chg.u)
	rs.dv = s.distToBorders(rs.dv, chg.v)
	du, dv := rs.du, rs.dv

	if chg.wNew <= chg.wOld {
		// Splice the through-e candidate into every arc, adding arcs
		// between borders the decrease newly connected.
		w := chg.wNew
		for i := range s.borders {
			dua, dva := du[i], dv[i]
			if isInf(dua) && isInf(dva) {
				continue // border i cannot reach the touched edge: row unchanged
			}
			s.spliceRow(i, func(j int, old float64) float64 {
				return min(old, dua+w+dv[j], dva+w+du[j])
			})
		}
		return
	}

	// A row is stale only if some arc's old optimum could have crossed e.
	// Absent arcs cannot be affected: an increase never creates
	// connectivity.
	wOld := chg.wOld
	for i, a := range s.borders {
		dua, dva := du[i], dv[i]
		if isInf(dua) && isInf(dva) {
			continue // border i could not reach e at all
		}
		j := 0 // cursor into borders: arcs are sorted by To, as borders are
		for _, arc := range s.btable[a] {
			for s.borders[j] != arc.To {
				j++
			}
			bound := min(dua+wOld+dv[j], dva+wOld+du[j])
			if bound <= arc.Dist*(1+refreshTol) {
				rs.row = s.distToBorders(rs.row, s.localBorders[i])
				fresh := rs.row
				s.spliceRow(i, func(j int, _ float64) float64 { return fresh[j] })
				break
			}
		}
	}
}

// spliceRow rewrites border i's btable row: for every other border j the
// new arc distance is next(j, old) with old = +Inf for absent arcs;
// non-finite results stay absent. The row is assembled in scratch first
// (a new arc may sort before unread old ones, so building in place would
// overwrite entries still to be merged), copied over the old row only
// when something changed, and then recorded in repair.rows.
func (s *Shard) spliceRow(i int, next func(j int, old float64) float64) {
	rs := &s.repair
	a := s.borders[i]
	row := s.btable[a]
	rs.arcs = rs.arcs[:0]
	ri := 0 // read cursor over the old row (sorted by To, as borders are)
	changed := false
	for j, b := range s.borders {
		if j == i {
			continue
		}
		old := inf
		if ri < len(row) && row[ri].To == b {
			old = row[ri].Dist
			ri++
		}
		nd := next(j, old)
		if isInf(nd) {
			if !isInf(old) {
				changed = true
			}
			continue
		}
		if nd != old {
			changed = true
		}
		rs.arcs = append(rs.arcs, BorderArc{To: b, Dist: nd})
	}
	if changed {
		s.btable[a] = append(row[:0], rs.arcs...)
		rs.rows = append(rs.rows, i)
	}
}
