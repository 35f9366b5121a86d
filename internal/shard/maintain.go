package shard

import (
	"fmt"

	"road/internal/core"
	"road/internal/graph"
)

// Incremental derived-state maintenance (the paper's §5.2 filter-and-
// refresh, applied at the shard level).
//
// A shard's derived routing state — the border distance table btable and
// the per-node nearest-border array borderDist — depends only on the
// shard's local network, so a single network mutation can invalidate
// only the entries whose shortest path ran over the touched edge. The
// whole-shard rebuild (one Dijkstra per border plus one multi-source
// Dijkstra) recomputes every entry regardless; the functions in this file
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
//     every Rnet holding its edges (setBorders), so none lies in the
//     interior of the touched edge's leaf Rnet; distances between nodes
//     outside a leaf's interior are distances in that leaf's overlay
//     (every edge outside the leaf plus the leaf's shortcuts), and the
//     overlay did not change. Topology mutations never skip.
//
// borderDist is the classic dynamic single-source update (a virtual
// source joined to every border), repaired over the plain local graph:
//
//   - DECREASE: relax from the endpoint that improved and propagate only
//     improvements.
//   - INCREASE: if e was tight for neither orientation (bd[x]+wOld >
//     bd[y]), no node's nearest-border path used it. Otherwise the nodes
//     that may have changed are those reachable from y over tight edges
//     (the subtree e hung in the shortest-path forest); they are reset,
//     seeded from their neighbours outside the set and settled by a
//     Dijkstra confined to the set.
//
// Distances are floating-point sums associated differently by the filter
// (prefix + w + suffix) than by a plain traversal, so every "could the
// old path have used e" comparison carries refreshTol of relative slack:
// a false positive only wastes a refresh, while a false negative would
// leave a stale entry, so the slack errs toward refreshing.
//
// Everything here runs on the mutation path, under the owning shard's
// write lock (see router.go), after the shard's CSR slabs were re-warmed
// for the mutation: readers of this shard are excluded, readers of other
// shards are not — which is the point. Each repair records what it
// changed (repairScratch.rows, and the nodes whose borderDist moved), so
// a shard host ships exactly that outcome to its router's mirror.

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
// across mutations. Same locking discipline as Shard.bsearch.
type repairScratch struct {
	// sess runs the watched border searches over the shard's CSR index.
	sess *core.Session
	// du, dv: distances from the touched edge's endpoints to every
	// border; row: a stale row's fresh distances (all in borders order).
	du, dv, row []float64
	// arcs is the btable row under reassembly.
	arcs []BorderArc
	// rows lists the border indices whose btable row the last repair
	// changed.
	rows []int
	// mark flags the nodes listed in nodes (the increase's affected set,
	// or the nodes the decrease improved); cleared when the repair ends.
	mark []bool
	// nodes lists the nodes whose borderDist the last repair touched,
	// old their values before it (aligned).
	nodes []graph.NodeID
	old   []float64
	// seeds holds the sources of the search in progress.
	seeds []graph.Seed
}

// maintainDerived repairs the shard's derived routing state after one
// network mutation: the filter-and-refresh counterpart of a full
// refreshDerived. The caller has re-warmed the shard's CSR slabs (the
// border searches read them) and excludes this shard's readers. What
// changed is left in s.repair for derivedUpdate.
func (s *Shard) maintainDerived(chg netChange) error {
	rs := &s.repair
	rs.rows = rs.rows[:0]
	rs.nodes, rs.old = rs.nodes[:0], rs.old[:0]
	if chg.topology || s.watch == nil {
		s.watch = s.F.NewWatchSet(s.localBorders)
	}
	if len(s.borders) == 0 {
		return nil // no borders: btable empty, borderDist all +Inf, nothing derived from the network
	}
	s.repairBorderDist(chg)
	if len(s.borders) < 2 || chg.overlayKept {
		return nil
	}
	return s.repairBTable(chg)
}

// derivedUpdate packages the last repair's outcome for a remote mirror:
// the btable rows it changed, replaced whole, and the borderDist cells it
// changed. Nil when nothing changed.
func (s *Shard) derivedUpdate() *DerivedUpdate {
	rs := &s.repair
	u := &DerivedUpdate{Kind: DerivedPatch}
	for _, i := range rs.rows {
		b := s.borders[i]
		u.Rows = append(u.Rows, BorderRow{Border: b, Arcs: append([]BorderArc(nil), s.btable[b]...)})
	}
	for i, n := range rs.nodes {
		if d := s.borderDist[n]; d != rs.old[i] {
			u.Cells = append(u.Cells, BorderCell{Node: n, Dist: d})
		}
	}
	if len(u.Rows) == 0 && len(u.Cells) == 0 {
		return nil
	}
	return u
}

// borderDists returns, in dst's storage, the distance from local node
// src to every border in borders order: one watched search over the
// shard's CSR index.
func (s *Shard) borderDists(dst []float64, src graph.NodeID) ([]float64, error) {
	rs := &s.repair
	if rs.sess == nil {
		rs.sess = s.F.NewSession()
	}
	rs.seeds = append(rs.seeds[:0], graph.Seed{Node: src})
	d, _, err := rs.sess.WatchedDistances(dst[:0], rs.seeds, s.watch, 0, core.Limits{})
	if err != nil {
		return d, fmt.Errorf("shard %d: border search from local node %d: %w", s.ID, src, err)
	}
	return d, nil
}

// repairBTable is the btable half of maintainDerived: two border
// searches from the touched edge's endpoints, then the decrease splice or
// the increase filter over them.
func (s *Shard) repairBTable(chg netChange) error {
	rs := &s.repair
	var err error
	if rs.du, err = s.borderDists(rs.du, chg.u); err != nil {
		return err
	}
	if rs.dv, err = s.borderDists(rs.dv, chg.v); err != nil {
		return err
	}
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
		return nil
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
				if rs.row, err = s.borderDists(rs.row, s.localBorders[i]); err != nil {
					return err
				}
				fresh := rs.row
				s.spliceRow(i, func(j int, _ float64) float64 { return fresh[j] })
				break
			}
		}
	}
	return nil
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

// repairBorderDist is the borderDist half of maintainDerived (see the
// header comment), listing every node it touches in repair.nodes. Both
// cases run on bsearch, writing the settled distances into borderDist.
func (s *Shard) repairBorderDist(chg netChange) {
	rs := &s.repair
	bd := s.borderDist
	if len(rs.mark) != len(bd) {
		rs.mark = make([]bool, len(bd))
	}
	defer func() {
		for _, n := range rs.nodes {
			rs.mark[n] = false
		}
	}()
	rs.seeds = rs.seeds[:0]

	if chg.wNew <= chg.wOld {
		// Seed the endpoint that improves through e, then follow only
		// nodes the run improves: a node reached no closer than its
		// recorded distance passes nothing on.
		w := chg.wNew
		switch {
		case bd[chg.u]+w < bd[chg.v]:
			rs.seeds = append(rs.seeds, graph.Seed{Node: chg.v, Dist: bd[chg.u] + w})
		case bd[chg.v]+w < bd[chg.u]:
			rs.seeds = append(rs.seeds, graph.Seed{Node: chg.u, Dist: bd[chg.v] + w})
		default:
			return // neither endpoint improves through e
		}
		s.bsearch.RunSeeded(rs.seeds, graph.Options{Expand: func(n graph.NodeID, d float64) bool {
			if d >= bd[n] {
				return false
			}
			s.markAffected(n)
			bd[n] = d
			return true
		}})
		return
	}

	// Collect the affected set: the nodes hanging from e over tight edges.
	for _, o := range [2][2]graph.NodeID{{chg.u, chg.v}, {chg.v, chg.u}} {
		x, y := o[0], o[1]
		if !isInf(bd[y]) && !rs.mark[y] && bd[x]+chg.wOld <= bd[y]*(1+refreshTol) {
			s.markAffected(y)
		}
	}
	if len(rs.nodes) == 0 {
		return // e was on no node's nearest-border path
	}
	g := s.F.Graph()
	for k := 0; k < len(rs.nodes); k++ {
		p := rs.nodes[k]
		for _, h := range g.Neighbors(p) {
			q := h.To
			// Borders (bd 0) anchor the forest and never move.
			if rs.mark[q] || bd[q] == 0 || isInf(bd[q]) {
				continue
			}
			if bd[p]+g.Weight(h.Edge) <= bd[q]*(1+refreshTol) {
				s.markAffected(q)
			}
		}
	}
	// Reseed each affected node from its unaffected neighbours, whose
	// distances the increase cannot have changed, then settle the set
	// with a Dijkstra confined to it.
	for _, p := range rs.nodes {
		best := inf
		for _, h := range g.Neighbors(p) {
			if !rs.mark[h.To] {
				best = min(best, bd[h.To]+g.Weight(h.Edge))
			}
		}
		bd[p] = best
		if !isInf(best) {
			rs.seeds = append(rs.seeds, graph.Seed{Node: p, Dist: best})
		}
	}
	s.bsearch.RunSeeded(rs.seeds, graph.Options{
		Filter: func(e graph.EdgeID) bool {
			ed := g.Edge(e)
			return rs.mark[ed.U] && rs.mark[ed.V]
		},
		OnSettle: func(n graph.NodeID, d float64) bool {
			bd[n] = d
			return true
		},
	})
}

// markAffected adds n to the repair's touched set, remembering its value.
func (s *Shard) markAffected(n graph.NodeID) {
	rs := &s.repair
	rs.mark[n] = true
	rs.nodes = append(rs.nodes, n)
	rs.old = append(rs.old, s.borderDist[n])
}
