package shard

import (
	"math"
	"sort"

	"road/internal/core"
	"road/internal/graph"
	"road/internal/obs"
	"road/internal/pqueue"
)

// Session is a read-only cross-shard query context: one Searcher per
// shard plus the gateway scratch state. Any number of Sessions may query
// concurrently, and queries may overlap Router mutations: each query
// synchronizes itself against them with the router's per-shard read
// locks (home shard only on the fast path, all shards on the
// cross-shard path), so a mutation stalls only readers of its own
// shard plus cross-shard readers. One Session still serves one goroutine
// at a time — its scratch state is not shared.
//
// The Session never touches shard compute directly: every expansion goes
// through the shard's Searcher (in-process core.Session or an RPC to the
// shard's host), while all identity translation and the gateway Dijkstra
// stay here, on the router side.
type Session struct {
	r       *Router
	q       []Searcher               // per-shard compute handles
	gdist   map[graph.NodeID]float64 // per-query: gateway distances, GLOBAL IDs
	gpq     pqueue.SearchQueue
	m       merger       // per-query candidate merge (scratch reused)
	entry   []shardEntry // per-query entry-order scratch
	oneSeed []core.Seed  // single-seed scratch for home searches

	// Route scratch (path.go), cleared per PathTo: the home shard each
	// gateway seed border was reached through, the gateway predecessors,
	// the tail leg's seeds, the gateway chain, and the candidate routes.
	homeOf              map[graph.NodeID]ID
	pred                map[graph.NodeID]gatewayPred
	seeds               []core.Seed
	hops                []gatewayHop
	direct, tail, route []graph.NodeID
}

// NewSession returns an independent concurrent query context. Safe to
// call while other sessions query and mutations run: each shard's
// searcher is constructed under that shard's read lock, and constructing
// one writes nothing shared (the CSR slabs it reads are current from
// Build or Restore on).
func (r *Router) NewSession() *Session {
	q := make([]Searcher, len(r.shards))
	for i, s := range r.shards {
		r.shardMu[i].RLock()
		q[i] = s.newSearcher()
		r.shardMu[i].RUnlock()
	}
	return &Session{
		r:      r,
		q:      q,
		gdist:  make(map[graph.NodeID]float64),
		m:      merger{at: make(map[graph.ObjectID]int)},
		homeOf: make(map[graph.NodeID]ID),
		pred:   make(map[graph.NodeID]gatewayPred),
	}
}

// Epoch returns the router's maintenance epoch as seen by this session.
func (s *Session) Epoch() uint64 { return s.r.Epoch() }

// merger accumulates per-shard candidate lists, keeping the minimum
// distance per global object (the home shard can be searched twice: once
// directly from the query node, once re-entered through its borders; an
// object near a border is found by several shard searches). It is
// session-owned scratch: reset() recycles the map and slices, and take()
// hands results out in a fresh slice so callers (and the serving layer's
// result cache) never alias the scratch.
type merger struct {
	at    map[graph.ObjectID]int
	items []core.Result
	dists []float64 // kth scratch
}

func (m *merger) reset() {
	clear(m.at)
	m.items = m.items[:0]
}

// addFrom merges shard-local results, translated to global identities on
// the fly (no intermediate slice).
func (m *merger) addFrom(sh *Shard, res []core.Result) {
	for _, r := range res {
		r.Object.ID = sh.globalObj[r.Object.ID]
		r.Object.Edge = sh.globalEdge[r.Object.Edge]
		if i, ok := m.at[r.Object.ID]; ok {
			if r.Dist < m.items[i].Dist {
				m.items[i] = r
			}
			continue
		}
		m.at[r.Object.ID] = len(m.items)
		m.items = append(m.items, r)
	}
}

// take sorts the candidates by (distance, object ID) and returns the
// first ≤ max of them in a freshly allocated slice.
func (m *merger) take(max int) []core.Result {
	sort.Slice(m.items, func(i, j int) bool {
		if m.items[i].Dist != m.items[j].Dist {
			return m.items[i].Dist < m.items[j].Dist
		}
		return m.items[i].Object.ID < m.items[j].Object.ID
	})
	n := len(m.items)
	if max >= 0 && n > max {
		n = max
	}
	if n == 0 {
		return nil
	}
	out := make([]core.Result, n)
	copy(out, m.items[:n])
	return out
}

// kth returns the current kth-smallest candidate distance, or +Inf while
// fewer than k candidates are known — the cross-shard merge bound. It
// leaves the candidate order untouched (the dedup index stays valid).
func (m *merger) kth(k int) float64 {
	if len(m.items) < k {
		return math.Inf(1)
	}
	m.dists = m.dists[:0]
	for i := range m.items {
		m.dists = append(m.dists, m.items[i].Dist)
	}
	sort.Float64s(m.dists)
	return m.dists[k-1]
}

// searchShard runs one per-shard expansion through the shard's Searcher,
// passing down whatever traversal budget the nodes already settled leave
// over, timing it as a trace leg, and folding its stats into the query's.
func (s *Session) searchShard(h ID, leg obs.LegName, req SearchReq, lim core.Limits, stats *core.QueryStats) (SearchResp, error) {
	req.Budget = remainingBudget(lim, stats)
	done := obs.FromContext(lim.Ctx).StartLeg(leg, int(h))
	resp, err := s.q[h].Search(lim.Ctx, req)
	accumulate(stats, resp.Stats)
	done(resp.Stats.NodesPopped)
	return resp, err
}

// remainingBudget derives the node-settlement budget for the next
// per-shard sub-search from the query-wide budget and the work done so
// far. Zero means "unlimited", so an exhausted budget is represented as
// the smallest positive bound — the sub-search stops on its first pop
// and reports ErrBudgetExhausted.
func remainingBudget(lim core.Limits, stats *core.QueryStats) int {
	if lim.Budget <= 0 {
		return 0
	}
	remaining := lim.Budget - stats.NodesPopped
	if remaining < 1 {
		remaining = 1
	}
	return remaining
}

// mergeWatched folds one shard's watched border distances (local IDs)
// into the global gateway seed map, keeping the minimum per border.
func (s *Session) mergeWatched(sh *Shard, watched []WatchDist) {
	for _, wd := range watched {
		gb := sh.globalNode[wd.Node]
		if cur, ok := s.gdist[gb]; !ok || wd.Dist < cur {
			s.gdist[gb] = wd.Dist
		}
	}
}

// KNN answers a cross-shard k-nearest-neighbour query from a global node.
//
// Phase 1 searches the query node's home shard(s) directly, watching
// their border nodes: by the Dijkstra settling order this yields the k
// locally nearest objects AND the exact distance to every border closer
// than the local kth result — precisely the gateways a globally closer
// object could be reached through. Phase 2 runs Dijkstra over the border
// gateway graph (per-shard border distance tables), capped at the local
// kth distance. Phase 3 enters remaining shards in ascending entry
// distance, seeding each shard's framework at its borders; a shard whose
// entry distance is at or beyond the current kth-best is skipped, and
// because shards are processed in entry order the first skip finalizes
// the result set.
func (s *Session) KNN(from graph.NodeID, k int, attr int32) ([]core.Result, core.QueryStats) {
	res, stats, _ := s.KNNLimited(from, k, attr, core.Limits{})
	return res, stats
}

// KNNLimited is KNN under core.Limits: the context is polled inside every
// per-shard expansion and between phases, and the budget caps the total
// nodes settled across all shards the query touches. On truncation the
// candidates merged so far are returned (a valid, possibly incomplete,
// subset) with Stats.Truncated set.
//
// Locking: a single-home query first runs its watched home search under
// the home shard's read lock alone (homeFast); only when a border lies
// closer than the local kth result does it take the whole-router read
// view, where it keeps that search unless the home shard's epoch moved
// in between (homeLocked). The budget spans both attempts, and
// NodesPopped reports the query's total work.
func (s *Session) KNNLimited(from graph.NodeID, k int, attr int32, lim core.Limits) ([]core.Result, core.QueryStats, error) {
	var stats core.QueryStats
	if k <= 0 || int(from) < 0 || int(from) >= len(s.r.shardsOf) {
		return nil, stats, nil
	}
	homes := s.r.shardsOf[from]
	if len(homes) == 0 {
		return nil, stats, nil // isolated intersection: nothing is reachable
	}
	if len(homes) > 1 {
		s.r.rlockAll()
		defer s.r.runlockAll()
		return s.knnSlowMulti(homes, from, k, attr, stats, lim)
	}
	h := homes[0]
	run, final := s.homeFast(h, from, SearchReq{Attr: attr, K: k}, lim)
	if final {
		return run.resp.Results, run.stats, run.err
	}
	s.r.shards[h].escalations.Add(1)
	s.r.rlockAll()
	defer s.r.runlockAll()
	return s.knnHomeLocked(h, from, k, attr, lim, run)
}

// homeRun is a single-home query's watched home search: its response,
// the query's stats so far, and the home shard's epoch when it ran.
type homeRun struct {
	resp  SearchResp
	stats core.QueryStats
	err   error
	epoch uint64
}

// homeFast is the single-home fast path: one watched search from the
// query node under the home shard's read lock alone, recording the
// shard's epoch under the same lock. Every border it settles gets its
// exact distance (the borders are pinned Rnet borders, reached through
// shortcuts). It reports whether the answer is already globally final
// (run.final), and translates a final answer to global identities
// before the lock is released: a mutation may grow the identity maps.
func (s *Session) homeFast(h ID, from graph.NodeID, req SearchReq, lim core.Limits) (homeRun, bool) {
	s.r.shardMu[h].RLock()
	defer s.r.shardMu[h].RUnlock()
	sh := s.r.shards[h]
	sh.homeQueries.Add(1)
	run := homeRun{epoch: sh.epoch()}
	req.Seeds, req.Watch = s.seed1(sh.localNode[from]), true
	run.resp, run.err = s.searchShard(h, obs.LegHomeFast, req, lim, &run.stats)
	if !run.final(req.K) {
		return run, false
	}
	translateInPlace(sh, run.resp.Results)
	return run, true
}

// homeLocked brings a fast-path run into the whole-router read view: it
// stands as it is when the home shard's epoch has not moved since, and
// is re-run once otherwise — keeping the fast attempt's pops, so the
// budget spans both attempts. Runs under rlockAll.
func (s *Session) homeLocked(h ID, from graph.NodeID, req SearchReq, lim core.Limits, run homeRun) homeRun {
	sh := s.r.shards[h]
	if ep := sh.epoch(); ep != run.epoch {
		run = homeRun{epoch: ep, stats: core.QueryStats{NodesPopped: run.stats.NodesPopped}}
		req.Seeds, req.Watch = s.seed1(sh.localNode[from]), true
		run.resp, run.err = s.searchShard(h, obs.LegHomeLocked, req, lim, &run.stats)
	}
	return run
}

// final reports whether a home run's answer is globally final: it
// failed (the partial prefix is the answer), or it settled no watched
// border strictly below the bound — the kth result's distance for a kNN
// run (k > 0), +Inf for a range run, which settles only borders within
// its radius. Any path into another shard passes a border, so no
// foreign object can beat an answer within the bound.
func (run *homeRun) final(k int) bool {
	if run.err != nil {
		return true
	}
	bound := inf
	if k > 0 {
		bound = kthOf(run.resp.Results, k)
	}
	for _, wd := range run.resp.Watched {
		if wd.Dist < bound {
			return false
		}
	}
	return true
}

// kthOf is the kth result's distance, or +Inf while fewer than k.
func kthOf(res []core.Result, k int) float64 {
	if len(res) < k {
		return inf
	}
	return res[k-1].Dist
}

// knnHomeLocked is the single-home cross-shard path, run under the
// whole-router read view on the fast path's run (homeLocked). The
// gateway runs first — if no shard's entry distance beats the local kth
// bound, the home answer is final without touching the merge machinery
// (the usual outcome when a border is merely near).
func (s *Session) knnHomeLocked(h ID, from graph.NodeID, k int, attr int32, lim core.Limits, run homeRun) ([]core.Result, core.QueryStats, error) {
	sh := s.r.shards[h]
	run = s.homeLocked(h, from, SearchReq{Attr: attr, K: k}, lim, run)
	res, stats := run.resp.Results, run.stats
	if run.final(k) {
		return translateInPlace(sh, res), stats, run.err
	}
	bound := kthOf(res, k)
	clear(s.gdist)
	s.mergeWatched(sh, run.resp.Watched)
	if err := s.gateway(bound, nil, lim); err != nil {
		stats.Truncated = true
		return translateInPlace(sh, res), stats, err
	}
	entries := s.entryOrder()
	if len(entries) == 0 || entries[0].dist >= bound {
		return translateInPlace(sh, res), stats, nil
	}
	s.m.reset()
	s.m.addFrom(sh, res)
	return s.knnFinish(k, attr, stats, lim)
}

// knnSlowMulti handles a query node that is itself a global border:
// every containing shard is searched with its borders watched, then the
// merge runs over the combined gateway.
func (s *Session) knnSlowMulti(homes []ID, from graph.NodeID, k int, attr int32, stats core.QueryStats, lim core.Limits) ([]core.Result, core.QueryStats, error) {
	m := &s.m
	m.reset()
	clear(s.gdist)
	for _, h := range homes {
		sh := s.r.shards[h]
		sh.homeQueries.Add(1)
		resp, err := s.searchShard(h, obs.LegHomeWatched,
			SearchReq{Seeds: s.seed1(sh.localNode[from]), Attr: attr, K: k, Watch: true}, lim, &stats)
		m.addFrom(sh, resp.Results)
		if err != nil {
			return m.take(k), stats, err
		}
		s.mergeWatched(sh, resp.Watched)
	}
	if len(s.gdist) == 0 {
		// No border reachable: the merged home answers are final.
		return m.take(k), stats, nil
	}
	if err := s.gateway(m.kth(k), nil, lim); err != nil {
		stats.Truncated = true
		return m.take(k), stats, err
	}
	return s.knnFinish(k, attr, stats, lim)
}

// knnFinish runs the merge-bound loop: shards are searched in ascending
// entry order, each seeded at its borders with their global distances
// and capped at the current kth-best, until no unexplored shard could
// still improve the candidate set.
func (s *Session) knnFinish(k int, attr int32, stats core.QueryStats, lim core.Limits) ([]core.Result, core.QueryStats, error) {
	m := &s.m
	for _, en := range s.entryOrder() {
		bound := m.kth(k)
		if en.dist >= bound {
			break // merge bound: no unexplored shard can improve the set
		}
		sh := s.r.shards[en.id]
		seeds := s.borderSeeds(sh, bound)
		if len(seeds) == 0 {
			continue
		}
		// With fewer than k candidates the bound is +Inf and stopAt stays
		// 0 (unbounded).
		stopAt := 0.0
		if !math.IsInf(bound, 1) {
			stopAt = bound
		}
		sh.remoteEntries.Add(1)
		resp, err := s.searchShard(en.id, obs.LegEnter,
			SearchReq{Seeds: seeds, Attr: attr, K: k, Radius: stopAt}, lim, &stats)
		m.addFrom(sh, resp.Results)
		if err != nil {
			return m.take(k), stats, err
		}
	}
	return m.take(k), stats, nil
}

// Within answers a cross-shard range query: all objects within the given
// network distance, closest first. The radius plays the role of the merge
// bound: shards whose entry distance exceeds it are never searched.
func (s *Session) Within(from graph.NodeID, radius float64, attr int32) ([]core.Result, core.QueryStats) {
	res, stats, _ := s.WithinLimited(from, radius, attr, core.Limits{})
	return res, stats
}

// WithinLimited is Within under core.Limits; see KNNLimited for the
// truncation contract and the two-phase locking scheme. A single-home
// range answer is final when the watched home search settled no border
// at all: no path can then leave the shard within the radius.
func (s *Session) WithinLimited(from graph.NodeID, radius float64, attr int32, lim core.Limits) ([]core.Result, core.QueryStats, error) {
	var stats core.QueryStats
	if int(from) < 0 || int(from) >= len(s.r.shardsOf) || !(radius >= 0) {
		return nil, stats, nil
	}
	homes := s.r.shardsOf[from]
	if len(homes) == 0 {
		return nil, stats, nil
	}
	if len(homes) > 1 {
		s.r.rlockAll()
		defer s.r.runlockAll()
		return s.withinSlowMulti(homes, from, radius, attr, stats, lim)
	}
	h := homes[0]
	run, final := s.homeFast(h, from, SearchReq{Attr: attr, Radius: radius}, lim)
	if final {
		return run.resp.Results, run.stats, run.err
	}
	s.r.shards[h].escalations.Add(1)
	s.r.rlockAll()
	defer s.r.runlockAll()
	return s.withinHomeLocked(h, from, radius, attr, lim, run)
}

// withinHomeLocked is the single-home range path under the whole-router
// read view, on the fast path's run (homeLocked).
func (s *Session) withinHomeLocked(h ID, from graph.NodeID, radius float64, attr int32, lim core.Limits, run homeRun) ([]core.Result, core.QueryStats, error) {
	sh := s.r.shards[h]
	run = s.homeLocked(h, from, SearchReq{Attr: attr, Radius: radius}, lim, run)
	if run.final(0) {
		return translateInPlace(sh, run.resp.Results), run.stats, run.err
	}
	clear(s.gdist)
	s.mergeWatched(sh, run.resp.Watched)
	s.m.reset()
	s.m.addFrom(sh, run.resp.Results)
	return s.withinFinish(radius, attr, run.stats, lim)
}

// withinSlowMulti is the multi-home (border query node) range path.
func (s *Session) withinSlowMulti(homes []ID, from graph.NodeID, radius float64, attr int32, stats core.QueryStats, lim core.Limits) ([]core.Result, core.QueryStats, error) {
	m := &s.m
	m.reset()
	clear(s.gdist)
	for _, h := range homes {
		sh := s.r.shards[h]
		sh.homeQueries.Add(1)
		resp, err := s.searchShard(h, obs.LegHomeWatched,
			SearchReq{Seeds: s.seed1(sh.localNode[from]), Attr: attr, Radius: radius, Watch: true}, lim, &stats)
		m.addFrom(sh, resp.Results)
		if err != nil {
			return m.take(-1), stats, err
		}
		s.mergeWatched(sh, resp.Watched)
	}
	if len(s.gdist) == 0 {
		return m.take(-1), stats, nil
	}
	return s.withinFinish(radius, attr, stats, lim)
}

// withinFinish expands the range query through the gateway into every
// shard whose entry distance is within the radius, then merges.
func (s *Session) withinFinish(radius float64, attr int32, stats core.QueryStats, lim core.Limits) ([]core.Result, core.QueryStats, error) {
	m := &s.m
	if err := s.gateway(radius, nil, lim); err != nil {
		stats.Truncated = true
		return m.take(-1), stats, err
	}
	for _, en := range s.entryOrder() {
		if en.dist > radius {
			break
		}
		sh := s.r.shards[en.id]
		seeds := s.borderSeeds(sh, math.Nextafter(radius, math.Inf(1)))
		if len(seeds) == 0 {
			continue
		}
		sh.remoteEntries.Add(1)
		resp, err := s.searchShard(en.id, obs.LegEnter,
			SearchReq{Seeds: seeds, Attr: attr, Radius: radius}, lim, &stats)
		m.addFrom(sh, resp.Results)
		if err != nil {
			return m.take(-1), stats, err
		}
	}
	// Drop candidates the double-entry merge may have pulled in beyond
	// the radius (a re-entered home search never can, but stay defensive).
	out := m.take(-1)
	for len(out) > 0 && out[len(out)-1].Dist > radius {
		out = out[:len(out)-1]
	}
	return out, stats, nil
}

// gateway extends s.gdist — seeded with exact distances from the query
// node to its home shard's borders — to every border node reachable
// within cap, by Dijkstra over the shards' border distance tables. The
// result is the exact global network distance to each reached border:
// any q-to-border path decomposes into maximal single-shard segments
// whose endpoints are borders, and each segment is bounded below by (and
// realized through) its shard's border table arc.
//
// When pred is non-nil every relaxation is recorded in it (seed borders
// get prev == NoNode), so PathTo can reconstruct the border chain;
// queries pass nil and skip the bookkeeping.
//
// The gateway graph is tiny next to the shard networks (borders only),
// but it still honours lim's context so a canceled query cannot stall in
// a pathological border mesh; the traversal budget does not apply here —
// gateway pops are border-table lookups, not network-node settlements.
// The border tables it reads live router-side for remote shards too, so
// the gateway never blocks on the network.
func (s *Session) gateway(cap float64, pred map[graph.NodeID]gatewayPred, lim core.Limits) error {
	s.gpq.Reset()
	for b, d := range s.gdist {
		s.gpq.Push(int32(b), -1, d)
		if pred != nil {
			pred[b] = gatewayPred{prev: graph.NoNode}
		}
	}
	pops := 0
	if tr := obs.FromContext(lim.Ctx); tr != nil {
		done := tr.StartLeg(obs.LegGateway, -1)
		defer func() { done(pops) }()
	}
	for s.gpq.Len() > 0 {
		item, _ := s.gpq.Pop()
		d := item.Prio
		if d > cap {
			break
		}
		pops++
		if err := (core.Limits{Ctx: lim.Ctx}).Stop(pops); err != nil {
			return err
		}
		b := graph.NodeID(item.Node)
		if d > s.gdist[b] {
			continue // superseded entry
		}
		for _, sid := range s.r.shardsOf[b] {
			for _, arc := range s.r.shards[sid].btable[b] {
				nd := d + arc.Dist
				if nd > cap {
					continue
				}
				if cur, ok := s.gdist[arc.To]; !ok || nd < cur {
					s.gdist[arc.To] = nd
					if pred != nil {
						pred[arc.To] = gatewayPred{prev: b, via: sid}
					}
					s.gpq.Push(int32(arc.To), -1, nd)
				}
			}
		}
	}
	return nil
}

// shardEntry is a shard's entry distance: the cheapest gateway distance
// among its borders.
type shardEntry struct {
	id   ID
	dist float64
}

// entryOrder derives per-shard entry distances from the gateway result,
// ascending (into session scratch). Every listed shard has at least one
// reached border.
func (s *Session) entryOrder() []shardEntry {
	s.entry = s.entry[:0]
	for b, d := range s.gdist {
		for _, sid := range s.r.shardsOf[b] {
			found := false
			for i := range s.entry {
				if s.entry[i].id == sid {
					if d < s.entry[i].dist {
						s.entry[i].dist = d
					}
					found = true
					break
				}
			}
			if !found {
				s.entry = append(s.entry, shardEntry{id: sid, dist: d})
			}
		}
	}
	sort.Slice(s.entry, func(i, j int) bool {
		if s.entry[i].dist != s.entry[j].dist {
			return s.entry[i].dist < s.entry[j].dist
		}
		return s.entry[i].id < s.entry[j].id
	})
	return s.entry
}

// borderSeeds assembles the seed list for entering sh: its borders the
// gateway reached strictly below the bound, at their global distances,
// translated to shard-local IDs.
func (s *Session) borderSeeds(sh *Shard, bound float64) []core.Seed {
	var seeds []core.Seed
	for _, b := range sh.borders {
		if d, ok := s.gdist[b]; ok && d < bound {
			seeds = append(seeds, core.Seed{Node: sh.localNode[b], Dist: d})
		}
	}
	return seeds
}

// seed1 returns the session's single-seed scratch holding just node n.
func (s *Session) seed1(n graph.NodeID) []core.Seed {
	if s.oneSeed == nil {
		s.oneSeed = make([]core.Seed, 1)
	}
	s.oneSeed[0] = core.Seed{Node: n}
	return s.oneSeed
}

// translateInPlace rewrites shard-local identities to global ones inside
// res — which the search freshly allocated, so handing it to the caller
// (and the serving layer's cache) is safe.
func translateInPlace(sh *Shard, res []core.Result) []core.Result {
	for i := range res {
		res[i].Object.ID = sh.globalObj[res[i].Object.ID]
		res[i].Object.Edge = sh.globalEdge[res[i].Object.Edge]
	}
	return res
}

func accumulate(dst *core.QueryStats, st core.QueryStats) {
	dst.NodesPopped += st.NodesPopped
	dst.RnetsBypassed += st.RnetsBypassed
	dst.RnetsDescended += st.RnetsDescended
	dst.ShardsSearched += st.ShardsSearched
	dst.Truncated = dst.Truncated || st.Truncated
}
