package shard

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"road/internal/apierr"
	"road/internal/core"
	"road/internal/graph"
	"road/internal/obs"
)

// gatewayPred records how a border was best reached during a
// predecessor-tracking gateway run: over which shard's border table, from
// which previous border (NoNode for seed borders, whose "previous hop" is
// the query node inside via).
type gatewayPred struct {
	prev graph.NodeID
	via  ID
}

// gatewayHop is one border-to-border hop of a gateway route, in global
// IDs, inside shard via.
type gatewayHop struct {
	from, to graph.NodeID
	via      ID
}

// PathTo computes the detailed shortest route (as a global node sequence)
// from a global intersection to a global object, plus its network
// distance. Cross-shard routes are assembled from per-shard legs: the
// head leg inside the query's home shard, one leg per border-to-border
// gateway hop, and the tail leg inside the object's shard. Every leg is a
// route search on the shard's own index (see Searcher.Leg), which expands
// shortcut waypoints — shards always store them.
func (s *Session) PathTo(from graph.NodeID, gid graph.ObjectID) ([]graph.NodeID, float64, error) {
	path, dist, _, err := s.PathToLimited(from, gid, core.Limits{})
	return path, dist, err
}

// PathToLimited is PathTo under core.Limits, reporting traversal
// statistics: NodesPopped sums the nodes settled by every per-shard route
// leg, and ShardsSearched counts the shard indexes those legs ran on —
// the same metrics a single-index path query reports, which the plain
// PathTo predates and drops.
//
// Locking: a route can thread any subset of shards (head leg, gateway
// hops, tail leg), so the whole query runs under the whole-router read
// view — mutations anywhere are excluded for its duration.
func (s *Session) PathToLimited(from graph.NodeID, gid graph.ObjectID, lim core.Limits) ([]graph.NodeID, float64, core.QueryStats, error) {
	s.r.rlockAll()
	defer s.r.runlockAll()
	return s.pathToLocked(from, gid, lim)
}

// pathToLocked assembles the route in session scratch — the direct
// candidate in s.direct, the border route in s.route — and hands the
// caller a copy of the winner, so a warm session's route allocates a
// constant number of slices whatever its length.
func (s *Session) pathToLocked(from graph.NodeID, gid graph.ObjectID, lim core.Limits) ([]graph.NodeID, float64, core.QueryStats, error) {
	var stats core.QueryStats
	target, err := s.r.OwnerOfObject(gid)
	if err != nil {
		return nil, 0, stats, err
	}
	lo := target.localObj[gid]

	if int(from) < 0 || int(from) >= len(s.r.shardsOf) {
		return nil, 0, stats, fmt.Errorf("shard: node %d: %w", from, apierr.ErrNoSuchNode)
	}
	homes := s.r.shardsOf[from]
	if len(homes) == 0 {
		return nil, math.Inf(1), stats, fmt.Errorf("shard: object %d unreachable from node %d: %w", gid, from, apierr.ErrUnreachable)
	}

	bestDist := math.Inf(1)
	var best []graph.NodeID // s.direct or s.route, whichever won

	// Direct candidate: from and the object share a shard. The object's
	// edge endpoints are resolved shard-side (the mirror tracks object
	// identities, not payloads), and the returned distance includes the
	// along-edge offset.
	for _, h := range homes {
		if h != target.ID {
			continue
		}
		resp, err := s.legCall(h, LegReq{
			Seeds:  s.seed1(target.localNode[from]),
			PathTo: graph.NoNode,
			Object: lo,
		}, &stats, lim)
		if err != nil {
			return nil, 0, stats, err
		}
		if resp.Dist < bestDist {
			bestDist = resp.Dist
			s.direct = appendGlobal(s.direct[:0], target, resp.Path)
			best = s.direct
		}
	}

	// Border route: exact distances from the query node to its home
	// borders — capped at the direct candidate, past which no border can
	// lead anywhere cheaper — a predecessor-tracking gateway run, then a
	// multi-seed route leg inside the object's shard.
	var borderCap float64 // 0: uncapped
	if !isInf(bestDist) {
		borderCap = bestDist
	}
	clear(s.gdist)
	clear(s.homeOf)
	for _, h := range homes {
		sh := s.r.shards[h]
		if len(sh.borders) == 0 {
			continue
		}
		resp, err := s.legCall(h, LegReq{
			Seeds:   s.seed1(sh.localNode[from]),
			Targets: sh.localBorders,
			Cap:     borderCap,
			PathTo:  graph.NoNode,
			Object:  -1,
		}, &stats, lim)
		if err != nil {
			return nil, 0, stats, err
		}
		for i, b := range sh.borders {
			if d := resp.Dists[i]; !isInf(d) {
				if cur, ok := s.gdist[b]; !ok || d < cur {
					s.gdist[b] = d
					s.homeOf[b] = h
				}
			}
		}
	}
	s.seeds = s.seeds[:0]
	if len(s.gdist) > 0 {
		clear(s.pred)
		if err := s.gateway(bestDist, s.pred, lim); err != nil {
			stats.Truncated = true
			return nil, 0, stats, err
		}
		for _, b := range target.borders {
			if d, ok := s.gdist[b]; ok && d < bestDist {
				s.seeds = append(s.seeds, core.Seed{Node: target.localNode[b], Dist: d})
			}
		}
	}
	if len(s.seeds) > 0 {
		resp, err := s.legCall(target.ID, LegReq{
			Seeds:  s.seeds,
			PathTo: graph.NoNode,
			Object: lo,
		}, &stats, lim)
		if err != nil {
			return nil, 0, stats, err
		}
		if resp.Dist < bestDist {
			// Translate the tail now: the legs assemble runs may reuse the
			// target shard's searcher and with it the scratch resp aliases.
			s.tail = appendGlobal(s.tail[:0], target, resp.Path)
			route, err := s.assemble(s.route[:0], s.tail, from, &stats, lim)
			s.route = route
			if err != nil {
				return nil, 0, stats, err
			}
			bestDist = resp.Dist
			best = route
		}
	}

	if best == nil {
		return nil, math.Inf(1), stats, fmt.Errorf("shard: object %d unreachable from node %d: %w", gid, from, apierr.ErrUnreachable)
	}
	return slices.Clone(best), bestDist, stats, nil
}

// legCall runs one per-shard route leg through the shard's Searcher,
// passing down the remaining traversal budget and recording its cost:
// settled nodes into stats.NodesPopped, one more searched shard, and —
// when the query carries a trace — a timed "path_leg" record for the
// shard. Budget exhaustion and cancellation mark the stats truncated;
// other errors (a vanished object, an unreachable host) pass through
// untouched.
func (s *Session) legCall(sid ID, req LegReq, stats *core.QueryStats, lim core.Limits) (LegResp, error) {
	req.Budget = remainingBudget(lim, stats)
	done := obs.FromContext(lim.Ctx).StartLeg(obs.LegPathLeg, int(sid))
	resp, err := s.q[sid].Leg(lim.Ctx, req)
	stats.NodesPopped += resp.Pops
	stats.ShardsSearched++
	done(resp.Pops)
	if err != nil {
		if errors.Is(err, apierr.ErrBudgetExhausted) || errors.Is(err, apierr.ErrCanceled) {
			stats.Truncated = true
		}
		return resp, err
	}
	return resp, nil
}

// assemble appends the full global route to dst: head leg (query node to
// the first border inside its home shard), one leg per gateway hop, then
// tail, the already-translated leg inside the target shard, which starts
// at the entry border the gateway chain ends at.
func (s *Session) assemble(dst, tail []graph.NodeID, from graph.NodeID, stats *core.QueryStats, lim core.Limits) ([]graph.NodeID, error) {
	// Walk the gateway chain backward from the entry border to a seed.
	s.hops = s.hops[:0]
	cur := tail[0]
	for {
		p, ok := s.pred[cur]
		if !ok {
			return dst, fmt.Errorf("shard: broken gateway chain at border %d", cur)
		}
		if p.prev == graph.NoNode {
			break
		}
		s.hops = append(s.hops, gatewayHop{from: p.prev, to: cur, via: p.via})
		cur = p.prev
	}

	// Head leg: from -> first border, inside the home shard that supplied
	// the seed distance.
	home, ok := s.homeOf[cur]
	if !ok {
		return dst, fmt.Errorf("shard: gateway seed %d has no home shard", cur)
	}
	dst, err := s.appendLeg(dst, home, from, cur, stats, lim)
	if err != nil {
		return dst, err
	}
	// Gateway legs, collected target-to-source, in travel order.
	for i := len(s.hops) - 1; i >= 0; i-- {
		hp := s.hops[i]
		if dst, err = s.appendLeg(dst, hp.via, hp.from, hp.to, stats, lim); err != nil {
			return dst, err
		}
	}
	if len(dst) > 0 && dst[len(dst)-1] == tail[0] {
		tail = tail[1:] // drop the duplicated junction
	}
	return append(dst, tail...), nil
}

// appendLeg routes between two global nodes of shard sid and appends the
// leg to dst in global IDs, dropping its first node when dst already ends
// there (the junction with the previous leg).
func (s *Session) appendLeg(dst []graph.NodeID, sid ID, a, b graph.NodeID, stats *core.QueryStats, lim core.Limits) ([]graph.NodeID, error) {
	sh := s.r.shards[sid]
	la, okA := sh.localNode[a]
	lb, okB := sh.localNode[b]
	if !okA || !okB {
		return dst, fmt.Errorf("shard: leg %d->%d not inside shard %d", a, b, sid)
	}
	resp, err := s.legCall(sid, LegReq{
		Seeds:  s.seed1(la),
		PathTo: lb,
		Object: -1,
	}, stats, lim)
	if err != nil {
		return dst, err
	}
	if isInf(resp.Dist) {
		return dst, fmt.Errorf("shard: leg %d->%d no longer connected inside shard %d", a, b, sid)
	}
	path := resp.Path
	if len(dst) > 0 && len(path) > 0 && dst[len(dst)-1] == sh.globalNode[path[0]] {
		path = path[1:]
	}
	return appendGlobal(dst, sh, path), nil
}

// appendGlobal appends a shard-local node sequence to dst in global IDs.
func appendGlobal(dst []graph.NodeID, sh *Shard, path []graph.NodeID) []graph.NodeID {
	for _, n := range path {
		dst = append(dst, sh.globalNode[n])
	}
	return dst
}
