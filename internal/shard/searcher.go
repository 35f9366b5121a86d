package shard

import (
	"context"
	"fmt"
	"slices"

	"road/internal/core"
	"road/internal/graph"
)

// A Searcher is one query session's handle onto one shard's compute
// surface, in SHARD-LOCAL coordinates. The cross-shard Session machinery
// (query.go, path.go) runs entirely against this seam: for an in-process
// shard it is backed by a core.Session over the shard's CSR slabs; for an
// out-of-process shard (internal/shard/remote) every call is an RPC to
// the host that owns the shard. A Searcher serves one goroutine at a
// time, like the Session that owns it.
//
// All identity translation (local↔global) stays on the router side: the
// Session owns the shard's identity maps whether the compute is local or
// remote, so only search work crosses the process boundary.
type Searcher interface {
	// Search runs one watched or plain framework search (the kNN/range
	// building block). Partial results may accompany a budget or
	// cancellation error, exactly like core.Session.SearchSeededLimited.
	Search(ctx context.Context, req SearchReq) (SearchResp, error)
	// Leg runs one route leg on the shard's index (the PathTo building
	// block): a seeded route search that descends only the Rnets that can
	// hold the leg's goal and bypasses every other Rnet through shortcuts.
	Leg(ctx context.Context, req LegReq) (LegResp, error)
}

// SearchReq describes one per-shard framework search. Seeds are
// shard-local nodes with the global distance already accumulated to
// reach them (a single zero-distance seed for home searches).
type SearchReq struct {
	Seeds []core.Seed `json:"seeds"`
	Attr  int32       `json:"attr,omitempty"`
	// K caps the result count (0 for range queries).
	K int `json:"k,omitempty"`
	// Radius bounds the expansion (0 = unbounded): the range-query radius,
	// or a kNN entry search's stop-at cap (the current kth-best).
	Radius float64 `json:"radius,omitempty"`
	// Watch asks for the exact distance to every border node settled
	// below the search's stopping distance (the gateway's seed data).
	Watch bool `json:"watch,omitempty"`
	// Budget is the remaining node-settlement budget for this sub-search
	// (0 = unlimited). The caller tracks the query-wide budget across
	// shards and passes down what is left.
	Budget int `json:"budget,omitempty"`
}

// SearchResp is a Search result in shard-local coordinates.
//
// Watched may alias searcher-owned scratch: it is valid until the next
// Search call on the same Searcher, so consume (or serialize) it first.
type SearchResp struct {
	Results []core.Result   `json:"results,omitempty"`
	Watched []WatchDist     `json:"watched,omitempty"`
	Stats   core.QueryStats `json:"stats"`
}

// WatchDist is one watched border's exact distance from the query seeds
// (shard-local node ID). A slice, not a map, so the order-independent
// min-merge on the router side works the same locally and over the wire.
type WatchDist struct {
	Node graph.NodeID `json:"node"`
	Dist float64      `json:"dist"`
}

// LegReq describes one route leg, run by the shard's route kernel
// (core.Session.RouteToObject, RouteToNode, WatchedDistances). Exactly one
// of three shapes:
//
//   - Object ≥ 0: the leg routes to the object, resolved shard-side, and
//     returns the path to the cheaper endpoint of its edge plus the full
//     object distance (direct and tail legs).
//   - PathTo: the distance and shortest path to that node (head and
//     gateway-hop legs).
//   - Targets: distances to each target, no path (head-borders leg). Cap,
//     when positive, stops the search there: targets farther away report
//     +Inf.
//
// Constructors must set PathTo to graph.NoNode and Object to -1 when
// unused: the zero values are valid IDs.
type LegReq struct {
	Seeds   []core.Seed    `json:"seeds"`
	Targets []graph.NodeID `json:"targets,omitempty"`
	Cap     float64        `json:"cap,omitempty"`
	PathTo  graph.NodeID   `json:"path_to"`
	Object  graph.ObjectID `json:"object"`
	Budget  int            `json:"budget,omitempty"`
}

// LegResp is a Leg result in shard-local coordinates. Dist is +Inf when
// the requested path target (or object) is unreachable; the wire layer
// encodes +Inf as -1, but in-process values are real infinities.
//
// Dists and Path may alias searcher-owned scratch: they are valid until
// the next Leg call on the same Searcher, so consume (or copy) them first.
type LegResp struct {
	// Dists is aligned with LegReq.Targets (+Inf = unreachable).
	Dists []float64 `json:"dists,omitempty"`
	// Path is the node sequence (local IDs) to PathTo or to the object's
	// cheaper edge endpoint; Path[0] is the seed it was reached from.
	Path []graph.NodeID `json:"path,omitempty"`
	// Dist is the distance Path realizes — for Object legs, including the
	// along-edge offset to the object itself.
	Dist float64 `json:"dist"`
	// Pops is the number of nodes the leg settled.
	Pops int `json:"pops"`
}

// localSearcher is the in-process Searcher: the pre-RPC query machinery
// folded behind the seam. Shard hosts use it too — their HTTP handlers
// drive the exact same code the in-process router runs. The session
// rides internal/core's CSR hot path (flat slabs, zero-alloc inner
// loops); the sharding layer needs no awareness of it: every framework
// mutator leaves the slabs current before it returns.
type localSearcher struct {
	sh      *Shard
	sess    *core.Session
	wdist   map[graph.NodeID]float64
	watched []WatchDist
	path    []graph.NodeID // Leg's route scratch
	dists   []float64      // Leg's distance scratch
}

// newLocalSearcher builds a Searcher over a full local shard. Building one
// writes nothing shared; callers hold the shard's read exclusion, as
// every reader of the shard does.
func (s *Shard) newLocalSearcher() *localSearcher {
	return &localSearcher{sh: s, sess: s.F.NewSession()}
}

// NewLocalSearcher is newLocalSearcher for shard hosts (package remote),
// which pool searchers per shard for their search handlers.
func (s *Shard) NewLocalSearcher() Searcher { return s.newLocalSearcher() }

func (ls *localSearcher) Search(ctx context.Context, req SearchReq) (SearchResp, error) {
	lim := core.Limits{Ctx: ctx, Budget: req.Budget}
	var watch *core.WatchSet
	var wdist map[graph.NodeID]float64
	if req.Watch {
		watch = ls.sh.watch
		if ls.wdist == nil {
			ls.wdist = make(map[graph.NodeID]float64)
		} else {
			clear(ls.wdist)
		}
		wdist = ls.wdist
	}
	res, st, err := ls.sess.SearchSeededLimited(req.Seeds, req.Attr, req.K, req.Radius, watch, wdist, lim)
	resp := SearchResp{Results: res, Stats: st}
	if len(wdist) > 0 {
		ls.watched = ls.watched[:0]
		for n, d := range wdist {
			ls.watched = append(ls.watched, WatchDist{Node: n, Dist: d})
		}
		resp.Watched = ls.watched
	}
	return resp, err
}

func (ls *localSearcher) Leg(ctx context.Context, req LegReq) (LegResp, error) {
	lim := core.Limits{Ctx: ctx, Budget: req.Budget}
	resp := LegResp{Dist: inf}
	var st core.QueryStats
	var err error
	switch {
	case req.Object >= 0:
		ls.path, resp.Dist, st, err = ls.sess.RouteToObject(ls.path[:0], req.Seeds, req.Object, lim)
	case req.PathTo != graph.NoNode:
		ls.path, resp.Dist, st, err = ls.sess.RouteToNode(ls.path[:0], req.Seeds, req.PathTo, lim)
	default:
		ls.dists, st, err = ls.sess.WatchedDistances(ls.dists[:0], req.Seeds, ls.watchOf(req.Targets), req.Cap, lim)
		resp.Dists = ls.dists
	}
	resp.Pops = st.NodesPopped
	if err != nil {
		return resp, fmt.Errorf("shard %d: %w", ls.sh.ID, err)
	}
	if !isInf(resp.Dist) {
		resp.Path = ls.path
	}
	return resp, nil
}

// watchOf returns a watch set over exactly targets: the shard's border
// watch set when targets are its borders — the only list the router
// sends — and a fresh one otherwise.
func (ls *localSearcher) watchOf(targets []graph.NodeID) *core.WatchSet {
	if w := ls.sh.watch; slices.Equal(targets, w.Nodes()) {
		return w
	}
	return ls.sh.F.NewWatchSet(targets)
}
