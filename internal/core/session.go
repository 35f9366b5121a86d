package core

import (
	"road/internal/graph"
	"road/internal/rnet"
)

// Session is a read-only query context over a built Framework. Unlike the
// Framework's own KNN/Range methods — which share one workspace and one
// simulated page buffer and are therefore single-threaded — any number of
// Sessions may run queries concurrently. Sessions run on the CSR hot path:
// flat slab traversal, typed heap, zero steady-state allocation, and no
// simulated I/O (QueryStats.IO stays zero); traversal statistics are still
// reported and match the report-mode reference exactly.
//
// Sessions must not run concurrently with maintenance operations (object
// or network updates) on the same Framework: queries are reads, updates
// are writes, and the framework does no internal locking between them.
type Session struct {
	f  *Framework
	ws *queryWorkspace
}

// UseReferencePath pins (or unpins) this session to the retained
// page-store reference implementation instead of the CSR slabs, still
// without I/O charging. The differential test harness and the hotpath
// benchmark use it to compare both paths in one process; serving code has
// no reason to call it. A pinned session builds pointer shortcut trees
// into the hierarchy's shared cache as it visits nodes, so it must not run
// concurrently with any other query on the framework.
func (s *Session) UseReferencePath(on bool) { s.ws.useRef = on }

// NewSession returns an independent concurrent query context. It writes
// nothing shared: the CSR slabs its queries read are current from Build or
// Restore on, because every mutator leaves them current before it returns.
func (f *Framework) NewSession() *Session {
	return &Session{
		f: f,
		ws: &queryWorkspace{
			verdicts: make(map[rnet.RnetID]bool),
			visObjs:  make(map[graph.ObjectID]bool),
		},
	}
}

// KNN returns the k objects matching q.Attr nearest to q.Node.
func (s *Session) KNN(q Query, k int) ([]Result, QueryStats) {
	res, stats, _ := s.f.searchWith(s.f.ad, q, k, 0, s.ws, false, Limits{}, nil)
	return res, stats
}

// KNNAppend is KNN appending into dst — with a caller-reused buffer the
// steady-state query performs zero allocations (pinned by the
// allocation-regression tests).
func (s *Session) KNNAppend(dst []Result, q Query, k int) ([]Result, QueryStats) {
	res, stats, _ := s.f.searchWith(s.f.ad, q, k, 0, s.ws, false, Limits{}, dst)
	return res, stats
}

// KNNLimited is KNN under Limits (cooperative cancellation, traversal
// budget). The result is a valid prefix when err is non-nil. An optional
// positive maxRadius additionally stops the expansion at that distance.
func (s *Session) KNNLimited(q Query, k int, maxRadius float64, lim Limits) ([]Result, QueryStats, error) {
	return s.f.searchWith(s.f.ad, q, k, maxRadius, s.ws, false, lim, nil)
}

// Range returns all matching objects within radius of q.Node.
func (s *Session) Range(q Query, radius float64) ([]Result, QueryStats) {
	res, stats, _ := s.f.searchWith(s.f.ad, q, 0, radius, s.ws, false, Limits{}, nil)
	return res, stats
}

// RangeAppend is Range appending into dst (see KNNAppend).
func (s *Session) RangeAppend(dst []Result, q Query, radius float64) ([]Result, QueryStats) {
	res, stats, _ := s.f.searchWith(s.f.ad, q, 0, radius, s.ws, false, Limits{}, dst)
	return res, stats
}

// RangeLimited is Range under Limits.
func (s *Session) RangeLimited(q Query, radius float64, lim Limits) ([]Result, QueryStats, error) {
	return s.f.searchWith(s.f.ad, q, 0, radius, s.ws, false, lim, nil)
}

// SearchSeeded runs one multi-source search: kNN when k > 0, range search
// bounded by radius when k == 0. Seeds enter the expansion at their own
// accumulated distances, and when watch is non-nil the exact settled
// distance of every watched node the search reaches is written into
// watchDist (which the caller owns — a WatchSet itself is shareable across
// sessions, per-query outputs are not). This is the primitive the sharding
// router drives: the home shard is searched with its border nodes watched,
// neighbouring shards are searched seeded at their borders.
func (s *Session) SearchSeeded(seeds []Seed, attr int32, k int, radius float64, watch *WatchSet, watchDist map[graph.NodeID]float64) ([]Result, QueryStats) {
	res, stats, _ := s.f.searchSeeded(s.f.ad, seeds, attr, k, radius, s.ws, false, watch, watchDist, Limits{}, nil)
	return res, stats
}

// SearchSeededLimited is SearchSeeded under Limits — the primitive the
// sharding router drives when a per-request context or budget is in play.
func (s *Session) SearchSeededLimited(seeds []Seed, attr int32, k int, radius float64, watch *WatchSet, watchDist map[graph.NodeID]float64, lim Limits) ([]Result, QueryStats, error) {
	return s.f.searchSeeded(s.f.ad, seeds, attr, k, radius, s.ws, false, watch, watchDist, lim, nil)
}

// PathTo computes the detailed shortest route from q.Node to an object
// (see Framework.PathTo). Unlike the Framework variant it runs on the CSR
// hot path and bypasses the simulated page store, so any number of
// sessions may compute paths concurrently. Requires the framework to have
// been built with StorePaths.
func (s *Session) PathTo(q Query, target graph.ObjectID) ([]graph.NodeID, float64, error) {
	path, dist, _, err := s.path(q, target, Limits{})
	return path, dist, err
}

// PathToLimited is PathTo under Limits, reporting traversal statistics
// (which the plain variant predates and omits).
func (s *Session) PathToLimited(q Query, target graph.ObjectID, lim Limits) ([]graph.NodeID, float64, QueryStats, error) {
	return s.path(q, target, lim)
}

// path dispatches a session path query to the CSR implementation or, when
// the session is pinned to the reference path, the retained one.
func (s *Session) path(q Query, target graph.ObjectID, lim Limits) ([]graph.NodeID, float64, QueryStats, error) {
	if s.ws.useRef {
		return s.f.pathTo(q, target, false, lim)
	}
	return s.f.pathCSR(q, target, s.ws, lim)
}

// RouteToObject is the seeded form of PathTo: the shortest route from any
// of seeds — each entering at its own accumulated distance — to object
// target, appended to dst starting with the seed it leaves from. The
// distance includes the seed's and the final along-edge offset. When no
// seed reaches the object, dst comes back unchanged with +Inf. Like PathTo
// it runs on the CSR slabs and needs StorePaths; the sharding router runs
// its direct and tail legs on it.
func (s *Session) RouteToObject(dst []graph.NodeID, seeds []Seed, target graph.ObjectID, lim Limits) ([]graph.NodeID, float64, QueryStats, error) {
	return s.f.routeToObject(dst, seeds, target, 0, s.ws, lim)
}

// RouteToNode is RouteToObject with a node as the goal: the sharding
// router's head and gateway-hop legs.
func (s *Session) RouteToNode(dst []graph.NodeID, seeds []Seed, target graph.NodeID, lim Limits) ([]graph.NodeID, float64, QueryStats, error) {
	return s.f.routeToNode(dst, seeds, target, s.ws, lim)
}

// WatchedDistances appends to dst the exact distance from seeds to every
// node of watch, in the order the set was built from (+Inf for a node no
// seed reaches, or reaches only beyond cap). The search descends only the
// Rnets a watched node is interior to, collects no objects, and stops once
// every watched node is settled or the frontier passes cap (cap ≤ 0: no
// cap). The sharding router measures a query node's distances to its home
// shard's borders with it.
func (s *Session) WatchedDistances(dst []float64, seeds []Seed, watch *WatchSet, cap float64, lim Limits) ([]float64, QueryStats, error) {
	return s.f.watchedDistances(dst, seeds, watch, cap, s.ws, lim)
}

// Epoch returns the owning framework's maintenance epoch at the time of
// the call — a fence for detecting index mutations between two queries.
func (s *Session) Epoch() uint64 { return s.f.Epoch() }
