package core

import (
	"context"
	"fmt"

	"road/internal/apierr"
	"road/internal/graph"
	"road/internal/pqueue"
	"road/internal/rnet"
	"road/internal/storage"
)

// Query is an LDSQ: a query node plus an attribute predicate
// (Attr 0 matches any object).
type Query struct {
	Node graph.NodeID
	Attr int32
}

// Result is one answer object with its network distance from the query
// node.
type Result struct {
	Object graph.Object
	Dist   float64
}

// QueryStats reports the cost of one query execution.
type QueryStats struct {
	// NodesPopped counts settled network nodes (the traversal metric).
	NodesPopped int
	// RnetsBypassed counts Rnets skipped via shortcuts.
	RnetsBypassed int
	// RnetsDescended counts Rnet entries expanded because their abstract
	// matched the predicate.
	RnetsDescended int
	// ShardsSearched counts the shards the query expanded in: always 1
	// for a single-index search; for a sharded kNN/range query, one per
	// home shard plus one per shard the expansion re-entered through its
	// borders — so a query that never crossed a boundary reports 1, even
	// when its home shard was searched twice (the watched re-run). Path
	// queries count per-shard route legs instead.
	ShardsSearched int
	// Truncated reports a partial result: the search stopped early on
	// context cancellation or budget exhaustion. What was returned is a
	// valid prefix of the full answer (Dijkstra settling order).
	Truncated bool
	// IO holds the simulated page I/O incurred: only report-mode
	// framework queries over a page store (the paper rig) fill it; every
	// session query, and so every query through road, leaves it zero.
	IO storage.Stats
}

// Limits bundles the cooperative-stop inputs of one search: a context
// checked every cancelCheckEvery settled nodes, and a budget capping the
// total nodes settled. The zero value imposes no limits.
type Limits struct {
	// Ctx, when non-nil, cancels the search: the loop polls Ctx.Err()
	// every cancelCheckEvery heap pops and aborts with ErrCanceled.
	Ctx context.Context
	// Budget, when > 0, stops the search after that many settled nodes
	// with ErrBudgetExhausted.
	Budget int
}

// cancelCheckEvery is how many settled nodes a search processes between
// context polls — a power of two so the check compiles to a mask. At
// typical pop rates (millions/s) this bounds cancellation latency to well
// under a millisecond.
const cancelCheckEvery = 64

// Stop consults the limits after a node was settled (stats.NodesPopped
// already incremented). A non-nil return aborts the search; the caller
// marks the result truncated.
func (l Limits) Stop(popped int) error {
	if l.Ctx != nil && (popped-1)&(cancelCheckEvery-1) == 0 {
		if err := l.Ctx.Err(); err != nil {
			return fmt.Errorf("%w: %w", apierr.ErrCanceled, err)
		}
	}
	if l.Budget > 0 && popped >= l.Budget {
		return apierr.ErrBudgetExhausted
	}
	return nil
}

// queueEntry distinguishes node and object entries of the search queue
// (Algorithm kNNSearch keeps both in one priority queue).
type queueEntry struct {
	node graph.NodeID // valid when obj < 0
	obj  graph.ObjectID
}

// Seed is one source of a multi-source search: a node paired with the
// distance already accumulated to reach it. The sharding router enters a
// shard's framework through its border nodes this way.
type Seed = graph.Seed

// WatchSet marks nodes whose exact settled distances a search must report
// — the sharding router watches a shard's border nodes so it can expand
// the search into neighbouring shards. Because the ROAD traversal bypasses
// object-free Rnets via shortcuts, a watched node buried inside such an
// Rnet would normally never be settled; the set therefore also records
// every Rnet a watched node is interior to (holds its edges without having
// it as a border), and the search descends into those instead of
// bypassing them. An Rnet the node borders needs no descent: its
// shortcuts end at the node (Lemma 2), so bypassing it settles the node
// at its exact distance. A shard's borders are pinned (rnet.Hierarchy.Pin)
// and so border every Rnet holding their edges: their watch set marks
// nothing, and a watched search walks only the shortcut overlay.
// A WatchSet is immutable after construction
// and safe to share across concurrent sessions; it must be rebuilt after
// topology mutations (edge additions, closures, reopenings), which can
// move nodes between Rnets.
type WatchSet struct {
	// Dense membership tables — they sit on the per-settled-node path of
	// every watched search, so lookups must be array indexing, not
	// hashing. Sized to the framework's node and Rnet counts (both fixed
	// after build; AddEdge reuses existing leaf Rnets).
	nodes []bool
	rnets []bool
	// list holds the watched nodes in the order the set was built from,
	// distinct how many of them differ, and chain every marked Rnet: a
	// route search stamps chain as its explorable set and reports
	// distances in list order.
	list     []graph.NodeID
	distinct int
	chain    []rnet.RnetID
}

// NewWatchSet builds a watch set over the given nodes of f's network.
func (f *Framework) NewWatchSet(nodes []graph.NodeID) *WatchSet {
	w := &WatchSet{
		nodes: make([]bool, f.g.NumNodes()),
		rnets: make([]bool, f.h.NumRnets()),
		list:  append([]graph.NodeID(nil), nodes...),
	}
	for _, n := range nodes {
		if w.nodes[n] {
			continue
		}
		w.nodes[n] = true
		w.distinct++
		for _, half := range f.g.Neighbors(n) {
			for r := f.h.LeafOf(half.Edge); r != rnet.NoRnet; r = f.h.Rnet(r).Parent {
				if f.h.IsBorder(r, n) {
					continue // reached through r's shortcuts
				}
				if w.rnets[r] {
					break // ancestors already marked: a node interior to r is interior to them
				}
				w.rnets[r] = true
				w.chain = append(w.chain, r)
			}
		}
	}
	return w
}

// Contains reports whether n is watched.
func (w *WatchSet) Contains(n graph.NodeID) bool {
	return int(n) < len(w.nodes) && w.nodes[n]
}

// Nodes returns the watched nodes in the order the set was built from.
// The slice is the set's own; callers must not modify it.
func (w *WatchSet) Nodes() []graph.NodeID { return w.list }

// queryWorkspace holds per-query scratch state, reused across queries so
// steady-state searches allocate nothing. A Framework (and thus its
// workspace) is not safe for concurrent queries.
//
// The reference (report-mode) path uses the boxed queue plus verdict and
// visited-object maps; the CSR hot path uses the typed queue plus the
// dense epoch-stamped arrays, all sharing one epoch counter so clearing a
// query is a single increment.
type queryWorkspace struct {
	pq        pqueue.Queue
	spq       pqueue.SearchQueue
	nodeEpoch []uint32
	epoch     uint32
	stack     []*rnet.TreeNode
	verdicts  map[rnet.RnetID]bool
	visObjs   map[graph.ObjectID]bool

	// useRef forces the retained page-store reference implementation even
	// without I/O charging — the differential harness and the hotpath
	// benchmark flip it to compare the two paths in one process.
	useRef bool

	// Dense CSR-path scratch: Rnet verdict memo (for a route search, the
	// stamp alone marks the explorable Rnets), visited objects, and the
	// route search's parent links, all valid only where the stamp matches
	// epoch.
	verdictEpoch []uint32
	verdictVal   []bool
	objEpoch     []uint32
	linkEpoch    []uint32
	linkPrev     []int32
	linkEdge     []int32
	linkRnet     []int32
	linkDist     []float64
	// hops is where the route search rebuilds its route, target first,
	// before copying it out reversed.
	hops []graph.NodeID
	// seed is the one-seed list of a single-source route.
	seed [1]Seed
}

func (f *Framework) workspace() *queryWorkspace {
	ws := f.qws
	if ws == nil {
		ws = &queryWorkspace{
			verdicts: make(map[rnet.RnetID]bool),
			visObjs:  make(map[graph.ObjectID]bool),
		}
		f.qws = ws
	}
	return ws
}

// prepare readies a workspace for one query: bumps the epoch (clearing all
// stamped arrays implicitly), sizes the dense scratch to the current
// network, and clears per-query state. Growth only happens when the
// network or object-ID space grew, so steady state allocates nothing.
func (f *Framework) prepare(ws *queryWorkspace) {
	ws.epoch++
	if ws.epoch == 0 {
		// Epoch wrapped: every stamped array must be zeroed, or ancient
		// stamps could alias the restarted counter.
		clear(ws.nodeEpoch)
		clear(ws.verdictEpoch)
		clear(ws.objEpoch)
		clear(ws.linkEpoch)
		ws.epoch = 1
	}
	if n := f.g.NumNodes(); len(ws.nodeEpoch) < n {
		ws.nodeEpoch = make([]uint32, n)
	}
	if r := f.h.NumRnets(); len(ws.verdictEpoch) < r {
		ws.verdictEpoch = make([]uint32, r)
		ws.verdictVal = make([]bool, r)
	}
	if o := int(f.objects.NextID()); len(ws.objEpoch) < o {
		ws.objEpoch = make([]uint32, o)
	}
	ws.pq.Reset()
	ws.spq.Reset()
	clear(ws.verdicts)
	clear(ws.visObjs)
}

// growObjEpoch extends the visited-object stamps to cover id (objects from
// an attached directory can outrange the framework's own set).
func (ws *queryWorkspace) growObjEpoch(id graph.ObjectID) {
	grown := make([]uint32, id+1)
	copy(grown, ws.objEpoch)
	ws.objEpoch = grown
}

// growLinks sizes the route search's parent-link arrays to n nodes.
func (ws *queryWorkspace) growLinks(n int) {
	if len(ws.linkEpoch) >= n {
		return
	}
	ws.linkEpoch = make([]uint32, n)
	ws.linkPrev = make([]int32, n)
	ws.linkEdge = make([]int32, n)
	ws.linkRnet = make([]int32, n)
	ws.linkDist = make([]float64, n)
}

func (ws *queryWorkspace) nodeVisited(n graph.NodeID) bool { return ws.nodeEpoch[n] == ws.epoch }
func (ws *queryWorkspace) markNode(n graph.NodeID)         { ws.nodeEpoch[n] = ws.epoch }

// KNN returns the k objects matching q.Attr nearest to q.Node in network
// distance, closest first (Algorithm kNNSearch, Figure 9).
func (f *Framework) KNN(q Query, k int) ([]Result, QueryStats) {
	return f.KNNOn(f.ad, q, k)
}

// Range returns all objects matching q.Attr within network distance radius
// of q.Node, closest first (Algorithm RangeSearch).
func (f *Framework) Range(q Query, radius float64) ([]Result, QueryStats) {
	return f.RangeOn(f.ad, q, radius)
}

// KNNOn runs a kNN query against a specific Association Directory
// (supporting multiple object sets on one overlay).
func (f *Framework) KNNOn(ad *AssocDir, q Query, k int) ([]Result, QueryStats) {
	return f.search(ad, q, k, 0)
}

// RangeOn runs a range query against a specific Association Directory.
func (f *Framework) RangeOn(ad *AssocDir, q Query, radius float64) ([]Result, QueryStats) {
	return f.search(ad, q, 0, radius)
}

// search is the shared expansion entry point for the Framework's own
// single-threaded methods, with full I/O simulation when the framework
// has a page store.
func (f *Framework) search(ad *AssocDir, q Query, k int, radius float64) ([]Result, QueryStats) {
	res, stats, _ := f.searchWith(ad, q, k, radius, f.workspace(), true, Limits{}, nil)
	return res, stats
}

// searchWith is the shared expansion: it gradually grows the search from
// the query node, looking up objects at settled nodes and choosing — per
// Rnet entry of each settled node's shortcut tree — between bypassing via
// shortcuts (no matching object inside) and descending (Figure 10). k>0
// selects kNN semantics; otherwise radius bounds a range query. chargeIO
// routes index accesses through the simulated page store; Sessions pass
// false so concurrent queries never touch shared buffer state.
func (f *Framework) searchWith(ad *AssocDir, q Query, k int, radius float64, ws *queryWorkspace, chargeIO bool, lim Limits, dst []Result) ([]Result, QueryStats, error) {
	return f.searchSeeded(ad, []Seed{{Node: q.Node}}, q.Attr, k, radius, ws, chargeIO, nil, nil, lim, dst)
}

// searchSeeded is searchWith generalized to multiple seeds and an optional
// watch set. Every seed enters the queue at its accumulated distance, so
// results report min over seeds of seed.Dist + d(seed, object). When watch
// is non-nil, watchDist receives the exact settled distance of every
// watched node the expansion reaches before it stops; by the Dijkstra
// settling order, that is every watched node strictly closer than the kth
// result (kNN) or within the radius (range) — exactly the border set a
// cross-shard search may usefully continue through.
//
// With k > 0 a positive radius acts as an additional stop bound: the
// expansion halts once the frontier passes it even with fewer than k
// results. The sharding router passes its current global kth-best, so a
// shard entered near the bound is not searched beyond what could still
// improve the merged answer.
//
// Two implementations serve it: report-mode queries (chargeIO over a
// framework with a page store, or a workspace pinned to the reference
// path) run searchRef, the retained page-store traversal; everything else
// — every Session, and therefore every serving-layer query on all Store
// shapes — runs searchCSR over the flat slabs. Whether I/O is charged is
// decided here, once: a framework without a store charges nothing. Both
// append results to dst (nil for a fresh slice).
func (f *Framework) searchSeeded(ad *AssocDir, seeds []Seed, attr int32, k int, radius float64, ws *queryWorkspace, chargeIO bool, watch *WatchSet, watchDist map[graph.NodeID]float64, lim Limits, dst []Result) ([]Result, QueryStats, error) {
	chargeIO = chargeIO && f.store != nil
	if chargeIO || ws.useRef {
		return f.searchRef(ad, seeds, attr, k, radius, ws, chargeIO, watch, watchDist, lim, dst)
	}
	return f.searchCSR(ad, seeds, attr, k, radius, ws, watch, watchDist, lim, dst)
}

// searchRef is the reference expansion over the pointer-structured route
// overlay and the simulated page store — the paper-faithful I/O-accounting
// report mode, and the oracle the CSR hot path is differentially tested
// against.
func (f *Framework) searchRef(ad *AssocDir, seeds []Seed, attr int32, k int, radius float64, ws *queryWorkspace, chargeIO bool, watch *WatchSet, watchDist map[graph.NodeID]float64, lim Limits, dst []Result) ([]Result, QueryStats, error) {
	stats := QueryStats{ShardsSearched: 1}
	var stopErr error
	var ioMark storage.Stats
	if chargeIO {
		ioMark = f.store.Stats()
	}

	f.prepare(ws)
	res := dst
	base := len(dst)

	for _, sd := range seeds {
		ws.pq.Push(queueEntry{node: sd.Node, obj: -1}, sd.Dist)
	}
	for ws.pq.Len() > 0 {
		item, _ := ws.pq.Pop()
		entry := item.Value.(queueEntry)
		d := item.Priority
		if (k == 0 || radius > 0) && d > radius {
			break // past the range radius / the caller's stop bound
		}
		if entry.obj >= 0 {
			if ws.visObjs[entry.obj] {
				continue
			}
			ws.visObjs[entry.obj] = true
			if o, ok := f.objects.Get(entry.obj); ok {
				res = append(res, Result{Object: o, Dist: d})
			}
			if k > 0 && len(res)-base >= k {
				break
			}
			continue
		}
		n := entry.node
		if ws.nodeVisited(n) {
			continue
		}
		ws.markNode(n)
		stats.NodesPopped++
		if err := lim.Stop(stats.NodesPopped); err != nil {
			// Abort with the valid prefix settled so far: by the Dijkstra
			// settling order everything already in res is final.
			stats.Truncated = true
			stopErr = err
			break
		}
		if watch != nil && watch.nodes[n] {
			watchDist[n] = d
		}

		// Object lookup at the settled node.
		for _, a := range ad.objectsAt(n, attr, chargeIO) {
			if !ws.visObjs[a.obj] {
				ws.pq.Push(queueEntry{obj: a.obj}, d+a.dist)
			}
		}

		// ChoosePath: walk the node's shortcut tree.
		f.choosePath(ad, ws, n, d, attr, chargeIO, watch, &stats)
	}

	if chargeIO {
		stats.IO = f.store.Stats().Sub(ioMark)
	}
	return res, stats, stopErr
}

// choosePath implements Algorithm ChoosePath (Figure 10): depth-first over
// node n's shortcut tree; an Rnet whose abstract has no matching object is
// bypassed through n's shortcuts (when n is one of its borders), otherwise
// the walk descends, bottoming out at physical edges.
func (f *Framework) choosePath(ad *AssocDir, ws *queryWorkspace, n graph.NodeID, d float64, attr int32, chargeIO bool, watch *WatchSet, stats *QueryStats) {
	g := f.g
	// Rnet abstract verdicts are stable within one query; memoize them so
	// repeated ChoosePath calls don't re-probe the directory. An Rnet
	// holding a watched node must be descended even when object-free, or
	// the watched node would be hopped over and never settled.
	mayContain := func(r rnet.RnetID) bool {
		v, ok := ws.verdicts[r]
		if !ok {
			v = ad.rnetMayContain(r, attr, chargeIO) || (watch != nil && watch.rnets[r])
			ws.verdicts[r] = v
		}
		return v
	}
	var tree []*rnet.TreeNode
	if chargeIO {
		tree = f.ro.Visit(n)
	} else {
		tree = f.h.Tree(n)
	}
	stack := append(ws.stack[:0], tree...)
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if s.IsBorder && !mayContain(s.Rnet) {
			// Bypass: jump to the Rnet's other border nodes.
			stats.RnetsBypassed++
			for _, sc := range f.h.ShortcutsFrom(s.Rnet, n) {
				if !ws.nodeVisited(sc.To) {
					ws.pq.Push(queueEntry{node: sc.To, obj: -1}, d+sc.Dist)
				}
			}
			continue
		}
		if len(s.Children) > 0 {
			stats.RnetsDescended++
			stack = append(stack, s.Children...)
			continue
		}
		// Leaf entry: expand physical edges.
		for _, half := range s.Edges {
			if !ws.nodeVisited(half.To) {
				ws.pq.Push(queueEntry{node: half.To, obj: -1}, d+g.Weight(half.Edge))
			}
		}
	}
	ws.stack = stack[:0]
}
