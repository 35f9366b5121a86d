package core

import (
	"fmt"
	"math"
	"slices"
	"time"
	"unsafe"

	"road/internal/apierr"
	"road/internal/graph"
	"road/internal/rnet"
)

// This file holds the CSR hot path: the Route Overlay's per-node shortcut
// trees as flat, int32-indexed arrays — the only form the overlay keeps.
// Each node's tree is flattened (rnet.Hierarchy.FlattenTree, into reused
// scratch) straight into contiguous slabs — entries in exactly the order
// the reference traversal visits them, with a skip pointer per entry so a
// bypass is a single index jump — with shortcut distances and live edge
// weights baked in, so the inner loop of kNN/range/path search touches
// nothing but these slabs, the dense Association Directory arrays and a
// typed heap. The pointer trees (rnet.TreeNode) are built only by the
// reference traversal, lazily; the index-size metric and the simulated
// page record sizes are read off the slabs. storage.Store is never
// consulted here: it remains only for snapshot persistence and the
// paper-faithful I/O-accounting report mode (Framework-level queries).
//
// The overlay builds the slabs when it is built or restored, and queries
// only read them. Network mutations stale them, and every mutator's fence
// (WarmTrees) repairs them before it returns, at the cost of the change:
// rnet.Hierarchy logs the nodes a mutation touched — the edge's endpoints
// and the borders of every Rnet whose shortcuts changed — and the drain
// re-emits just those nodes' slabs, in place when the shape is unchanged.

// csrEnt flags.
const (
	csrBorder   uint8 = 1 << 0 // node is a border of this Rnet (shortcut slab valid)
	csrChildren uint8 = 1 << 1 // entry has child entries (descend = i++)
)

// csrEnt is one flattened shortcut-tree entry of one node.
type csrEnt struct {
	rnet rnet.RnetID
	// skip is the absolute entry index just past this entry's subtree:
	// bypassing the Rnet jumps there; descending advances one entry, which
	// is the first child.
	skip int32
	// scOff/scEnd delimit this (rnet, node) pair's shortcuts in the
	// scTo/scDist slabs (valid when csrBorder is set).
	scOff, scEnd int32
	// edgeOff/edgeEnd delimit a leaf entry's physical edges in the
	// leTo/leEdge/leW slabs.
	edgeOff, edgeEnd int32
	flags            uint8
}

// csrSpan locates one node's entries in ents. Start and end sit in one
// 8-byte cell so the search loops fetch both with a single load; nodes do
// not have to be laid out in node order, which is what lets a patch move
// one node's slab to the tail without touching its neighbours.
type csrSpan struct {
	start, end int32
}

// csrExtent counts one node's cells in — or offsets into — the three slab
// groups: tree entries, shortcuts and leaf edges.
type csrExtent struct {
	ents, sc, le int32
}

// csrIndex is the flattened Route Overlay: per-node tree slabs plus
// shortcut and leaf-edge slabs, all indices int32. buildCSR is the one
// definition of the layout; between builds the index is kept current by
// patchNode, which re-emits single nodes (see csrBox.drain). Both run only
// where readers are excluded; queries never write here.
type csrIndex struct {
	gen  uint64    // hierarchy topology generation this index reflects
	span []csrSpan // node -> its entries; nodes added later have none
	ents []csrEnt

	scTo   []int32 // shortcut target nodes
	scDist []float64

	leTo   []int32 // leaf-edge target nodes
	leEdge []int32 // leaf-edge edge IDs (path reconstruction)
	leW    []float64

	// dead counts the cells relocating patches left behind; they are
	// reclaimed by the next full build.
	dead csrExtent
}

// Bytes per cell of each slab group, for the dead-cell cap and the
// road_csr_bytes gauge.
const (
	csrSpanBytes = int64(unsafe.Sizeof(csrSpan{}))
	csrEntBytes  = int64(unsafe.Sizeof(csrEnt{}))
	csrScBytes   = 4 + 8     // scTo + scDist
	csrLeBytes   = 4 + 4 + 8 // leTo + leEdge + leW
)

func (x csrExtent) bytes() int64 {
	return int64(x.ents)*csrEntBytes + int64(x.sc)*csrScBytes + int64(x.le)*csrLeBytes
}

// bytes is the index's slab footprint, dead cells included.
func (c *csrIndex) bytes() int64 {
	held := csrExtent{int32(len(c.ents)), int32(len(c.scTo)), int32(len(c.leTo))}
	return int64(len(c.span))*csrSpanBytes + held.bytes()
}

// deadHeavy reports that dead cells have passed a quarter of the live
// ones: the next drain compacts by rebuilding instead of patching, which
// bounds the slack patching can add to the heap.
func (c *csrIndex) deadHeavy() bool {
	return c.dead.bytes()*5 > c.bytes()
}

// buildCSR flattens every node's shortcut tree through the scratch t.
func buildCSR(g *graph.Graph, h *rnet.Hierarchy, t *rnet.FlatTree) *csrIndex {
	c := &csrIndex{gen: h.TopoGen()}
	nn := g.NumNodes()
	c.span = make([]csrSpan, nn)
	for n := 0; n < nn; n++ {
		start := int32(len(c.ents))
		c.emitNode(g, h, t, graph.NodeID(n))
		c.span[n] = csrSpan{start, int32(len(c.ents))}
	}
	return c
}

// emitNode appends node n's whole slab, flattening its tree through the
// scratch t. The entry order is the exact order the reference stack
// traversal processes entries — top-level entries reversed, children
// reversed at every level (a stack pops last-first) — so the CSR walk
// pushes frontier entries in the same sequence and FIFO tie-breaking
// yields identical answers.
func (c *csrIndex) emitNode(g *graph.Graph, h *rnet.Hierarchy, t *rnet.FlatTree, n graph.NodeID) {
	h.FlattenTree(n, t)
	base := int32(len(c.ents))
	for _, fe := range t.Ents {
		e := csrEnt{rnet: fe.Rnet, skip: base + fe.Skip}
		if fe.IsBorder {
			e.flags |= csrBorder
			e.scOff = int32(len(c.scTo))
			for _, sc := range h.ShortcutsFrom(fe.Rnet, n) {
				c.scTo = append(c.scTo, int32(sc.To))
				c.scDist = append(c.scDist, sc.Dist)
			}
			e.scEnd = int32(len(c.scTo))
		}
		if !fe.Leaf {
			e.flags |= csrChildren
		} else {
			e.edgeOff = int32(len(c.leTo))
			for _, half := range t.Edges[fe.EdgeOff:fe.EdgeEnd] {
				c.leTo = append(c.leTo, int32(half.To))
				c.leEdge = append(c.leEdge, int32(half.Edge))
				c.leW = append(c.leW, g.Weight(half.Edge))
			}
			e.edgeEnd = int32(len(c.leTo))
		}
		c.ents = append(c.ents, e)
	}
}

// extentOf returns where node n's cells currently start in each slab
// group and how many there are. A node's shortcut and leaf-edge cells are
// contiguous and in entry order (emit appends them that way), so the first
// non-empty range of each kind is the base.
func (c *csrIndex) extentOf(n graph.NodeID) (base, size csrExtent) {
	sp := c.span[n]
	base.ents, size.ents = sp.start, sp.end-sp.start
	for i := sp.start; i < sp.end; i++ {
		e := &c.ents[i]
		if size.sc == 0 {
			base.sc = e.scOff
		}
		size.sc += e.scEnd - e.scOff
		if size.le == 0 {
			base.le = e.edgeOff
		}
		size.le += e.edgeEnd - e.edgeOff
	}
	return base, size
}

// treeSizeBytes is node n's shortcut-tree record size — the figure
// rnet.Hierarchy.TreeSizeBytes computes over a pointer tree — read off
// its slab.
func (c *csrIndex) treeSizeBytes(n graph.NodeID) int {
	if int(n) >= len(c.span) {
		return rnet.EmptyTreeBytes
	}
	_, size := c.extentOf(n)
	if size.ents == 0 {
		return rnet.EmptyTreeBytes
	}
	return rnet.TreeEntryBytes*int(size.ents) + rnet.TreeEdgeBytes*int(size.le)
}

// treeBytes is treeSizeBytes summed over a network of nodes nodes without
// visiting a single entry: the live cells are the slabs less the dead
// ones, and only the empty spans need counting.
func (c *csrIndex) treeBytes(nodes int) int64 {
	empty := nodes - len(c.span)
	for _, sp := range c.span {
		if sp.start == sp.end {
			empty++
		}
	}
	return rnet.TreeEntryBytes*int64(len(c.ents)-int(c.dead.ents)) +
		rnet.TreeEdgeBytes*int64(len(c.leTo)-int(c.dead.le)) +
		rnet.EmptyTreeBytes*int64(empty)
}

// patchNode brings node n's slab up to date: it re-emits n into the
// scratch index s (the same emit a full build runs, flattening through the
// scratch t) and installs the result. When the new
// slab has the old one's extents — a weight or shortcut-distance change —
// it overwrites the old cells in place and allocates nothing; otherwise it
// is appended at the slab tails, the node's span repointed, and the old
// cells counted dead.
func (c *csrIndex) patchNode(s *csrIndex, t *rnet.FlatTree, g *graph.Graph, h *rnet.Hierarchy, n graph.NodeID) {
	s.ents, s.scTo, s.scDist = s.ents[:0], s.scTo[:0], s.scDist[:0]
	s.leTo, s.leEdge, s.leW = s.leTo[:0], s.leEdge[:0], s.leW[:0]
	s.emitNode(g, h, t, n)

	if int(n) >= len(c.span) {
		c.span = append(c.span, make([]csrSpan, int(n)+1-len(c.span))...)
	}
	at, old := c.extentOf(n)
	size := csrExtent{int32(len(s.ents)), int32(len(s.scTo)), int32(len(s.leTo))}
	inPlace := size == old
	if !inPlace {
		at = csrExtent{int32(len(c.ents)), int32(len(c.scTo)), int32(len(c.leTo))}
		c.dead.ents += old.ents
		c.dead.sc += old.sc
		c.dead.le += old.le
		c.span[n] = csrSpan{at.ents, at.ents + size.ents}
	}
	// emit wrote offsets relative to the empty scratch; rebase them to
	// where the cells land. Ranges an entry does not use stay zero.
	for i := range s.ents {
		e := &s.ents[i]
		e.skip += at.ents
		if e.flags&csrBorder != 0 {
			e.scOff += at.sc
			e.scEnd += at.sc
		}
		if e.flags&csrChildren == 0 {
			e.edgeOff += at.le
			e.edgeEnd += at.le
		}
	}
	if inPlace {
		copy(c.ents[at.ents:], s.ents)
		copy(c.scTo[at.sc:], s.scTo)
		copy(c.scDist[at.sc:], s.scDist)
		copy(c.leTo[at.le:], s.leTo)
		copy(c.leEdge[at.le:], s.leEdge)
		copy(c.leW[at.le:], s.leW)
		return
	}
	c.ents = append(c.ents, s.ents...)
	c.scTo = append(c.scTo, s.scTo...)
	c.scDist = append(c.scDist, s.scDist...)
	c.leTo = append(c.leTo, s.leTo...)
	c.leEdge = append(c.leEdge, s.leEdge...)
	c.leW = append(c.leW, s.leW...)
}

// CSRStats describes the CSR index's upkeep, for monitoring.
type CSRStats struct {
	// Rebuilds counts whole-index builds: the first one, and every drain
	// that found the dirty log overflowed or too many dead cells.
	Rebuilds uint64 `json:"rebuilds"`
	// Patches counts drains answered by re-emitting only the logged nodes.
	Patches uint64 `json:"patches"`
	// Bytes is the slab footprint, live and dead cells together.
	Bytes int64 `json:"bytes"`
}

// csrBox holds the CSR index of one overlay. Frameworks produced by
// Rebind share the overlay — and therefore the box — so a drain through
// one is seen by all.
type csrBox struct {
	idx     *csrIndex
	scratch csrIndex      // patchNode's emit target, reused across drains
	tree    rnet.FlatTree // flattening scratch of builds and patches alike
	stats   CSRStats
	onDrain func(time.Duration)
	// built is how long the build at construction took: it runs before
	// any OnCSRDrain hook can be set, so OnCSRDrain reports it.
	built time.Duration
}

// newCSRBox flattens every node's shortcut tree for a new or restored
// overlay.
func newCSRBox(h *rnet.Hierarchy) *csrBox {
	start := time.Now()
	b := &csrBox{}
	b.drain(h.Graph(), h)
	b.built = time.Since(start)
	return b
}

// drain brings the index up to the hierarchy's generation at the cost of
// what changed: the nodes in the hierarchy's dirty log are re-emitted one
// by one. It falls back to a full build when there is no index yet, when
// the log overflowed (one mutation touched more than the log holds), when
// the generation moved but the log is empty, and when dead cells have
// piled up.
func (b *csrBox) drain(g *graph.Graph, h *rnet.Hierarchy) *csrIndex {
	start := time.Now()
	nodes, all := h.DrainDirty()
	c := b.idx
	if c == nil || all || len(nodes) == 0 || c.deadHeavy() {
		c = buildCSR(g, h, &b.tree)
		b.idx = c
		b.stats.Rebuilds++
	} else {
		for _, n := range nodes {
			c.patchNode(&b.scratch, &b.tree, g, h, n)
		}
		c.gen = h.TopoGen()
		b.stats.Patches++
	}
	b.stats.Bytes = c.bytes()
	if b.onDrain != nil {
		b.onDrain(time.Since(start))
	}
	return c
}

// loadCSR returns the overlay's CSR index for a read. Every mutator
// leaves the index current with the hierarchy (Framework.WarmTrees), so a
// reader only checks the generation; a mismatch means a hierarchy write
// bypassed its mutator's fence, and reading on would serve stale slabs.
func (ro *RouteOverlay) loadCSR() *csrIndex {
	c := ro.csr.idx
	if c.gen != ro.h.TopoGen() {
		panic(fmt.Sprintf("core: CSR index at generation %d, hierarchy at %d: a hierarchy write skipped its fence", c.gen, ro.h.TopoGen()))
	}
	return c
}

// CSRStats reports how the CSR index has been kept current so far.
func (f *Framework) CSRStats() CSRStats { return f.ro.csr.stats }

// OnCSRDrain registers fn to be told how long each index drain — patch or
// rebuild — took. The build at construction precedes any registration, so
// fn hears of it at once. Set it before serving starts; it runs inside the
// mutator that drained.
func (f *Framework) OnCSRDrain(fn func(time.Duration)) {
	f.ro.csr.onDrain = fn
	fn(f.ro.csr.built)
}

// csrVerdict memoizes one Rnet's bypass-vs-descend verdict in the dense
// per-query scratch (a plain method, not a closure, so the hot loop
// allocates nothing).
func (f *Framework) csrVerdict(ad *AssocDir, ws *queryWorkspace, r rnet.RnetID, attr int32, watch *WatchSet) bool {
	if ws.verdictEpoch[r] == ws.epoch {
		return ws.verdictVal[r]
	}
	v := ad.rnetMayContain(r, attr, false) || (watch != nil && watch.rnets[r])
	ws.verdictEpoch[r] = ws.epoch
	ws.verdictVal[r] = v
	return v
}

// searchCSR is searchRef's hot-path twin: identical traversal over the
// flat CSR slabs with a typed heap and epoch-stamped dense visit sets, no
// simulated I/O and no per-pop allocation. Results are appended to dst.
// Equivalence (rank-for-rank, including FIFO tie order) is enforced by the
// differential suite in csr_test.go and TestDifferentialStorm.
func (f *Framework) searchCSR(ad *AssocDir, seeds []Seed, attr int32, k int, radius float64, ws *queryWorkspace, watch *WatchSet, watchDist map[graph.NodeID]float64, lim Limits, dst []Result) ([]Result, QueryStats, error) {
	stats := QueryStats{ShardsSearched: 1}
	var stopErr error
	c := f.ro.loadCSR()
	f.prepare(ws)
	res := dst
	base := len(dst)

	for _, sd := range seeds {
		ws.spq.Push(int32(sd.Node), -1, sd.Dist)
	}
	for ws.spq.Len() > 0 {
		item, _ := ws.spq.Pop()
		d := item.Prio
		if (k == 0 || radius > 0) && d > radius {
			break // past the range radius / the caller's stop bound
		}
		if item.Obj >= 0 {
			obj := graph.ObjectID(item.Obj)
			if ws.objEpoch[obj] == ws.epoch {
				continue
			}
			ws.objEpoch[obj] = ws.epoch
			if o, ok := f.objects.Get(obj); ok {
				res = append(res, Result{Object: o, Dist: d})
			}
			if k > 0 && len(res)-base >= k {
				break
			}
			continue
		}
		n := item.Node
		if ws.nodeEpoch[n] == ws.epoch {
			continue
		}
		ws.nodeEpoch[n] = ws.epoch
		stats.NodesPopped++
		if err := lim.Stop(stats.NodesPopped); err != nil {
			// Abort with the valid prefix settled so far: by the Dijkstra
			// settling order everything already in res is final.
			stats.Truncated = true
			stopErr = err
			break
		}
		nid := graph.NodeID(n)
		if watch != nil && watch.nodes[n] {
			watchDist[nid] = d
		}

		// Object lookup at the settled node: the attribute filter is
		// inlined so no filtered sub-slice is materialized.
		for _, a := range ad.assocsAt(nid) {
			if attr != 0 && a.attr != attr {
				continue
			}
			if int(a.obj) >= len(ws.objEpoch) {
				ws.growObjEpoch(a.obj)
			}
			if ws.objEpoch[a.obj] != ws.epoch {
				ws.spq.Push(-1, int32(a.obj), d+a.dist)
			}
		}

		// ChoosePath over the flattened tree slab: bypass = jump to skip,
		// descend = advance one entry.
		if int(n) >= len(c.span) {
			continue // node added after the index was built: no live edges
		}
		sp := c.span[n]
		for i := sp.start; i < sp.end; {
			e := &c.ents[i]
			if e.flags&csrBorder != 0 && !f.csrVerdict(ad, ws, e.rnet, attr, watch) {
				stats.RnetsBypassed++
				for j := e.scOff; j < e.scEnd; j++ {
					if to := c.scTo[j]; ws.nodeEpoch[to] != ws.epoch {
						ws.spq.Push(to, -1, d+c.scDist[j])
					}
				}
				i = e.skip
				continue
			}
			if e.flags&csrChildren != 0 {
				stats.RnetsDescended++
				i++
				continue
			}
			for j := e.edgeOff; j < e.edgeEnd; j++ {
				if to := c.leTo[j]; ws.nodeEpoch[to] != ws.epoch {
					ws.spq.Push(to, -1, d+c.leW[j])
				}
			}
			i++
		}
	}
	return res, stats, stopErr
}

// pathRelax is the route search's relax, mirroring pathTo's: it records
// the parent link and pushes n unless n already holds an equal or better
// label (keep-first-on-tie). A seed is relaxed with prev = NoNode, which
// is what ends the walk back.
func (f *Framework) pathRelax(ws *queryWorkspace, n graph.NodeID, nd float64, prev graph.NodeID, edge graph.EdgeID, r rnet.RnetID) {
	if ws.linkEpoch[n] == ws.epoch && ws.linkDist[n] <= nd {
		return
	}
	ws.linkEpoch[n] = ws.epoch
	ws.linkPrev[n] = int32(prev)
	ws.linkEdge[n] = int32(edge)
	ws.linkRnet[n] = int32(r)
	ws.linkDist[n] = nd
	ws.spq.Push(int32(n), -1, nd)
}

// routeGoal is where a route search stops. A path goal names two end
// nodes with the distance still to go past each — an object's edge
// endpoints with the object's offsets, or one node twice at offset zero —
// and the search stops once no cheaper arrival is possible. A watch goal
// has no end: the search stops once every watched node is settled. Both
// stop past cap.
type routeGoal struct {
	ends  [2]graph.NodeID
	off   [2]float64
	watch *WatchSet
	cap   float64
}

// beginRoute readies ws for one route search: a fresh epoch and link
// arrays sized to the network. The caller then stamps the explorable Rnets
// (stampChain) and runs route.
func (f *Framework) beginRoute(ws *queryWorkspace) *csrIndex {
	c := f.ro.loadCSR()
	f.prepare(ws)
	ws.growLinks(f.g.NumNodes())
	return c
}

// stampChain marks the ancestor chain of edge e's leaf explorable for the
// current route search.
func (f *Framework) stampChain(ws *queryWorkspace, e graph.EdgeID) {
	for r := f.h.LeafOf(e); r != rnet.NoRnet; r = f.h.Rnet(r).Parent {
		if ws.verdictEpoch[r] == ws.epoch {
			return // ancestors already stamped through a sibling
		}
		ws.verdictEpoch[r] = ws.epoch
	}
}

// route is the seeded route kernel every path query runs on: a search from
// seeds (each entering at its own distance) with parent tracking, walked
// over the CSR slabs like searchCSR — bypass = jump to skip, descend =
// advance one entry — but with the explorable Rnets stamped into the
// verdict scratch up front, so the per-entry test is one compare. The
// caller stamps exactly the Rnets that can hold the goal: the ancestor
// chain of an object's edge, the Rnets a node is interior to on the
// chains of its incident edges (the NewWatchSet rule), or a watch set's
// chains. Every other Rnet is bypassed through shortcuts, which is exact
// (see pathTo). It returns the end node reached and the distance
// including its offset — NoNode and +Inf when no seed reaches the goal,
// and always for a watch goal, whose answers are the settled link
// distances.
func (f *Framework) route(c *csrIndex, seeds []Seed, goal *routeGoal, ws *queryWorkspace, lim Limits) (graph.NodeID, float64, QueryStats, error) {
	stats := QueryStats{ShardsSearched: 1}
	for _, sd := range seeds {
		if int(sd.Node) < 0 || int(sd.Node) >= f.g.NumNodes() {
			return graph.NoNode, 0, stats, fmt.Errorf("core: seed node %d: %w", sd.Node, apierr.ErrNoSuchNode)
		}
		f.pathRelax(ws, sd.Node, sd.Dist, graph.NoNode, graph.NoEdge, rnet.NoRnet)
	}
	left := 0
	if goal.watch != nil {
		if left = goal.watch.distinct; left == 0 {
			return graph.NoNode, math.Inf(1), stats, nil
		}
	}
	bestEnd := graph.NoNode
	bestDist := math.Inf(1)

	for ws.spq.Len() > 0 {
		item, _ := ws.spq.Pop()
		n := item.Node
		d := item.Prio
		if d >= bestDist || d > goal.cap {
			break // cannot improve the goal's distance any further
		}
		if ws.nodeEpoch[n] == ws.epoch {
			continue
		}
		ws.nodeEpoch[n] = ws.epoch
		stats.NodesPopped++
		if err := lim.Stop(stats.NodesPopped); err != nil {
			stats.Truncated = true
			return graph.NoNode, 0, stats, err
		}
		nid := graph.NodeID(n)

		if goal.watch != nil {
			if goal.watch.nodes[n] {
				if left--; left == 0 {
					break
				}
			}
		} else {
			for i, t := range goal.ends {
				if nid == t && d+goal.off[i] < bestDist {
					bestDist = d + goal.off[i]
					bestEnd = nid
				}
			}
		}

		if int(n) >= len(c.span) {
			continue
		}
		sp := c.span[n]
		for i := sp.start; i < sp.end; {
			ent := &c.ents[i]
			if ent.flags&csrBorder != 0 && ws.verdictEpoch[ent.rnet] != ws.epoch {
				stats.RnetsBypassed++
				for j := ent.scOff; j < ent.scEnd; j++ {
					f.pathRelax(ws, graph.NodeID(c.scTo[j]), d+c.scDist[j], nid, graph.NoEdge, ent.rnet)
				}
				i = ent.skip
				continue
			}
			if ent.flags&csrChildren != 0 {
				stats.RnetsDescended++
				i++
				continue
			}
			for j := ent.edgeOff; j < ent.edgeEnd; j++ {
				f.pathRelax(ws, graph.NodeID(c.leTo[j]), d+c.leW[j], nid, graph.EdgeID(c.leEdge[j]), rnet.NoRnet)
			}
			i++
		}
	}
	return bestEnd, bestDist, stats, nil
}

// routeTo runs a path goal and appends the route to dst, seed first. A
// goal no seed reaches leaves dst as it was and reports +Inf.
func (f *Framework) routeTo(dst []graph.NodeID, c *csrIndex, seeds []Seed, goal *routeGoal, ws *queryWorkspace, lim Limits) ([]graph.NodeID, float64, QueryStats, error) {
	end, dist, stats, err := f.route(c, seeds, goal, ws, lim)
	if err != nil || end == graph.NoNode {
		return dst, dist, stats, err
	}
	dst, err = f.appendRoute(dst, end, ws)
	return dst, dist, stats, err
}

// appendRoute walks the parent links back from end to the seed it was
// reached from, expanding shortcut hops, and appends the route to dst seed
// first. The walk collects into the workspace's hop buffer, so the only
// allocation is dst's growth.
func (f *Framework) appendRoute(dst []graph.NodeID, end graph.NodeID, ws *queryWorkspace) ([]graph.NodeID, error) {
	rev := ws.hops[:0]
	cur := end
	for {
		if ws.linkEpoch[cur] != ws.epoch {
			return dst, fmt.Errorf("core: broken parent chain at node %d", cur)
		}
		prev := graph.NodeID(ws.linkPrev[cur])
		if prev == graph.NoNode {
			break // a seed
		}
		if graph.EdgeID(ws.linkEdge[cur]) != graph.NoEdge {
			rev = append(rev, cur)
		} else {
			var err error
			if rev, err = f.appendHopReversed(rev, rnet.RnetID(ws.linkRnet[cur]), prev, cur); err != nil {
				return dst, err
			}
		}
		cur = prev
	}
	rev = append(rev, cur)
	ws.hops = rev // keep what the walk grew
	dst = slices.Grow(dst, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		dst = append(dst, rev[i])
	}
	return dst, nil
}

// routeToObject routes from seeds to object target: the route ends at
// whichever endpoint of the object's edge reaches it cheaper, and the
// distance includes the offset along the edge. attr, when non-zero, must
// match the object's attribute; it plays no part in the search.
func (f *Framework) routeToObject(dst []graph.NodeID, seeds []Seed, target graph.ObjectID, attr int32, ws *queryWorkspace, lim Limits) ([]graph.NodeID, float64, QueryStats, error) {
	if !f.h.Config().StorePaths {
		return dst, 0, QueryStats{ShardsSearched: 1}, fmt.Errorf("core: framework built without StorePaths: %w", apierr.ErrPathsNotStored)
	}
	o, ok := f.objects.Get(target)
	if !ok {
		return dst, 0, QueryStats{ShardsSearched: 1}, fmt.Errorf("core: object %d: %w", target, apierr.ErrNoSuchObject)
	}
	if attr != 0 && o.Attr != attr {
		return dst, 0, QueryStats{ShardsSearched: 1}, fmt.Errorf("core: object %d does not match attribute %d: %w", target, attr, apierr.ErrAttrMismatch)
	}
	c := f.beginRoute(ws)
	f.stampChain(ws, o.Edge)
	e := f.g.Edge(o.Edge)
	goal := routeGoal{ends: [2]graph.NodeID{e.U, e.V}, off: [2]float64{o.DU, o.DV}, cap: math.Inf(1)}
	return f.routeTo(dst, c, seeds, &goal, ws, lim)
}

// routeToNode routes from seeds to node t. The explorable Rnets are those
// on the chains of t's incident edges that t is interior to — the Rnets a
// watch set over t descends (NewWatchSet's rule). An Rnet t borders is
// bypassed: its shortcuts end at t.
func (f *Framework) routeToNode(dst []graph.NodeID, seeds []Seed, t graph.NodeID, ws *queryWorkspace, lim Limits) ([]graph.NodeID, float64, QueryStats, error) {
	if !f.h.Config().StorePaths {
		return dst, 0, QueryStats{ShardsSearched: 1}, fmt.Errorf("core: framework built without StorePaths: %w", apierr.ErrPathsNotStored)
	}
	if int(t) < 0 || int(t) >= f.g.NumNodes() {
		return dst, 0, QueryStats{ShardsSearched: 1}, fmt.Errorf("core: node %d: %w", t, apierr.ErrNoSuchNode)
	}
	c := f.beginRoute(ws)
	for _, half := range f.g.Neighbors(t) {
		for r := f.h.LeafOf(half.Edge); r != rnet.NoRnet; r = f.h.Rnet(r).Parent {
			if f.h.IsBorder(r, t) {
				continue
			}
			if ws.verdictEpoch[r] == ws.epoch {
				break // ancestors already stamped through a sibling
			}
			ws.verdictEpoch[r] = ws.epoch
		}
	}
	goal := routeGoal{ends: [2]graph.NodeID{t, t}, cap: math.Inf(1)}
	return f.routeTo(dst, c, seeds, &goal, ws, lim)
}

// watchedDistances is the route kernel's distance-only form: the
// explorable Rnets are watch's chains, no route is kept, and the search
// stops once every watched node is settled or the frontier passes cap.
// It appends one distance per watched node, in the set's order (+Inf for
// a node no seed reaches within cap).
func (f *Framework) watchedDistances(dst []float64, seeds []Seed, watch *WatchSet, cap float64, ws *queryWorkspace, lim Limits) ([]float64, QueryStats, error) {
	c := f.beginRoute(ws)
	for _, r := range watch.chain {
		ws.verdictEpoch[r] = ws.epoch
	}
	goal := routeGoal{watch: watch, cap: cap}
	if cap <= 0 {
		goal.cap = math.Inf(1)
	}
	_, _, stats, err := f.route(c, seeds, &goal, ws, lim)
	if err != nil {
		return dst, stats, err
	}
	for _, n := range watch.list {
		d := math.Inf(1)
		if ws.nodeEpoch[n] == ws.epoch {
			d = ws.linkDist[n]
		}
		dst = append(dst, d)
	}
	return dst, stats, nil
}

// pathCSR is pathTo's hot-path twin: the route kernel with one seed, the
// query node, and the target object as its goal.
func (f *Framework) pathCSR(q Query, target graph.ObjectID, ws *queryWorkspace, lim Limits) ([]graph.NodeID, float64, QueryStats, error) {
	ws.seed[0] = Seed{Node: q.Node}
	path, dist, stats, err := f.routeToObject(nil, ws.seed[:], target, q.Attr, ws, lim)
	if err == nil && math.IsInf(dist, 1) {
		return nil, math.Inf(1), stats, fmt.Errorf("core: object %d unreachable from node %d: %w", target, q.Node, apierr.ErrUnreachable)
	}
	return path, dist, stats, err
}
