package core

import (
	"fmt"
	"math"
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
// only read them. Network mutations stale them, and the post-mutation
// fence (WarmTrees) repairs them at the cost of the change:
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
// the log overflowed (bulk replay), when the generation moved but the log
// is empty (someone else drained it), and when dead cells have piled up.
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

// ensureCSR returns the overlay's CSR index, current with the hierarchy.
// Building or restoring the overlay leaves it current. Catching up after a
// mutation writes the shared slabs, so it must not race with readers:
// serving layers call WarmTrees (which is this) after every mutation while
// readers are still excluded, and the call every query — and every
// IndexSizeBytes — makes here finds nothing to do. A single-threaded
// library caller that never warms gets the same patch lazily from its next
// query.
func (ro *RouteOverlay) ensureCSR() *csrIndex {
	if c := ro.csr.idx; c != nil && c.gen == ro.h.TopoGen() {
		return c
	}
	return ro.csr.drain(ro.h.Graph(), ro.h)
}

// CSRStats reports how the CSR index has been kept current so far.
func (f *Framework) CSRStats() CSRStats { return f.ro.csr.stats }

// OnCSRDrain registers fn to be told how long each index drain — patch or
// rebuild — took. The build at construction precedes any registration, so
// fn hears of it at once. Set it before serving starts; it runs inside the
// mutation fence.
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
	c := f.ro.ensureCSR()
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

// pathRelax mirrors pathTo's relax: record the parent link unless the node
// already has a strictly better (or equal — keep-first-on-tie) one, then
// push. src never has its link overwritten.
func (f *Framework) pathRelax(ws *queryWorkspace, src, n graph.NodeID, nd float64, prev graph.NodeID, edge graph.EdgeID, r rnet.RnetID) {
	if ws.linkEpoch[n] == ws.epoch && graph.NodeID(ws.linkPrev[n]) != graph.NoNode && ws.linkDist[n] <= nd {
		return
	}
	if n != src {
		ws.linkEpoch[n] = ws.epoch
		ws.linkPrev[n] = int32(prev)
		ws.linkEdge[n] = int32(edge)
		ws.linkRnet[n] = int32(r)
		ws.linkDist[n] = nd
	}
	ws.spq.Push(int32(n), -1, nd)
}

// pathCSR is pathTo's hot-path twin: the same target-directed ChoosePath
// with parent tracking, walked over the CSR slabs like searchCSR (bypass =
// jump to skip, descend = advance one entry) with dense epoch-stamped link
// arrays instead of per-call maps. The only explorable Rnets are the
// target's ancestor chain — at most Levels of them — so the chain is
// stamped into the verdict scratch up front and the per-entry test is one
// compare; see pathTo for why the rule is exact. The route is rebuilt in
// the workspace's hop buffer, so the one allocation of a query is the
// slice it returns.
func (f *Framework) pathCSR(q Query, target graph.ObjectID, ws *queryWorkspace, lim Limits) ([]graph.NodeID, float64, QueryStats, error) {
	stats := QueryStats{ShardsSearched: 1}
	if !f.h.Config().StorePaths {
		return nil, 0, stats, fmt.Errorf("core: framework built without StorePaths: %w", apierr.ErrPathsNotStored)
	}
	o, ok := f.objects.Get(target)
	if !ok {
		return nil, 0, stats, fmt.Errorf("core: object %d: %w", target, apierr.ErrNoSuchObject)
	}
	if q.Attr != 0 && o.Attr != q.Attr {
		return nil, 0, stats, fmt.Errorf("core: object %d does not match attribute %d: %w", target, q.Attr, apierr.ErrAttrMismatch)
	}

	c := f.ro.ensureCSR()
	f.prepare(ws)
	ws.growLinks(f.g.NumNodes())
	for r := f.h.LeafOf(o.Edge); r != rnet.NoRnet; r = f.h.Rnet(r).Parent {
		ws.verdictEpoch[r] = ws.epoch // explorable: holds the target's edge
	}

	ws.linkEpoch[q.Node] = ws.epoch
	ws.linkPrev[q.Node] = int32(graph.NoNode)
	ws.linkEdge[q.Node] = int32(graph.NoEdge)
	ws.spq.Push(int32(q.Node), -1, 0)

	e := f.g.Edge(o.Edge)
	bestEnd := graph.NoNode
	bestDist := math.Inf(1)

	for ws.spq.Len() > 0 {
		item, _ := ws.spq.Pop()
		n := item.Node
		d := item.Prio
		if d >= bestDist {
			break // cannot improve the object's distance any further
		}
		if ws.nodeEpoch[n] == ws.epoch {
			continue
		}
		ws.nodeEpoch[n] = ws.epoch
		stats.NodesPopped++
		if err := lim.Stop(stats.NodesPopped); err != nil {
			stats.Truncated = true
			return nil, 0, stats, err
		}
		nid := graph.NodeID(n)

		if nid == e.U && d+o.DU < bestDist {
			bestDist = d + o.DU
			bestEnd = nid
		}
		if nid == e.V && d+o.DV < bestDist {
			bestDist = d + o.DV
			bestEnd = nid
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
					f.pathRelax(ws, q.Node, graph.NodeID(c.scTo[j]), d+c.scDist[j], nid, graph.NoEdge, ent.rnet)
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
				f.pathRelax(ws, q.Node, graph.NodeID(c.leTo[j]), d+c.leW[j], nid, graph.EdgeID(c.leEdge[j]), rnet.NoRnet)
			}
			i++
		}
	}
	if bestEnd == graph.NoNode {
		return nil, math.Inf(1), stats, fmt.Errorf("core: object %d unreachable from node %d: %w", target, q.Node, apierr.ErrUnreachable)
	}

	// Walk the links back to the source, expanding shortcut hops.
	rev := ws.hops[:0]
	cur := bestEnd
	for cur != q.Node {
		if ws.linkEpoch[cur] != ws.epoch || graph.NodeID(ws.linkPrev[cur]) == graph.NoNode {
			return nil, 0, stats, fmt.Errorf("core: broken parent chain at node %d", cur)
		}
		prev := graph.NodeID(ws.linkPrev[cur])
		if eid := graph.EdgeID(ws.linkEdge[cur]); eid != graph.NoEdge {
			rev = append(rev, cur)
		} else {
			var err error
			if rev, err = f.appendHopReversed(rev, rnet.RnetID(ws.linkRnet[cur]), prev, cur); err != nil {
				return nil, 0, stats, err
			}
		}
		cur = prev
	}
	rev = append(rev, q.Node)
	ws.hops = rev // keep what the walk grew
	path := make([]graph.NodeID, len(rev))
	for i, v := range rev {
		path[len(rev)-1-i] = v
	}
	return path, bestDist, stats, nil
}
