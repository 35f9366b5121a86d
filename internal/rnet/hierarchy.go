// Package rnet builds and maintains the Rnet hierarchy at the heart of
// ROAD (§3.2–3.3): the road network is recursively partitioned into
// regional sub-networks (Rnets), each bounded by border nodes; every Rnet
// carries shortcuts — shortest paths between its border nodes — computed
// bottom-up level by level (Lemma 2), optionally pruned of transitively
// redundant entries (Lemma 4). Per-node shortcut trees organize each
// node's view of the hierarchy for the traversal algorithm, and
// incremental maintenance (§5.2) keeps shortcuts correct across edge
// re-weights, additions and deletions using the filter-and-refresh scheme.
//
// Pinned nodes extend Definition 1: a pinned node is a border of every
// Rnet holding one of its edges, at every level, whether or not its edges
// span two Rnets. A caller pins the nodes its searches must reach without
// descending — a shard pins its boundary nodes — so the shortcuts of every
// enclosing Rnet end at them (Lemma 2). Pinning changes only which nodes
// are borders; distances and answers stay those of the plain hierarchy.
package rnet

import (
	"fmt"
	"sort"

	"road/internal/graph"
	"road/internal/partition"
)

// RnetID identifies an Rnet within a Hierarchy. Level-1 Rnets come first,
// then level 2, and so on; the implicit level-0 Rnet (the whole network,
// which has no border nodes) is not materialized.
type RnetID = int32

// NoRnet marks the absence of an Rnet.
const NoRnet RnetID = -1

// Rnet is one regional sub-network (Definition 1): a set of edges bounded
// by border nodes. Edge sets are materialized at the leaf level only;
// membership at upper levels follows from the parent chain.
type Rnet struct {
	ID       RnetID
	Level    int // 1..Levels
	Parent   RnetID
	Children []RnetID
	Borders  []graph.NodeID
	Edges    []graph.EdgeID // leaf level only
}

// Shortcut is the shortest path between two border nodes of one Rnet
// (Definition 3), computed over the sub-network the Rnet encloses. Via
// holds intermediate waypoints — interior path nodes at the leaf level,
// child-level border nodes above — when the hierarchy stores paths.
type Shortcut struct {
	From, To graph.NodeID
	Dist     float64
	Via      []graph.NodeID
}

// Config controls hierarchy construction.
type Config struct {
	// Fanout is the partitioning factor p (a power of two ≥ 2; the paper's
	// default is 4).
	Fanout int
	// Levels is the hierarchy depth l ≥ 1 (the paper defaults to 4 for CA
	// and 8 for NA/SF).
	Levels int
	// KLPasses bounds Kernighan–Lin refinement during partitioning;
	// negative selects the partitioner default, 0 disables refinement.
	KLPasses int
	// Seed makes partitioning deterministic.
	Seed int64
	// StorePaths records Via waypoints on shortcuts, enabling full path
	// reconstruction at the cost of memory.
	StorePaths bool
	// PruneMaxBorders applies Lemma-4 transitive pruning in Rnets with at
	// most this many border nodes (the O(B³) test is restricted to small
	// Rnets). 0 disables pruning.
	PruneMaxBorders int
	// EdgeWeight, when non-nil, biases partitioning balance by per-edge
	// weight instead of edge count — the paper's future-work object-based
	// partitioning (weight edges by object load so object-dense areas get
	// finer Rnets). The hierarchy build captures the weights once; later
	// object churn does not re-partition.
	EdgeWeight func(graph.EdgeID) float64
}

// DefaultConfig returns the paper's default settings for a network of the
// given node count: p=4, l=4 below 50k nodes and l=8 at or above.
func DefaultConfig(numNodes int) Config {
	l := 4
	if numNodes >= 50000 {
		l = 8
	}
	return Config{Fanout: 4, Levels: l, KLPasses: -1, PruneMaxBorders: 32}
}

// maxLeafRnets is the leaf count a hierarchy may always reach, whatever
// the network's size: 4^10, the deepest of the paper's sweeps.
const maxLeafRnets = 1 << 20

// Validate checks that c describes a hierarchy that can be built over a
// network of the given number of edges: a power-of-two fanout ≥ 2 and a
// depth of at least 1 whose Fanout^Levels leaf Rnets do not exceed
// max(2^20, edges). Partitioning splits every Rnet down to the leaf level
// even when it holds no edge, so a deeper hierarchy only multiplies empty
// Rnets until memory runs out. The error names the deepest usable depth.
func (c Config) Validate(edges int) error {
	if c.Fanout < 2 || c.Fanout&(c.Fanout-1) != 0 {
		return fmt.Errorf("rnet: fanout must be a power of two ≥ 2, got %d", c.Fanout)
	}
	if c.Levels < 1 {
		return fmt.Errorf("rnet: levels must be ≥ 1, got %d", c.Levels)
	}
	limit := max(maxLeafRnets, edges)
	deepest := 0 // the largest l with Fanout^l ≤ limit
	for leaves := 1; leaves <= limit/c.Fanout; leaves *= c.Fanout {
		deepest++
	}
	if c.Levels > deepest {
		return fmt.Errorf("rnet: %d levels of fanout %d make more than max(2^20, %d edges) leaf Rnets; at most %d levels are usable", c.Levels, c.Fanout, edges, deepest)
	}
	return nil
}

// Hierarchy is the built Rnet hierarchy over one graph.
type Hierarchy struct {
	g   *graph.Graph
	cfg Config

	rnets  []Rnet
	levels [][]RnetID // level (1-based) -> Rnet IDs
	leafOf []RnetID   // edge -> leaf Rnet (NoRnet for never-assigned edges)

	// originLeaf remembers the leaf Rnet each edge was first assigned to
	// (at build time, or when an added edge was hosted). RestoreEdge falls
	// back to it when every edge incident to both endpoints is closed, so
	// a fully isolated road can always be reopened into its original Rnet.
	originLeaf []RnetID

	// shortcuts[r] maps a border node of Rnet r to its outgoing shortcuts.
	shortcuts []map[graph.NodeID][]Shortcut

	// trees caches per-node pointer shortcut trees for the reference
	// traversal; it stays empty until that path first runs (see Tree).
	trees []*TreeNode

	// isBorder[r] is the border set of Rnet r for O(1) membership tests;
	// borderRnetsOf[n] is the inverse: the Rnets n is a border of.
	isBorder      []map[graph.NodeID]bool
	borderRnetsOf [][]RnetID

	// pinned marks the pinned nodes (see the package doc); indexed by
	// node, shorter than the node count when the last nodes are unpinned.
	// Topology maintenance re-derives border status with it, so a pinned
	// node stays pinned.
	pinned []bool

	// ws is the reusable Dijkstra workspace for shortcut computation,
	// recreated when the graph gains nodes.
	ws      *graph.Search
	wsNodes int

	// topoGen advances whenever a mutation changes state that derived flat
	// indexes bake in — the core CSR slabs hold shortcut distances, edge
	// weights and tree shapes — and dirty names the nodes those changes
	// touched since the last DrainDirty. The two move together (markDirty
	// is the only writer of both), so a consumer whose recorded generation
	// matches has nothing to drain, and one that drains can repair exactly
	// the logged nodes instead of rebuilding. inDirty dedups the log;
	// dirtyAll records that it overflowed dirtyCap and every node must be
	// treated as touched.
	topoGen  uint64
	dirty    []graph.NodeID
	inDirty  []bool
	dirtyAll bool
}

// TopoGen returns the hierarchy's topology generation: it moves with every
// entry the dirty-node log takes, i.e. on every SetEdgeWeight that changed
// a weight and every AddEdge, DeleteEdge and RestoreEdge that touched the
// hierarchy. A derived structure recording the generation it was brought
// up to date at is stale iff the generations differ.
func (h *Hierarchy) TopoGen() uint64 { return h.topoGen }

// dirtyCap bounds the dirty-node log: past an eighth of the network (with
// a floor that keeps tiny networks patchable) repairing node by node stops
// being cheaper than one flat rebuild, so bulk journal replay overflows
// into "everything dirty" instead of growing the log.
func (h *Hierarchy) dirtyCap() int {
	if c := h.g.NumNodes() / 8; c > 16 {
		return c
	}
	return 16
}

// markDirty logs that node n's flattened view — its tree shape, the
// weights of its incident edges or its shortcuts across some Rnet —
// changed.
func (h *Hierarchy) markDirty(n graph.NodeID) {
	h.topoGen++
	if h.dirtyAll {
		return
	}
	if len(h.inDirty) < h.g.NumNodes() {
		h.inDirty = append(h.inDirty, make([]bool, h.g.NumNodes()-len(h.inDirty))...)
	}
	if h.inDirty[n] {
		return
	}
	if len(h.dirty) >= h.dirtyCap() {
		h.DrainDirty()
		h.dirtyAll = true
		return
	}
	h.inDirty[n] = true
	h.dirty = append(h.dirty, n)
}

// markBordersDirty logs every border node of Rnet r: their shortcut lists
// across r are what a changed shortcut set rewrites.
func (h *Hierarchy) markBordersDirty(r RnetID) {
	for _, b := range h.rnets[r].Borders {
		h.markDirty(b)
	}
}

// DrainDirty empties the dirty-node log and returns what it held: the
// distinct nodes touched since the previous drain, or all=true when the
// log overflowed and every node must be treated as touched. The slice is
// reused by later mutations; the log has one consumer (the CSR index of
// the framework built over this hierarchy).
func (h *Hierarchy) DrainDirty() (nodes []graph.NodeID, all bool) {
	nodes, all = h.dirty, h.dirtyAll
	for _, n := range nodes {
		h.inDirty[n] = false
	}
	h.dirty = h.dirty[:0]
	h.dirtyAll = false
	return nodes, all
}

// Build constructs the Rnet hierarchy for g.
func Build(g *graph.Graph, cfg Config) (*Hierarchy, error) {
	return BuildPinned(g, cfg, nil)
}

// BuildPinned constructs the Rnet hierarchy for g with the given nodes
// pinned from the start, so every shortcut set is computed once over the
// final border sets. Partitioning ignores the pins: the result equals
// Build followed by Pin.
func BuildPinned(g *graph.Graph, cfg Config, pinned []graph.NodeID) (*Hierarchy, error) {
	if err := cfg.Validate(g.NumEdges()); err != nil {
		return nil, err
	}
	h := &Hierarchy{g: g, cfg: cfg}
	if err := h.partition(); err != nil {
		return nil, err
	}
	for _, n := range pinned {
		h.setPinned(n)
	}
	h.originLeaf = append([]RnetID(nil), h.leafOf...)
	h.computeBorders()
	h.computeAllShortcuts()
	return h, nil
}

// Graph returns the underlying road network.
func (h *Hierarchy) Graph() *graph.Graph { return h.g }

// Config returns the configuration the hierarchy was built with.
func (h *Hierarchy) Config() Config { return h.cfg }

// Levels returns the hierarchy depth l.
func (h *Hierarchy) Levels() int { return h.cfg.Levels }

// NumRnets returns the number of materialized Rnets across all levels.
func (h *Hierarchy) NumRnets() int { return len(h.rnets) }

// Rnet returns the Rnet with the given ID.
func (h *Hierarchy) Rnet(id RnetID) *Rnet { return &h.rnets[id] }

// AtLevel returns the IDs of all Rnets at the given level (1-based).
func (h *Hierarchy) AtLevel(level int) []RnetID { return h.levels[level-1] }

// LeafOf returns the leaf Rnet containing edge e, or NoRnet if the edge was
// added to the graph without being registered with the hierarchy.
func (h *Hierarchy) LeafOf(e graph.EdgeID) RnetID {
	if int(e) >= len(h.leafOf) {
		return NoRnet
	}
	return h.leafOf[e]
}

// OriginLeafOf returns the leaf Rnet edge e was originally assigned to
// (NoRnet for edges never hosted by the hierarchy). Unlike LeafOf it is
// stable across closures: a closed edge keeps its origin.
func (h *Hierarchy) OriginLeafOf(e graph.EdgeID) RnetID {
	if int(e) >= len(h.originLeaf) {
		return NoRnet
	}
	return h.originLeaf[e]
}

// AncestorAt returns the ancestor of Rnet r at the given level (which must
// be ≤ r's level).
func (h *Hierarchy) AncestorAt(r RnetID, level int) RnetID {
	for h.rnets[r].Level > level {
		r = h.rnets[r].Parent
	}
	return r
}

// AncestorChain returns r and its ancestors ordered leaf-to-root
// (level l first, level 1 last) starting from leaf Rnet r.
func (h *Hierarchy) AncestorChain(r RnetID) []RnetID {
	var out []RnetID
	for r != NoRnet {
		out = append(out, r)
		r = h.rnets[r].Parent
	}
	return out
}

// isPinned reports whether n is pinned: a border of every Rnet holding
// one of its edges.
func (h *Hierarchy) isPinned(n graph.NodeID) bool {
	return int(n) < len(h.pinned) && h.pinned[n]
}

// setPinned marks n pinned without touching border state.
func (h *Hierarchy) setPinned(n graph.NodeID) {
	if int(n) >= len(h.pinned) {
		h.pinned = append(h.pinned, make([]bool, int(n)+1-len(h.pinned))...)
	}
	h.pinned[n] = true
}

// IsBorder reports whether n is a border node of Rnet r.
func (h *Hierarchy) IsBorder(r RnetID, n graph.NodeID) bool {
	return h.isBorder[r][n]
}

// ShortcutsFrom returns the shortcuts leaving border node n across Rnet r.
// The slice is owned by the hierarchy.
func (h *Hierarchy) ShortcutsFrom(r RnetID, n graph.NodeID) []Shortcut {
	return h.shortcuts[r][n]
}

// ShortcutCount returns the total number of stored shortcuts.
func (h *Hierarchy) ShortcutCount() int {
	total := 0
	for _, m := range h.shortcuts {
		for _, scs := range m {
			total += len(scs)
		}
	}
	return total
}

// BorderCount returns the total number of (Rnet, border) incidences.
func (h *Hierarchy) BorderCount() int {
	total := 0
	for i := range h.rnets {
		total += len(h.rnets[i].Borders)
	}
	return total
}

// SizeBytes estimates the hierarchy's storage footprint: Rnet records,
// border lists and shortcuts (with Via waypoints when stored). It is the
// Route-Overlay component of the paper's index-size metric.
func (h *Hierarchy) SizeBytes() int64 {
	const (
		nodeIDSize   = 4
		shortcutSize = 4 + 4 + 8 // from + to + dist
		rnetFixed    = 24
	)
	var total int64
	for i := range h.rnets {
		r := &h.rnets[i]
		total += rnetFixed
		total += int64(len(r.Borders)) * nodeIDSize
		total += int64(len(r.Edges)) * 4
	}
	for _, m := range h.shortcuts {
		for _, scs := range m {
			for _, sc := range scs {
				total += shortcutSize
				total += int64(len(sc.Via)) * nodeIDSize
			}
		}
	}
	return total
}

// partition recursively splits the edge set into the Rnet tree.
func (h *Hierarchy) partition() error {
	all := make([]graph.EdgeID, 0, h.g.NumEdges())
	for e := 0; e < h.g.NumEdges(); e++ {
		if !h.g.Edge(graph.EdgeID(e)).Removed {
			all = append(all, graph.EdgeID(e))
		}
	}
	h.leafOf = make([]RnetID, h.g.NumEdges())
	for i := range h.leafOf {
		h.leafOf[i] = NoRnet
	}
	h.levels = make([][]RnetID, h.cfg.Levels)

	type job struct {
		parent RnetID
		level  int
		edges  []graph.EdgeID
	}
	jobs := []job{{parent: NoRnet, level: 1, edges: all}}
	for len(jobs) > 0 {
		j := jobs[0]
		jobs = jobs[1:]
		parts, err := partition.Split(h.g, j.edges, partition.Options{
			Parts:    h.cfg.Fanout,
			KLPasses: h.cfg.KLPasses,
			Seed:     h.cfg.Seed + int64(j.parent)*7919 + int64(j.level),
			Weight:   h.cfg.EdgeWeight,
		})
		if err != nil {
			return err
		}
		for _, p := range parts {
			id := RnetID(len(h.rnets))
			r := Rnet{ID: id, Level: j.level, Parent: j.parent}
			if j.level == h.cfg.Levels {
				r.Edges = p
				for _, e := range p {
					h.leafOf[e] = id
				}
			}
			h.rnets = append(h.rnets, r)
			h.levels[j.level-1] = append(h.levels[j.level-1], id)
			if j.parent != NoRnet {
				h.rnets[j.parent].Children = append(h.rnets[j.parent].Children, id)
			}
			if j.level < h.cfg.Levels {
				jobs = append(jobs, job{parent: id, level: j.level + 1, edges: p})
			}
		}
	}
	return nil
}

// computeBorders derives border sets for every Rnet at every level: node n
// is a border of level-i Rnet R exactly when n has incident edges both
// inside and outside R (Definition 1), or has an edge inside R and is
// pinned.
func (h *Hierarchy) computeBorders() {
	h.isBorder = make([]map[graph.NodeID]bool, len(h.rnets))
	for i := range h.isBorder {
		h.isBorder[i] = make(map[graph.NodeID]bool)
	}
	h.borderRnetsOf = make([][]RnetID, h.g.NumNodes())
	for n := 0; n < h.g.NumNodes(); n++ {
		h.recomputeNodeBorders(graph.NodeID(n))
	}
	h.rebuildBorderLists()
}

// recomputeNodeBorders updates the border membership of one node in
// h.isBorder (but not the per-Rnet Borders slices; see rebuildBorderLists).
func (h *Hierarchy) recomputeNodeBorders(n graph.NodeID) {
	// Drop any existing membership.
	for _, r := range h.borderRnetsOf[n] {
		delete(h.isBorder[r], n)
	}
	h.borderRnetsOf[n] = h.borderRnetsOf[n][:0]
	need := 2 // Rnets holding n's edges at a level, for n to border them
	if h.isPinned(n) {
		need = 1
	}
	for level := 1; level <= h.cfg.Levels; level++ {
		rnets := h.nodeRnetsAt(n, level)
		if len(rnets) >= need {
			for _, r := range rnets {
				h.isBorder[r][n] = true
				h.borderRnetsOf[n] = append(h.borderRnetsOf[n], r)
			}
		}
	}
}

// nodeRnetsAt returns the distinct level-i Rnets containing edges incident
// to n, sorted ascending.
func (h *Hierarchy) nodeRnetsAt(n graph.NodeID, level int) []RnetID {
	var out []RnetID
	for _, half := range h.g.Neighbors(n) {
		leaf := h.LeafOf(half.Edge)
		if leaf == NoRnet {
			continue
		}
		r := h.AncestorAt(leaf, level)
		found := false
		for _, x := range out {
			if x == r {
				found = true
				break
			}
		}
		if !found {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// rebuildBorderLists regenerates every Rnet's Borders slice from isBorder.
func (h *Hierarchy) rebuildBorderLists() {
	for i := range h.rnets {
		h.rebuildBorderList(RnetID(i))
	}
}

func (h *Hierarchy) rebuildBorderList(r RnetID) {
	set := h.isBorder[r]
	bs := make([]graph.NodeID, 0, len(set))
	for n := range set {
		bs = append(bs, n)
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	h.rnets[r].Borders = bs
}
