// Package shard splits one road network into K region shards along the
// same partition boundaries the ROAD Rnet hierarchy is built from, runs
// an independent core.Framework per shard, and routes queries across them.
//
// Each shard is a self-contained sub-network: the partitioner assigns
// every edge to exactly one shard, nodes incident to edges of two or more
// shards become border nodes shared by all of them (Definition 4 of the
// paper, applied one level above the in-shard hierarchy). A shard keeps a
// distance table between its own border nodes — the shard-level analogue
// of the paper's shortcuts — and the Router stitches those tables into a
// gateway graph that carries a search from the query's home shard into
// any shard that might still hold a closer object. A result set is final
// only when every unexplored shard's entry distance exceeds the current
// kth-best (or the range radius): the cross-shard merge bound.
//
// The subsystem is deliberately framework-per-shard rather than one big
// framework: every shard has its own epoch, its own snapshot, and its own
// write-ahead journal, which is the seam that later lets shards move
// out-of-process.
package shard

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"road/internal/core"
	"road/internal/graph"
)

// ID identifies a shard within a Router (dense, starting at 0).
type ID = int

// BorderArc is one entry of a shard's border distance table: the shortest
// within-shard distance from one border node to another. Arcs to borders
// unreachable inside the shard are simply absent.
type BorderArc struct {
	To   graph.NodeID // global ID of the destination border
	Dist float64
}

// Shard is one region of the network: a local graph (with its own dense
// node/edge IDs), an object set, and a full ROAD framework over them,
// plus the identity maps that translate between shard-local and global
// IDs.
type Shard struct {
	ID ID
	// F is the shard's framework — non-nil for in-process shards. A nil F
	// marks a MIRROR of an out-of-process shard: identity maps, borders
	// and btable are kept here (queries and op encoding read them
	// constantly), while all compute goes through remote.
	F *core.Framework

	// remote is the out-of-process handle backing a mirror shard.
	remote RemoteShard
	// Freshness header cached from the host's last ApplyReply / adopted
	// state (mirror shards only; atomics — the read paths take no locks).
	repoch  atomic.Uint64
	rbytes  atomic.Int64
	rseq    atomic.Uint64
	rjbytes atomic.Int64

	// Identity maps. Node sets are fixed at build time (roads may be
	// added, but only between existing intersections); edge and object
	// sets grow.
	globalNode []graph.NodeID                // local node -> global node
	localNode  map[graph.NodeID]graph.NodeID // global node -> local node
	globalEdge []graph.EdgeID                // local edge -> global edge
	localEdge  map[graph.EdgeID]graph.EdgeID // global edge -> local edge
	// globalObj maps local object IDs (dense, never reused) to global
	// IDs; -1 marks deleted slots. A slice, not a map: it sits on the
	// per-result translation path of every query.
	globalObj []graph.ObjectID
	localObj  map[graph.ObjectID]graph.ObjectID // global object -> local object

	// borders lists the global IDs of this shard's border nodes (nodes
	// shared with at least one other shard), sorted ascending. The set is
	// static: border membership follows node presence, and nodes never
	// move between shards.
	borders []graph.NodeID
	// localBorders is borders in local IDs, in the same order: the
	// targets of every border search and of the head-borders route leg.
	localBorders []graph.NodeID

	// watch marks the borders (in local IDs) for the home-shard search
	// and the derived-state repair; rebuilt after topology mutations,
	// which can move nodes between the shard's internal Rnets. The
	// borders are pinned in the shard's hierarchy (pinBorders), so the
	// set marks no Rnet to descend.
	watch *core.WatchSet

	// btable holds, per border (global ID), the within-shard shortest
	// distances to the shard's other borders — the arcs of the Router's
	// gateway graph. Rebuilt after any network mutation in this shard.
	btable map[graph.NodeID][]BorderArc

	// repair is the derived-state workspace (maintain.go): used only on
	// the Router's mutation path (single-threaded under the router's
	// mutation lock, with this shard's readers excluded by its write
	// lock), never by query sessions.
	repair repairScratch

	// Load counters (read path, hence atomic): queries whose query node
	// lives in this shard, cross-shard expansions entering it, home
	// queries that escalated past the fast path (a watched border lay
	// below the local answer), and mutations applied to it.
	homeQueries   atomic.Uint64
	remoteEntries atomic.Uint64
	escalations   atomic.Uint64
	mutations     atomic.Uint64
}

// GlobalNodes returns the shard's local-to-global node map (owned by the
// shard; callers must not mutate).
func (s *Shard) GlobalNodes() []graph.NodeID { return s.globalNode }

// GlobalEdges returns the shard's local-to-global edge map.
func (s *Shard) GlobalEdges() []graph.EdgeID { return s.globalEdge }

// Borders returns the global IDs of the shard's border nodes.
func (s *Shard) Borders() []graph.NodeID { return s.borders }

// LocalNode translates a global node ID, reporting whether the node is
// present in this shard.
func (s *Shard) LocalNode(g graph.NodeID) (graph.NodeID, bool) {
	l, ok := s.localNode[g]
	return l, ok
}

// IsRemote reports whether this Shard is a mirror of an out-of-process
// shard (compute lives on a host, reached through Remote()).
func (s *Shard) IsRemote() bool { return s.F == nil }

// Remote returns the out-of-process handle backing a mirror shard (nil
// for in-process shards).
func (s *Shard) Remote() RemoteShard { return s.remote }

// The accessors below paper over the local/mirror split for the router's
// aggregate surfaces (Epoch, Infos, sizes).

func (s *Shard) epoch() uint64 {
	if s.F != nil {
		return s.F.Epoch()
	}
	return s.repoch.Load()
}

func (s *Shard) indexSizeBytes() int64 {
	if s.F != nil {
		return s.F.IndexSizeBytes()
	}
	return s.rbytes.Load()
}

func (s *Shard) numNodes() int { return len(s.globalNode) }
func (s *Shard) numEdges() int { return len(s.globalEdge) }

func (s *Shard) numObjects() int {
	if s.F != nil {
		return s.F.Objects().Len()
	}
	return len(s.localObj)
}

// newSearcher returns the shard's per-session query handle: in-process
// compute, or the remote client's RPC-backed searcher.
func (s *Shard) newSearcher() Searcher {
	if s.F != nil {
		return s.newLocalSearcher()
	}
	return s.remote.NewSearcher()
}

// newShard assembles one shard from its slice of the global network.
// edges must be the shard's global edge IDs sorted ascending; objects is
// the global object set (only objects on the shard's edges are adopted);
// border marks the global nodes that are shard borders, which the shard's
// hierarchy is built with pinned.
func newShard(id ID, g *graph.Graph, objects *graph.ObjectSet, edges []graph.EdgeID, border []bool, cfg core.Config) (*Shard, error) {
	// Collect the node set (sorted ascending so local IDs are stable and
	// deterministic), then materialize the local graph while filling the
	// shard's identity record.
	nodes := make([]graph.NodeID, 0, 2*len(edges))
	for _, e := range edges {
		ed := g.Edge(e)
		nodes = append(nodes, ed.U, ed.V)
	}
	slices.Sort(nodes)
	sm := &ShardManifest{GlobalNode: slices.Compact(nodes), GlobalEdge: edges}
	local := func(gn graph.NodeID) graph.NodeID {
		li, _ := slices.BinarySearch(sm.GlobalNode, gn)
		return graph.NodeID(li)
	}

	lg := graph.New(len(sm.GlobalNode), len(edges))
	var pinned []graph.NodeID
	for li, gn := range sm.GlobalNode {
		lg.AddNode(g.Coord(gn))
		if border[gn] {
			pinned = append(pinned, graph.NodeID(li))
		}
	}
	lset := graph.NewObjectSet(lg)
	for _, ge := range edges {
		ed := g.Edge(ge)
		le, err := lg.AddEdge(local(ed.U), local(ed.V), ed.Weight)
		if err != nil {
			return nil, fmt.Errorf("shard %d: adopting edge %d: %w", id, ge, err)
		}
		for _, gid := range objects.OnEdge(ge) {
			o, _ := objects.Get(gid)
			lo, err := lset.Add(le, o.DU, o.Attr)
			if err != nil {
				return nil, fmt.Errorf("shard %d: adopting object %d: %w", id, gid, err)
			}
			sm.Objects = append(sm.Objects, [2]graph.ObjectID{lo.ID, gid})
		}
	}
	s, err := newShardIdentity(id, sm, lg)
	if err != nil {
		return nil, err
	}
	if s.F, err = core.BuildPinned(lg, lset, cfg, pinned); err != nil {
		return nil, fmt.Errorf("shard %d: %w", id, err)
	}
	return s, nil
}

// addObject records a local object's global identity in both object
// maps, growing the dense translation table as needed.
func (s *Shard) addObject(lo, gid graph.ObjectID) {
	for int(lo) >= len(s.globalObj) {
		s.globalObj = append(s.globalObj, -1)
	}
	s.globalObj[lo] = gid
	s.localObj[gid] = lo
}

// dropObject forgets a global object's identity, if the shard holds it.
func (s *Shard) dropObject(gid graph.ObjectID) {
	if lo, ok := s.localObj[gid]; ok {
		s.globalObj[lo] = -1
		delete(s.localObj, gid)
	}
}

// pinBorders pins the shard's border set in its hierarchy and builds the
// derived watch set and border distance table.
func (s *Shard) pinBorders() {
	s.F.PinBorders(s.localBorders)
	s.refreshDerived(true)
}

// indexBorders derives localBorders from borders.
func (s *Shard) indexBorders() {
	s.localBorders = make([]graph.NodeID, len(s.borders))
	for i, b := range s.borders {
		s.localBorders[i] = s.localNode[b]
	}
}

// refreshDerived rebuilds the border distance table — and, when
// topology changed, the watch set (Rnet membership of borders may have
// moved). Must run while readers are excluded: query sessions consult
// both.
func (s *Shard) refreshDerived(topology bool) {
	if topology || s.watch == nil {
		s.watch = s.F.NewWatchSet(s.localBorders)
	}
	s.rebuildBTable()
}

// rebuildBTable recomputes the within-shard shortest distances between
// every pair of the shard's border nodes: one border search
// (distToBorders) from each border over the shard's CSR index. The
// incremental path (maintain.go) instead repairs only the rows a
// mutation could have changed.
func (s *Shard) rebuildBTable() {
	s.btable = make(map[graph.NodeID][]BorderArc, len(s.borders))
	if len(s.borders) < 2 {
		return
	}
	rs := &s.repair
	for i, a := range s.borders {
		rs.row = s.distToBorders(rs.row, s.localBorders[i])
		arcs := make([]BorderArc, 0, len(s.borders)-1)
		for j, to := range s.borders {
			if i != j && !isInf(rs.row[j]) {
				arcs = append(arcs, BorderArc{To: to, Dist: rs.row[j]})
			}
		}
		s.btable[a] = arcs
	}
}

func isInf(d float64) bool { return d > maxFinite }

// maxFinite is a practical "unreachable" threshold: all real network
// distances are far below it, and +Inf compares above it.
const maxFinite = 1e300

var inf = math.Inf(1)
