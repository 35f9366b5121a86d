package shard

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"road/internal/apierr"
	"road/internal/core"
	"road/internal/graph"
	"road/internal/partition"
	"road/internal/rnet"
	"road/internal/snapshot"
)

// ErrIntegrity marks a replay whose journal and base state have diverged
// in a way that would corrupt the router's global bookkeeping (unlike an
// ordinary op failure, which replays a failure that also happened live).
// Callers must treat it as fatal: the shard set is not recovered.
var ErrIntegrity = errors.New("shard: journal does not match base state")

// Options tunes Router construction.
type Options struct {
	// Shards is the number of region shards K (a power of two ≥ 2, like
	// the partitioner's fanout).
	Shards int
	// Seed drives the deterministic shard partitioning.
	Seed int64
	// KLPasses bounds border-minimizing refinement of the shard cut
	// (negative selects the partitioner default, 0 disables).
	KLPasses int
	// Core configures each shard's framework. A zero Rnet config resolves
	// per-shard defaults sized to that shard's node count. Rnet.StorePaths
	// is always turned on: route legs expand shortcut waypoints.
	Core core.Config
}

// Router owns K region shards over one road network and dispatches
// queries and maintenance to them. Queries run on Sessions (any number
// concurrently) and mutations go through Mutate; the two are
// synchronized internally with per-shard write locks, so a mutation
// excludes only readers of its own shard (plus cross-shard readers,
// which hold every shard's read lock) — readers of the other K-1 shards
// proceed concurrently. See DESIGN.md, "Per-shard locking".
type Router struct {
	g      *graph.Graph // global network mirror (IDs + topology bookkeeping)
	shards []*Shard

	// Locking (fixed acquisition order, outermost first):
	//
	//	writeMu → shardMu[i] (ascending when several) → metaMu
	//
	// writeMu serializes mutations and whole-router exclusion, so at
	// most one shard write lock is ever contended at a time and ID
	// allocation (NextEdgeID, nextObj) is atomic with the apply.
	// shardMu[i] excludes shard i's readers from its active mutation;
	// the query fast path holds only the home shard's read lock, the
	// cross-shard path holds all of them. metaMu guards the
	// router-global bookkeeping every shard shares (the g mirror,
	// edgeShard, objLoc, nextObj); it is a leaf lock — nothing is
	// acquired while holding it.
	writeMu sync.Mutex
	shardMu []sync.RWMutex
	metaMu  sync.RWMutex

	// shardsOf maps a global node to the shards containing it: nil for
	// edge-less nodes, one entry for interior nodes, several for borders.
	// Immutable after build (node sets are fixed), so queries read it
	// without locks.
	shardsOf [][]ID
	// edgeShard maps a global edge to its owning shard (metaMu).
	edgeShard []ID

	// objLoc locates every live object: global ID -> owning shard
	// (metaMu). Local IDs are resolved through the shard's own maps.
	objLoc  map[graph.ObjectID]ID
	nextObj graph.ObjectID

	seed     int64
	klPasses int
}

// Build partitions g's active edges into opt.Shards region shards, builds
// one framework per shard, adopts objects into their owning shards, and
// wires the cross-shard routing state. The global graph and object set
// are adopted: further mutation must go through Router methods.
func Build(g *graph.Graph, objects *graph.ObjectSet, opt Options) (*Router, error) {
	if opt.Shards < 2 || opt.Shards&(opt.Shards-1) != 0 {
		return nil, fmt.Errorf("shard: shard count must be a power of two ≥ 2, got %d", opt.Shards)
	}
	active := make([]graph.EdgeID, 0, g.NumEdges())
	for e := 0; e < g.NumEdges(); e++ {
		if !g.Edge(graph.EdgeID(e)).Removed {
			active = append(active, graph.EdgeID(e))
		}
	}
	if len(active) < opt.Shards {
		return nil, fmt.Errorf("shard: network has %d active edges, need at least %d for %d shards", len(active), opt.Shards, opt.Shards)
	}
	klPasses := opt.KLPasses
	if klPasses == 0 {
		// The shard cut is worth far more refinement than an in-shard Rnet
		// cut: every border node taxes the border tables (O(B²)), the
		// watch sets, and — worst — the fraction of queries that must take
		// the cross-shard slow path. The split runs once at build time, so
		// spend a generous pass budget minimizing it.
		klPasses = 4 * partition.DefaultKLPasses
	}
	// The shard split takes the place of the hierarchy's top level(s):
	// when the per-shard Rnet shape is left to defaults, size it for the
	// WHOLE network and subtract the levels the K-way split already
	// provides — otherwise every shard gets the full default depth and
	// leaf Rnets shrink to a handful of edges, slowing every traversal.
	if opt.Core.Rnet.Fanout == 0 && opt.Core.Rnet.Levels == 0 {
		rcfg := rnet.DefaultConfig(g.NumNodes())
		for covered := 1; covered < opt.Shards && rcfg.Levels > 1; covered *= rcfg.Fanout {
			rcfg.Levels--
		}
		rcfg.Seed = opt.Core.Rnet.Seed
		rcfg.EdgeWeight = opt.Core.Rnet.EdgeWeight
		opt.Core.Rnet = rcfg
	}
	// Route legs expand shortcut hops, so every shard stores waypoints.
	opt.Core.Rnet.StorePaths = true
	parts, err := partition.Split(g, active, partition.Options{
		Parts:    opt.Shards,
		KLPasses: klPasses,
		Seed:     opt.Seed,
	})
	if err != nil {
		return nil, err
	}

	r := &Router{
		g:         g,
		shards:    make([]*Shard, 0, opt.Shards),
		shardMu:   make([]sync.RWMutex, opt.Shards),
		edgeShard: make([]ID, g.NumEdges()),
		objLoc:    make(map[graph.ObjectID]ID, objects.Len()),
		nextObj:   objects.NextID(),
		seed:      opt.Seed,
		klPasses:  klPasses,
	}
	for i := range r.edgeShard {
		r.edgeShard[i] = -1
	}
	border := splitBorders(g, parts)
	for id, part := range parts {
		sort.Slice(part, func(i, j int) bool { return part[i] < part[j] })
		s, err := newShard(id, g, objects, part, border, opt.Core)
		if err != nil {
			return nil, err
		}
		r.shards = append(r.shards, s)
		for _, ge := range part {
			r.edgeShard[ge] = id
		}
		if err := r.locateObjects(s); err != nil {
			return nil, err
		}
	}
	r.deriveBorders()
	for _, s := range r.shards {
		s.pinBorders()
	}
	return r, nil
}

// splitBorders marks the nodes incident to edges of two or more parts:
// the shard borders the split creates, known before any shard is built so
// each shard's hierarchy is built with them pinned.
func splitBorders(g *graph.Graph, parts [][]graph.EdgeID) []bool {
	owner := make([]int, g.NumNodes()) // part+1 of the first edge seen, 0 for none
	border := make([]bool, g.NumNodes())
	for i, part := range parts {
		for _, e := range part {
			ed := g.Edge(e)
			for _, n := range [2]graph.NodeID{ed.U, ed.V} {
				switch owner[n] {
				case 0:
					owner[n] = i + 1
				case i + 1:
				default:
					border[n] = true
				}
			}
		}
	}
	return border
}

// deriveBorders indexes the global-node → shards map and installs every
// shard's border set, both derived from the shards' node lists.
func (r *Router) deriveBorders() {
	r.shardsOf = make([][]ID, r.g.NumNodes())
	nodes := make([][]graph.NodeID, len(r.shards))
	for i, s := range r.shards {
		nodes[i] = s.globalNode
		for _, gn := range s.globalNode {
			r.shardsOf[gn] = append(r.shardsOf[gn], s.ID)
		}
	}
	for i, b := range shardBorders(nodes) {
		r.shards[i].borders = b
		r.shards[i].indexBorders()
	}
}

// Graph returns the global network mirror. Its topology and IDs are
// authoritative; edge weights are kept in sync on the live mutation path
// (queries never read them — they run on the shard graphs). The caller
// must not use it concurrently with mutations; the concurrency-safe
// counters are NumEdges and NumObjects.
func (r *Router) Graph() *graph.Graph { return r.g }

// NumShards returns the number of shards.
func (r *Router) NumShards() int { return len(r.shards) }

// HomeOf returns the lowest shard containing global node gn, or -1 for
// an unknown node. Lock-free: shardsOf is immutable after assembly (the
// node set is fixed for the deployment's lifetime), so this is safe on
// the query hot path — the server uses it to label query-log records
// with their home shard.
func (r *Router) HomeOf(gn graph.NodeID) ID {
	if int(gn) < 0 || int(gn) >= len(r.shardsOf) || len(r.shardsOf[gn]) == 0 {
		return -1
	}
	return r.shardsOf[gn][0]
}

// Shard returns shard id.
func (r *Router) Shard(id ID) *Shard { return r.shards[id] }

// NumObjects returns the number of live objects across all shards. Safe
// to call concurrently with queries and mutations.
func (r *Router) NumObjects() int {
	r.metaMu.RLock()
	defer r.metaMu.RUnlock()
	return len(r.objLoc)
}

// NumEdges returns the global road-segment count, including closed
// segments. Safe to call concurrently with queries and mutations.
func (r *Router) NumEdges() int {
	r.metaMu.RLock()
	defer r.metaMu.RUnlock()
	return r.g.NumEdges()
}

// --- Locking ---

// mutateMeta runs fn under the global-bookkeeping write lock. Called
// only from the mutation path (inside Mutate's critical section).
func (r *Router) mutateMeta(fn func()) {
	r.metaMu.Lock()
	fn()
	r.metaMu.Unlock()
}

// rlockAll / runlockAll bracket a cross-shard read view: every shard's
// read lock, ascending. A mutation anywhere is excluded for its
// duration, so the gateway tables and all shard frameworks are one
// consistent snapshot.
func (r *Router) rlockAll() {
	for i := range r.shardMu {
		r.shardMu[i].RLock()
	}
}

func (r *Router) runlockAll() {
	for i := range r.shardMu {
		r.shardMu[i].RUnlock()
	}
}

// Mutate runs one mutation: encode resolves it to an owning shard and a
// journal-ready op under the router's mutation lock (so ID allocation is
// atomic with the apply), then apply runs under that shard's write lock
// — excluding only readers of that shard, which is the whole point of
// per-shard locking. The encoded op is returned even on failure so
// callers can report the IDs it allocated.
func (r *Router) Mutate(encode func() (ID, snapshot.Op, error), apply func(ID, snapshot.Op) error) (snapshot.Op, error) {
	r.writeMu.Lock()
	defer r.writeMu.Unlock()
	sid, op, err := encode()
	if err != nil {
		return op, err
	}
	r.shardMu[sid].Lock()
	defer r.shardMu[sid].Unlock()
	if err := apply(sid, op); err != nil {
		// Even a failed op can have staled CSR slabs (a road addition
		// whose global mirror rejected it, say); re-warm before this
		// shard's readers resume.
		r.shards[sid].warmTrees()
		return op, err
	}
	r.shards[sid].mutations.Add(1)
	return op, nil
}

// Exclusive runs fn with the mutation lock and every shard's write lock
// held: queries and mutations are fully excluded, giving fn one
// consistent view of the whole router — the contract snapshot saves
// need.
func (r *Router) Exclusive(fn func() error) error {
	r.writeMu.Lock()
	defer r.writeMu.Unlock()
	for i := range r.shardMu {
		r.shardMu[i].Lock()
	}
	defer func() {
		for i := range r.shardMu {
			r.shardMu[i].Unlock()
		}
	}()
	return fn()
}

// Epoch returns the router's maintenance epoch: the sum of the shard
// frameworks' epochs. Every successful mutation bumps exactly one shard,
// so the sum is monotonic, and it survives snapshot round-trips because
// each shard's epoch is persisted with its framework.
func (r *Router) Epoch() uint64 {
	var sum uint64
	for _, s := range r.shards {
		sum += s.epoch()
	}
	return sum
}

// IndexSizeBytes sums the shard frameworks' index sizes (host-reported
// for mirror shards). Safe to call concurrently with queries and
// mutations (per-shard read locks).
func (r *Router) IndexSizeBytes() int64 {
	var sum int64
	for i, s := range r.shards {
		r.shardMu[i].RLock()
		sum += s.indexSizeBytes()
		r.shardMu[i].RUnlock()
	}
	return sum
}

// WarmTrees brings every shard's CSR search slabs up to date with its
// hierarchy (core.Framework.WarmTrees). Single-threaded
// bulk use only (after build or journal replay, before serving): the live
// mutation path re-warms the mutated shard itself, under its write lock.
func (r *Router) WarmTrees() {
	for _, s := range r.shards {
		s.warmTrees()
	}
}

// OnCSRDrain registers fn with every in-process shard's framework
// (core.Framework.OnCSRDrain). Call before serving; fn runs under the
// drained shard's write lock and may run for several shards at once.
func (r *Router) OnCSRDrain(fn func(time.Duration)) {
	for _, s := range r.shards {
		if s.F != nil {
			s.F.OnCSRDrain(fn)
		}
	}
}

// NextObjectID returns the global ID the next inserted object will get.
func (r *Router) NextObjectID() graph.ObjectID { return r.nextObj }

// NextEdgeID returns the global ID the next added road will get.
func (r *Router) NextEdgeID() graph.EdgeID { return graph.EdgeID(r.g.NumEdges()) }

// OwnerOfEdge returns the shard owning a global edge.
func (r *Router) OwnerOfEdge(ge graph.EdgeID) (*Shard, error) {
	if ge < 0 || int(ge) >= len(r.edgeShard) || r.edgeShard[ge] < 0 {
		return nil, fmt.Errorf("shard: edge %d: %w", ge, apierr.ErrNoSuchEdge)
	}
	return r.shards[r.edgeShard[ge]], nil
}

// OwnerOfObject returns the shard holding a global object.
func (r *Router) OwnerOfObject(gid graph.ObjectID) (*Shard, error) {
	r.metaMu.RLock()
	id, ok := r.objLoc[gid]
	r.metaMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("shard: object %d: %w", gid, apierr.ErrNoSuchObject)
	}
	return r.shards[id], nil
}

// ShardForNewRoad picks the shard a new road between global nodes u and v
// will live in: the lowest-ID shard containing both endpoints. Roads
// whose endpoints share no shard are rejected — admitting them would
// change shard boundaries, which are fixed at build time.
func (r *Router) ShardForNewRoad(u, v graph.NodeID) (*Shard, error) {
	if int(u) < 0 || int(u) >= len(r.shardsOf) || int(v) < 0 || int(v) >= len(r.shardsOf) {
		return nil, fmt.Errorf("shard: endpoint out of range (%d,%d): %w", u, v, apierr.ErrNoSuchNode)
	}
	for _, su := range r.shardsOf[u] {
		for _, sv := range r.shardsOf[v] {
			if su == sv {
				return r.shards[su], nil
			}
		}
	}
	return nil, fmt.Errorf("shard: nodes %d and %d: cross-shard road additions are not supported: %w", u, v, apierr.ErrCrossShardRoad)
}

// --- Mutation application ---
//
// Every ShardedDB mutation — live or replayed from a shard's write-ahead
// journal — goes through ApplyOp with a snapshot.Op in SHARD-LOCAL
// coordinates, with the op's otherwise-unused fields carrying the global
// IDs the router must record:
//
//	OpAddRoad:      U, V local endpoints; Edge = the global edge ID
//	OpInsertObject: Edge local; Object = the global object ID
//	OpDeleteObject / OpSetObjectAttr: Object = the GLOBAL object ID
//	OpSetDistance / OpClose / OpReopen: Edge local
//
// Using one code path for both directions is what makes replay land in
// exactly the live state: the same translations, the same map updates,
// the same failure modes.

// ApplyOp itself lives in apply.go, split into the shard-side half
// (Shard.applyLocal — which also runs on shard hosts) and the
// router-side global bookkeeping.

// --- Op encoding (the live-mutation side of the unified apply path) ---
//
// Each Encode* helper resolves a global-coordinate mutation to its owning
// shard and the journal-ready local-coordinate op. The caller write-ahead
// logs the op to that shard's journal, then hands the SAME op to ApplyOp
// — so live execution and crash replay run byte-identical operations.

// EncodeSetDistance prepares an edge re-weight.
func (r *Router) EncodeSetDistance(ge graph.EdgeID, dist float64) (ID, snapshot.Op, error) {
	s, err := r.OwnerOfEdge(ge)
	if err != nil {
		return 0, snapshot.Op{}, err
	}
	return s.ID, snapshot.Op{Kind: snapshot.OpSetDistance, Edge: s.localEdge[ge], Value: dist}, nil
}

// EncodeClose prepares a road closure.
func (r *Router) EncodeClose(ge graph.EdgeID) (ID, snapshot.Op, error) {
	s, err := r.OwnerOfEdge(ge)
	if err != nil {
		return 0, snapshot.Op{}, err
	}
	return s.ID, snapshot.Op{Kind: snapshot.OpClose, Edge: s.localEdge[ge]}, nil
}

// EncodeReopen prepares a road restoration.
func (r *Router) EncodeReopen(ge graph.EdgeID) (ID, snapshot.Op, error) {
	s, err := r.OwnerOfEdge(ge)
	if err != nil {
		return 0, snapshot.Op{}, err
	}
	return s.ID, snapshot.Op{Kind: snapshot.OpReopen, Edge: s.localEdge[ge]}, nil
}

// EncodeAddRoad prepares a road addition between existing global nodes;
// Op.Edge carries the global ID the new road will receive.
func (r *Router) EncodeAddRoad(u, v graph.NodeID, dist float64) (ID, snapshot.Op, error) {
	s, err := r.ShardForNewRoad(u, v)
	if err != nil {
		return 0, snapshot.Op{}, err
	}
	op := snapshot.Op{
		Kind:  snapshot.OpAddRoad,
		U:     s.localNode[u],
		V:     s.localNode[v],
		Value: dist,
		Edge:  r.NextEdgeID(),
	}
	return s.ID, op, nil
}

// EncodeInsertObject prepares an object insertion; Op.Object carries the
// global ID the object will receive.
func (r *Router) EncodeInsertObject(ge graph.EdgeID, du float64, attr int32) (ID, snapshot.Op, error) {
	s, err := r.OwnerOfEdge(ge)
	if err != nil {
		return 0, snapshot.Op{}, err
	}
	op := snapshot.Op{
		Kind:   snapshot.OpInsertObject,
		Edge:   s.localEdge[ge],
		Value:  du,
		Attr:   attr,
		Object: r.nextObj,
	}
	return s.ID, op, nil
}

// EncodeDeleteObject prepares an object deletion (global ID).
func (r *Router) EncodeDeleteObject(gid graph.ObjectID) (ID, snapshot.Op, error) {
	s, err := r.OwnerOfObject(gid)
	if err != nil {
		return 0, snapshot.Op{}, err
	}
	return s.ID, snapshot.Op{Kind: snapshot.OpDeleteObject, Object: gid}, nil
}

// EncodeSetObjectAttr prepares an attribute change (global ID).
func (r *Router) EncodeSetObjectAttr(gid graph.ObjectID, attr int32) (ID, snapshot.Op, error) {
	s, err := r.OwnerOfObject(gid)
	if err != nil {
		return 0, snapshot.Op{}, err
	}
	return s.ID, snapshot.Op{Kind: snapshot.OpSetObjectAttr, Object: gid, Attr: attr}, nil
}

// Object returns a live object by global ID, in global coordinates.
// Safe to call concurrently with queries and mutations: the owning shard
// is resolved under the bookkeeping lock, then re-verified under that
// shard's read lock (the object may be deleted between the two).
func (r *Router) Object(gid graph.ObjectID) (graph.Object, bool) {
	o, ok, _ := r.ObjectErr(gid)
	return o, ok
}

// ObjectErr is Object with the transport error surfaced: for a mirror
// shard the payload lives on the host, and "not found" must stay
// distinguishable from "host unreachable".
func (r *Router) ObjectErr(gid graph.ObjectID) (graph.Object, bool, error) {
	r.metaMu.RLock()
	sid, ok := r.objLoc[gid]
	r.metaMu.RUnlock()
	if !ok {
		return graph.Object{}, false, nil
	}
	r.shardMu[sid].RLock()
	defer r.shardMu[sid].RUnlock()
	return r.objectInShard(sid, gid)
}

// ObjectInShard resolves a global object known to live in shard sid,
// taking no locks: for callers already inside that shard's lock — a
// Mutate apply callback reading back the object it just inserted, say.
func (r *Router) ObjectInShard(sid ID, gid graph.ObjectID) (graph.Object, bool) {
	o, ok, _ := r.objectInShard(sid, gid)
	return o, ok
}

func (r *Router) objectInShard(sid ID, gid graph.ObjectID) (graph.Object, bool, error) {
	s := r.shards[sid]
	lo, ok := s.localObj[gid]
	if !ok {
		return graph.Object{}, false, nil
	}
	var o graph.Object
	if s.F != nil {
		o, ok = s.F.Objects().Get(lo)
	} else {
		var err error
		o, ok, err = s.remote.Object(lo)
		if err != nil {
			return graph.Object{}, false, err
		}
	}
	if !ok {
		return graph.Object{}, false, nil
	}
	o.ID = gid
	o.Edge = s.globalEdge[o.Edge]
	return o, true, nil
}

// RefreshAll rebuilds every shard's derived routing state (watch sets and
// border tables) and re-warms CSR slabs — the bulk counterpart of
// per-op refresh, for after journal replay. Mirror shards are skipped:
// their derived state arrives from the host (adoption and ApplyReply).
func (r *Router) RefreshAll() {
	for _, s := range r.shards {
		if s.F == nil {
			continue
		}
		s.RefreshDerived()
	}
}

// Info describes one shard for monitoring (/stats).
type Info struct {
	ID            ID     `json:"id"`
	Nodes         int    `json:"nodes"`
	Edges         int    `json:"edges"`
	Objects       int    `json:"objects"`
	Borders       int    `json:"borders"`
	Epoch         uint64 `json:"epoch"`
	IndexKB       int64  `json:"index_kb"`
	Host          string `json:"host,omitempty"` // serving host (mirror shards)
	HomeQueries   uint64 `json:"home_queries"`
	RemoteEntries uint64 `json:"remote_entries"`
	Escalations   uint64 `json:"escalations"`
	Mutations     uint64 `json:"mutations"`
	// CSR is the upkeep of the shard's CSR search index: whether mutations
	// patched or rebuilt it, and its size. Zero for mirror shards, whose
	// index lives on their host (see the host's own /metrics).
	CSR core.CSRStats `json:"csr"`
}

// Infos snapshots per-shard state and load counters. Safe to call
// concurrently with queries and mutations (per-shard read locks).
func (r *Router) Infos() []Info {
	out := make([]Info, len(r.shards))
	for i, s := range r.shards {
		r.shardMu[i].RLock()
		out[i] = Info{
			ID:            s.ID,
			Nodes:         s.numNodes(),
			Edges:         s.numEdges(),
			Objects:       s.numObjects(),
			Borders:       len(s.borders),
			Epoch:         s.epoch(),
			IndexKB:       s.indexSizeBytes() / 1024,
			HomeQueries:   s.homeQueries.Load(),
			RemoteEntries: s.remoteEntries.Load(),
			Escalations:   s.escalations.Load(),
			Mutations:     s.mutations.Load(),
		}
		if s.F == nil {
			out[i].Host = s.remote.Host()
		} else {
			out[i].CSR = s.F.CSRStats()
		}
		r.shardMu[i].RUnlock()
	}
	return out
}
