package road

import (
	"context"
	"fmt"

	"road/internal/shard"
	"road/internal/snapshot"
)

// routerStore is the one router-backed Store implementation: every query,
// mutation and introspection call of a store whose Rnets are placed in K
// region shards behind a shard.Router, whether the shards are in-process
// frameworks (ShardedDB) or mirrors of out-of-process hosts (RemoteDB) —
// the router itself tells the two apart. ShardedDB and RemoteDB embed it
// and add only their persistence policy.
type routerStore struct {
	r *shard.Router

	// journals holds one write-ahead journal slot per shard. A nil slot
	// applies directly: always on a RemoteDB, whose hosts journal, and on a
	// ShardedDB before AttachJournals.
	journals []*snapshot.Journal

	// sess serves the store-level convenience queries (single-threaded,
	// like DB's own methods); concurrent callers use NewSession.
	sess *RouterSession
}

func newRouterStore(r *shard.Router) routerStore {
	return routerStore{r: r, journals: make([]*snapshot.Journal, r.NumShards())}
}

// Router exposes the underlying shard router for advanced use (serving
// layers, benchmark harnesses).
func (db *routerStore) Router() *shard.Router { return db.r }

// NumShards returns the number of region shards.
func (db *routerStore) NumShards() int { return db.r.NumShards() }

// Epoch returns the store's maintenance epoch: the sum of the shard
// epochs (host-reported for out-of-process shards), bumped by every
// successful mutating call. See DB.Epoch.
func (db *routerStore) Epoch() uint64 { return db.r.Epoch() }

// IndexSizeBytes estimates total index storage across all shards.
func (db *routerStore) IndexSizeBytes() int64 { return db.r.IndexSizeBytes() }

// ShardInfos reports per-shard size, epoch and load counters; the serving
// layer's /stats and per-shard metrics read these.
func (db *routerStore) ShardInfos() []shard.Info { return db.r.Infos() }

// HomeShardOf returns the shard holding node n, or -1 for an unknown
// node. Safe on the query hot path (the topology is fixed after build).
func (db *routerStore) HomeShardOf(n NodeID) int { return db.r.HomeOf(n) }

// NumNodes returns the global intersection count (fixed at build time).
func (db *routerStore) NumNodes() int { return db.r.Graph().NumNodes() }

// NumRoads returns the global road-segment count (including closed
// ones). Safe to call concurrently with queries and mutations.
func (db *routerStore) NumRoads() int { return db.r.NumEdges() }

// NumObjects returns the number of live objects across all shards. Safe
// to call concurrently with queries and mutations.
func (db *routerStore) NumObjects() int { return db.r.NumObjects() }

// --- Queries ---

// RouterSession is an independent cross-shard read-only query context of
// a ShardedDB or a RemoteDB; any number may query concurrently. Because
// those stores synchronize internally (see Exclusive), a session may
// overlap maintenance calls: a mutation stalls only readers of its shard.
type RouterSession struct {
	s  *shard.Session
	db *routerStore
}

// NewSession returns a concurrent cross-shard query context.
func (db *routerStore) NewSession() *RouterSession {
	return &RouterSession{s: db.r.NewSession(), db: db}
}

// OpenSession returns a concurrent cross-shard read context as a Querier
// (the interface form of NewSession).
func (db *routerStore) OpenSession() Querier { return db.NewSession() }

func (db *routerStore) session() *RouterSession {
	if db.sess == nil {
		db.sess = db.NewSession()
	}
	return db.sess
}

// KNNContext answers a kNN request on the store's cached session; see
// RouterSession.KNNContext.
func (db *routerStore) KNNContext(ctx context.Context, req KNNRequest) ([]Result, Stats, error) {
	return db.session().KNNContext(ctx, req)
}

// WithinContext answers a range request on the store's cached session.
func (db *routerStore) WithinContext(ctx context.Context, req WithinRequest) ([]Result, Stats, error) {
	return db.session().WithinContext(ctx, req)
}

// PathToContext answers a detailed-route request on the store's cached
// session; see RouterSession.PathToContext.
func (db *routerStore) PathToContext(ctx context.Context, req PathRequest) (Path, Stats, error) {
	return db.session().PathToContext(ctx, req)
}

// Query answers a batch on the store's cached session; see DB.Query.
func (db *routerStore) Query(ctx context.Context, reqs []Request) []Response {
	return RunBatch(ctx, db.session(), reqs)
}

// Epoch returns the store's maintenance epoch as seen by this session.
func (s *RouterSession) Epoch() uint64 { return s.s.Epoch() }

// KNNContext answers a kNN request across shards. MaxRadius is honoured
// by truncating the merged answer (the single-index search applies it
// inside the expansion; results are identical). On a RemoteDB a query
// that needs a down host fails with ErrShardUnavailable.
func (s *RouterSession) KNNContext(ctx context.Context, req KNNRequest) ([]Result, Stats, error) {
	if err := validateKNN(req, s.db.NumNodes()); err != nil {
		return nil, Stats{}, err
	}
	res, stats, err := s.s.KNNLimited(req.From, req.K, req.Attr, searchLimits(ctx, req.Budget))
	return clampByRadius(res, req.MaxRadius), stats, err
}

// WithinContext answers a range request across shards.
func (s *RouterSession) WithinContext(ctx context.Context, req WithinRequest) ([]Result, Stats, error) {
	if err := validateWithin(req, s.db.NumNodes()); err != nil {
		return nil, Stats{}, err
	}
	return s.s.WithinLimited(req.From, req.Radius, req.Attr, searchLimits(ctx, req.Budget))
}

// PathToContext answers a detailed-route request across shards (no
// StorePaths option needed: shards always store waypoints).
func (s *RouterSession) PathToContext(ctx context.Context, req PathRequest) (Path, Stats, error) {
	if err := validatePath(req, s.db.NumNodes()); err != nil {
		return Path{}, Stats{}, err
	}
	if err := s.db.checkPathAttr(req); err != nil {
		return Path{}, Stats{}, err
	}
	nodes, dist, stats, err := s.s.PathToLimited(req.From, req.Object, searchLimits(ctx, req.Budget))
	return Path{Nodes: nodes, Dist: dist}, stats, err
}

// checkPathAttr enforces PathRequest.Attr, which the single-index path
// search checks internally but the shard router (attribute-agnostic by
// design) does not. It reads through ObjectErr: an out-of-process shard's
// object payload lives on its host, and "host unreachable" must surface
// as ErrShardUnavailable, not ErrNoSuchObject.
func (db *routerStore) checkPathAttr(req PathRequest) error {
	if req.Attr == 0 {
		return nil
	}
	o, ok, err := db.r.ObjectErr(req.Object)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("road: object %d: %w", req.Object, ErrNoSuchObject)
	}
	if o.Attr != req.Attr {
		return fmt.Errorf("road: object %d does not match attribute %d: %w", req.Object, req.Attr, ErrAttrMismatch)
	}
	return nil
}

// --- Maintenance ---
//
// Every mutation runs through Router.Mutate: the op is encoded (IDs
// allocated) under the router's mutation lock, write-ahead logged inside
// the owning shard's write lock — to that shard's attached journal, or by
// its host before the apply RPC returns — then applied through the same
// router code path journal replay re-runs on recovery. Because
// synchronization is internal (see Exclusive), mutations MAY overlap
// queries: a mutation stalls only readers of its own shard.

// journalAndApply write-ahead logs op to its shard's journal (when
// attached) and applies it through the router — the exact code path
// journal replay re-runs on recovery. Runs inside Mutate's critical
// section, under the owning shard's write lock.
func (db *routerStore) journalAndApply(sid shard.ID, op snapshot.Op) error {
	if j := db.journals[sid]; j != nil {
		if _, err := j.Append(op); err != nil {
			return fmt.Errorf("road: journaling %s: %w", op.Kind, err)
		}
	}
	//roadvet:ignore append is conditional by design: a store without an attached journal is ephemeral (ShardedDB) or journaled by the shard's host (RemoteDB) and applies directly
	return db.r.ApplyOp(sid, op, true)
}

// applyOp encodes, journals and applies one mutation under the router's
// per-shard locking; the encoded op is returned so callers can report
// the global IDs it allocated.
func (db *routerStore) applyOp(encode func() (shard.ID, snapshot.Op, error)) (snapshot.Op, error) {
	return db.r.Mutate(encode, db.journalAndApply)
}

// AddObject places an object on road e at distance offset from the road's
// U endpoint. See DB.AddObject.
func (db *routerStore) AddObject(e EdgeID, offset float64, attr int32) (Object, error) {
	var obj Object
	_, err := db.r.Mutate(func() (shard.ID, snapshot.Op, error) {
		return db.r.EncodeInsertObject(e, offset, attr)
	}, func(sid shard.ID, op snapshot.Op) error {
		if err := db.journalAndApply(sid, op); err != nil {
			return err
		}
		// Resolve the inserted object's global form while the shard
		// write lock still excludes a concurrent deletion of it.
		o, ok := db.r.ObjectInShard(sid, op.Object)
		if !ok {
			return fmt.Errorf("road: object %d missing after insert: %w", op.Object, ErrNoSuchObject)
		}
		obj = o
		return nil
	})
	if err != nil {
		return Object{}, err
	}
	return obj, nil
}

// RemoveObject deletes an object.
func (db *routerStore) RemoveObject(id ObjectID) error {
	_, err := db.applyOp(func() (shard.ID, snapshot.Op, error) {
		return db.r.EncodeDeleteObject(id)
	})
	return err
}

// SetObjectAttr changes an object's attribute category.
func (db *routerStore) SetObjectAttr(id ObjectID, attr int32) error {
	_, err := db.applyOp(func() (shard.ID, snapshot.Op, error) {
		return db.r.EncodeSetObjectAttr(id, attr)
	})
	return err
}

// SetRoadDistance changes a road's distance metric; the owning shard's
// index and border distance table repair themselves incrementally
// (filter-and-refresh), and an out-of-process shard's host ships the
// border-table repair back for the router's mirror.
func (db *routerStore) SetRoadDistance(e EdgeID, dist float64) error {
	_, err := db.applyOp(func() (shard.ID, snapshot.Op, error) {
		return db.r.EncodeSetDistance(e, dist)
	})
	return err
}

// AddRoad inserts a new road segment between existing intersections. Both
// endpoints must be present in a common shard (always true for roads that
// do not bridge two previously unconnected regions); otherwise the call
// fails with ErrCrossShardRoad.
func (db *routerStore) AddRoad(u, v NodeID, dist float64) (EdgeID, error) {
	op, err := db.applyOp(func() (shard.ID, snapshot.Op, error) {
		return db.r.EncodeAddRoad(u, v, dist)
	})
	if err != nil {
		return NoEdge, err
	}
	return op.Edge, nil
}

// CloseRoad removes a road segment (objects on it are dropped).
func (db *routerStore) CloseRoad(e EdgeID) error {
	_, err := db.applyOp(func() (shard.ID, snapshot.Op, error) {
		return db.r.EncodeClose(e)
	})
	return err
}

// ReopenRoad restores a previously closed road segment.
func (db *routerStore) ReopenRoad(e EdgeID) error {
	_, err := db.applyOp(func() (shard.ID, snapshot.Op, error) {
		return db.r.EncodeReopen(e)
	})
	return err
}

// WarmAfterMutation is a no-op for a router-backed store: mutations
// synchronize internally and re-warm the owning shard's CSR slabs
// before releasing its write lock (on the host, for an out-of-process
// shard, before the apply RPC returns), so by the time any caller could
// run this, the work is already done — and doing it here, outside the
// locks, would race with concurrent readers.
func (db *routerStore) WarmAfterMutation() {}

// Exclusive runs fn with every internal lock held: no query or mutation
// overlaps it. It satisfies road.Synchronized; serving layers use it for
// whole-store operations that need one consistent multi-shard view, such
// as Save followed by CompactJournal.
func (db *routerStore) Exclusive(fn func() error) error { return db.r.Exclusive(fn) }
