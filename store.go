package road

import (
	"context"

	"road/internal/core"
	"road/internal/obs"
)

// Store is the v1 contract of one logical ROAD search service: queries,
// concurrent sessions, maintenance and persistence behind a single,
// transport-ready interface. All three implementations in this package
// satisfy it — *DB (one index), *ShardedDB (K region shards behind a
// query router) and *RemoteDB (the same router over out-of-process shard
// hosts; the two share one router-backed implementation and differ only
// in persistence) — so serving layers, benchmarks and tests are written
// once against the interface and run unchanged over any deployment shape.
//
// Query entry points take a context and a typed request struct (built
// literally, with NewKNN/NewWithin/NewPath, or decoded from JSON) and
// fail with the package's typed sentinel errors. Cancellation is
// cooperative: search loops poll the context every few heap pops, abort
// with ErrCanceled, and return the valid prefix settled so far with
// Stats.Truncated set.
//
// The Store's own query methods are single-threaded conveniences, like
// the methods on the concrete types; concurrent callers take one Querier
// per goroutine from OpenSession (a *Session from a DB, a *RouterSession
// from a ShardedDB or a RemoteDB). Every Store locks itself, so sessions,
// mutations and introspection may overlap freely: a DB with one
// store-wide reader/writer lock, a ShardedDB or RemoteDB with per-shard
// write locks, so that a mutation stalls only the readers of the shard it
// touches. Every mutation returns with the store's read-path state
// current; nothing is left for a caller or a later query to repair.
type Store interface {
	Querier

	// Query answers a batch on one session, amortizing session and epoch
	// acquisition: every Response carries the same Epoch, observed once
	// at the start of the batch. Per-entry failures land in
	// Response.Err; the batch itself never fails. A mutation may
	// complete between entries — each answer is individually consistent,
	// but late entries can observe an epoch newer than the stamped one;
	// callers that need the whole batch at one epoch must compare the
	// epoch before and after it.
	Query(ctx context.Context, reqs []Request) []Response

	// OpenSession returns an independent concurrent read context. Any
	// number of sessions may query in parallel, and mutations may overlap
	// them: each query sees the store before or after a mutation, never
	// halfway through it.
	OpenSession() Querier

	// Mutations (write-ahead journaled when a journal is attached).
	AddObject(e EdgeID, offset float64, attr int32) (Object, error)
	RemoveObject(id ObjectID) error
	SetObjectAttr(id ObjectID, attr int32) error
	SetRoadDistance(e EdgeID, dist float64) error
	AddRoad(u, v NodeID, dist float64) (EdgeID, error)
	CloseRoad(e EdgeID) error
	ReopenRoad(e EdgeID) error

	// WarmAfterMutation does nothing on any of the three stores: every
	// mutator leaves the read-path state current before it returns. It is
	// kept only so existing callers build; it will be removed.
	WarmAfterMutation()

	// Exclusive runs fn with every internal lock held: no query or
	// mutation overlaps fn, which therefore sees (and may persist) one
	// consistent view of the whole store.
	Exclusive(fn func() error) error

	// Introspection.
	NumNodes() int
	NumRoads() int
	NumObjects() int
	IndexSizeBytes() int64
	JournalSeq() uint64
	JournalSizeBytes() int64

	// Persistence. Save snapshots the store to path — one file for a DB,
	// per-shard files plus a manifest under the path prefix for a
	// ShardedDB, each host's own files whatever the path for a RemoteDB —
	// and CompactJournal rotates the attached journal(s), dropping entries
	// the latest snapshot already covers (a no-op on a RemoteDB, whose
	// hosts rotate as they snapshot). Both must run inside Exclusive when
	// other goroutines use the store.
	Save(path string) error
	CompactJournal() error
}

// Querier is one read context of a Store: the context-aware query surface
// shared by the Store itself (single-threaded convenience) and its
// sessions (one per concurrent reader).
type Querier interface {
	// KNNContext answers a k-nearest-neighbour request. On ErrCanceled /
	// ErrBudgetExhausted the returned prefix is valid and
	// Stats.Truncated is set.
	KNNContext(ctx context.Context, req KNNRequest) ([]Result, Stats, error)
	// WithinContext answers a range request, closest first.
	WithinContext(ctx context.Context, req WithinRequest) ([]Result, Stats, error)
	// PathToContext answers a detailed-route request. req.Attr validates
	// the target (ErrAttrMismatch) and does not steer the search: the route
	// and its cost depend on From and the target alone.
	PathToContext(ctx context.Context, req PathRequest) (Path, Stats, error)
	// Epoch returns the store's maintenance epoch as seen by this read
	// context — the cache-invalidation fence.
	Epoch() uint64
}

// Path is a detailed route: the physical intersections walked, and the
// network distance including the final offset along the object's road.
type Path struct {
	Nodes []NodeID `json:"nodes"`
	Dist  float64  `json:"dist"`
}

// Compile-time interface assertions: the v1 acceptance contract, for all
// three stores and both session types.
var (
	_ Store   = (*DB)(nil)
	_ Store   = (*ShardedDB)(nil)
	_ Store   = (*RemoteDB)(nil)
	_ Querier = (*Session)(nil)
	_ Querier = (*RouterSession)(nil)
)

// searchLimits folds a request context and budget into core.Limits. A
// context that can never be canceled (Background, TODO) is dropped so
// the hot loop skips the poll entirely — unless it carries a query
// trace (internal/obs), which the search layers read back off
// Limits.Ctx to record per-leg timings.
func searchLimits(ctx context.Context, budget int) core.Limits {
	lim := core.Limits{Budget: budget}
	if ctx != nil && (ctx.Done() != nil || obs.FromContext(ctx) != nil) {
		lim.Ctx = ctx
	}
	return lim
}

// traceSearch starts the single "search" trace leg a single-index query
// records when its context carries a query trace; the sharded router
// records finer-grained per-phase legs instead. The returned func is
// called with the query's settled-node count; without a trace it is a
// shared no-op.
func traceSearch(ctx context.Context) func(pops int) {
	return obs.FromContext(ctx).StartLeg(obs.LegSearch, -1)
}

// --- DB: single-index Store implementation ---

// NumNodes returns the number of intersections in the network (fixed at
// Open, so it takes no lock).
func (db *DB) NumNodes() int { return db.f.Graph().NumNodes() }

// NumRoads returns the number of road segments (including closed ones).
func (db *DB) NumRoads() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.f.Graph().NumEdges()
}

// NumObjects returns the number of live objects.
func (db *DB) NumObjects() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.f.Objects().Len()
}

// KNNContext answers a kNN request on the DB's own (single-threaded)
// read context, with full I/O simulation like DB.KNN.
func (db *DB) KNNContext(ctx context.Context, req KNNRequest) ([]Result, Stats, error) {
	if err := validateKNN(req, db.NumNodes()); err != nil {
		return nil, Stats{}, err
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	done := traceSearch(ctx)
	res, stats, err := db.f.KNNLimited(core.Query{Node: req.From, Attr: req.Attr}, req.K, req.MaxRadius, searchLimits(ctx, req.Budget))
	done(stats.NodesPopped)
	return res, stats, err
}

// WithinContext answers a range request; see KNNContext.
func (db *DB) WithinContext(ctx context.Context, req WithinRequest) ([]Result, Stats, error) {
	if err := validateWithin(req, db.NumNodes()); err != nil {
		return nil, Stats{}, err
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	done := traceSearch(ctx)
	res, stats, err := db.f.RangeLimited(core.Query{Node: req.From, Attr: req.Attr}, req.Radius, searchLimits(ctx, req.Budget))
	done(stats.NodesPopped)
	return res, stats, err
}

// PathToContext answers a detailed-route request; see KNNContext.
// Requires Options.StorePaths (ErrPathsNotStored otherwise).
func (db *DB) PathToContext(ctx context.Context, req PathRequest) (Path, Stats, error) {
	if err := validatePath(req, db.NumNodes()); err != nil {
		return Path{}, Stats{}, err
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	done := traceSearch(ctx)
	nodes, dist, stats, err := db.f.PathToLimited(core.Query{Node: req.From, Attr: req.Attr}, req.Object, searchLimits(ctx, req.Budget))
	done(stats.NodesPopped)
	return Path{Nodes: nodes, Dist: dist}, stats, err
}

// Query answers a batch on the DB's cached batch session (allocated on
// first use, reused afterwards — the amortization the entry point is
// for). Like all DB-level query methods it is single-threaded; concurrent
// batches go through OpenSession + RunBatch.
func (db *DB) Query(ctx context.Context, reqs []Request) []Response {
	if db.sess == nil {
		db.sess = db.NewSession()
	}
	return RunBatch(ctx, db.sess, reqs)
}

// OpenSession returns a concurrent read context as a Querier (the
// interface form of NewSession).
func (db *DB) OpenSession() Querier { return db.NewSession() }

// WarmAfterMutation does nothing: every DB mutator leaves the CSR slabs
// current before it returns (see Store.WarmAfterMutation).
func (db *DB) WarmAfterMutation() {}

// Save atomically snapshots the DB to path (Store.Save; the file form of
// SaveSnapshot).
func (db *DB) Save(path string) error { return db.SaveSnapshotFile(path) }

// --- Session: single-index Querier implementation ---

// KNNContext is the session variant of DB.KNNContext (no I/O simulation,
// safe for any number of concurrent sessions and mutators).
func (s *Session) KNNContext(ctx context.Context, req KNNRequest) ([]Result, Stats, error) {
	if err := validateKNN(req, s.db.NumNodes()); err != nil {
		return nil, Stats{}, err
	}
	s.db.mu.RLock()
	defer s.db.mu.RUnlock()
	done := traceSearch(ctx)
	res, stats, err := s.s.KNNLimited(core.Query{Node: req.From, Attr: req.Attr}, req.K, req.MaxRadius, searchLimits(ctx, req.Budget))
	done(stats.NodesPopped)
	return res, stats, err
}

// WithinContext is the session variant of DB.WithinContext.
func (s *Session) WithinContext(ctx context.Context, req WithinRequest) ([]Result, Stats, error) {
	if err := validateWithin(req, s.db.NumNodes()); err != nil {
		return nil, Stats{}, err
	}
	s.db.mu.RLock()
	defer s.db.mu.RUnlock()
	done := traceSearch(ctx)
	res, stats, err := s.s.RangeLimited(core.Query{Node: req.From, Attr: req.Attr}, req.Radius, searchLimits(ctx, req.Budget))
	done(stats.NodesPopped)
	return res, stats, err
}

// PathToContext is the session variant of DB.PathToContext.
func (s *Session) PathToContext(ctx context.Context, req PathRequest) (Path, Stats, error) {
	if err := validatePath(req, s.db.NumNodes()); err != nil {
		return Path{}, Stats{}, err
	}
	s.db.mu.RLock()
	defer s.db.mu.RUnlock()
	done := traceSearch(ctx)
	nodes, dist, stats, err := s.s.PathToLimited(core.Query{Node: req.From, Attr: req.Attr}, req.Object, searchLimits(ctx, req.Budget))
	done(stats.NodesPopped)
	return Path{Nodes: nodes, Dist: dist}, stats, err
}
