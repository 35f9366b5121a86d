package road

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"road/internal/core"
	"road/internal/geom"
	"road/internal/graph"
	"road/internal/rnet"
	"road/internal/snapshot"
)

// Re-exported identifier types.
type (
	// NodeID identifies a road intersection.
	NodeID = graph.NodeID
	// EdgeID identifies a road segment.
	EdgeID = graph.EdgeID
	// ObjectID identifies a spatial object (point of interest).
	ObjectID = graph.ObjectID
	// Object is a spatial object placed on a road segment.
	Object = graph.Object
	// Result is one query answer: an object and its network distance.
	Result = core.Result
	// Stats reports per-query traversal and I/O cost.
	Stats = core.QueryStats
	// AbstractKind selects the object-abstract representation.
	AbstractKind = core.AbstractKind
)

// Abstract representation choices (see core package for trade-offs).
const (
	AbstractSet   = core.AbstractSet
	AbstractCount = core.AbstractCount
	AbstractBloom = core.AbstractBloom
)

// AnyAttr matches objects of every attribute category.
const AnyAttr int32 = 0

// NoEdge marks the absence of an edge.
const NoEdge = graph.NoEdge

// NetworkBuilder accumulates a road network prior to Open.
type NetworkBuilder struct {
	g *graph.Graph
}

// NewNetworkBuilder returns an empty builder.
func NewNetworkBuilder() *NetworkBuilder {
	return &NetworkBuilder{g: graph.New(0, 0)}
}

// FromGraph wraps an existing graph (e.g. from the dataset generators)
// in a builder.
func FromGraph(g *graph.Graph) *NetworkBuilder {
	return &NetworkBuilder{g: g}
}

// AddNode adds an intersection at map position (x, y) and returns its ID.
func (b *NetworkBuilder) AddNode(x, y float64) NodeID {
	return b.g.AddNode(geom.Point{X: x, Y: y})
}

// AddRoad adds a bidirectional road segment of the given positive distance
// (travel distance, trip time, or toll — any positive metric).
func (b *NetworkBuilder) AddRoad(u, v NodeID, dist float64) (EdgeID, error) {
	return b.g.AddEdge(u, v, dist)
}

// NumNodes returns the number of intersections added so far.
func (b *NetworkBuilder) NumNodes() int { return b.g.NumNodes() }

// NumRoads returns the number of segments added so far.
func (b *NetworkBuilder) NumRoads() int { return b.g.NumEdges() }

// Options tunes DB construction. The zero value picks sensible defaults
// (fanout 4 and a depth suited to the network size, per the paper).
type Options struct {
	// Fanout is the partitioning factor p (power of two ≥ 2; default 4).
	Fanout int
	// Levels is the Rnet hierarchy depth l (default 4, or 8 for networks
	// of 50k+ nodes).
	Levels int
	// Abstract selects the object-abstract representation
	// (default AbstractSet).
	Abstract AbstractKind
	// StorePaths retains shortcut waypoints so result paths can be
	// reconstructed (costs memory).
	StorePaths bool
	// DisableIOSim turns off the simulated page store (slightly faster,
	// no Stats.IO reporting).
	DisableIOSim bool
	// Seed makes partitioning deterministic across runs (default 0).
	Seed int64
}

// DB is an opened ROAD database: one road network with its Rnet hierarchy,
// Route Overlay, and a primary object directory.
//
// A DB locks itself: any number of sessions may query while mutators,
// journal replay and Exclusive run, each of which excludes every reader
// for its duration. Save and CompactJournal do not lock; run them inside
// Exclusive when other goroutines use the DB.
type DB struct {
	// mu is held for writing by the mutators, ReplayJournal,
	// AttachJournal and Exclusive, and for reading by every query and
	// by the introspection methods that read the index.
	mu sync.RWMutex
	f  *core.Framework

	// sess is the cached session Query batches run on (single-threaded,
	// like every DB-level query method); allocated on first use.
	sess *Session

	// journal, when attached, receives every maintenance op BEFORE it is
	// applied (write-ahead); baseSeq is the journal sequence number the
	// DB's base state (build or loaded snapshot) already includes. Both
	// change under mu's write lock but are atomics, so JournalSeq and
	// JournalSizeBytes read them without it — from inside Exclusive too.
	journal atomic.Pointer[snapshot.Journal]
	baseSeq atomic.Uint64

	// lastSnapSeq is the journal watermark of the most recent snapshot
	// known to exist on disk (saved by this process, or the one this DB
	// was loaded from) — the highest sequence CompactJournal may discard.
	lastSnapSeq uint64
}

// Open builds the ROAD index over the builder's network. The builder's
// network is adopted by the DB; further mutation must go through DB
// methods.
func Open(b *NetworkBuilder, opts Options) (*DB, error) {
	if b.g.NumNodes() < 2 {
		return nil, fmt.Errorf("road: network needs at least 2 nodes, has %d", b.g.NumNodes())
	}
	rcfg := rnet.DefaultConfig(b.g.NumNodes())
	if opts.Fanout != 0 {
		rcfg.Fanout = opts.Fanout
	}
	if opts.Levels != 0 {
		rcfg.Levels = opts.Levels
	}
	rcfg.StorePaths = opts.StorePaths
	rcfg.Seed = opts.Seed
	cfg := core.Config{Rnet: rcfg, Abstract: opts.Abstract}
	if opts.DisableIOSim {
		cfg.BufferPages = -1
	}
	objects := graph.NewObjectSet(b.g)
	f, err := core.Build(b.g, objects, cfg)
	if err != nil {
		return nil, err
	}
	return &DB{f: f}, nil
}

// OpenWithObjects builds the ROAD index with a pre-populated object set
// (which must be bound to the builder's graph).
func OpenWithObjects(b *NetworkBuilder, objects *graph.ObjectSet, opts Options) (*DB, error) {
	if objects.Graph() != b.g {
		return nil, fmt.Errorf("road: object set bound to a different network")
	}
	db, err := Open(b, opts)
	if err != nil {
		return nil, err
	}
	// Rebuild with the provided set: Open built an empty directory; attach
	// the real one as primary.
	db.f = replaceObjects(db.f, objects, opts)
	return db, nil
}

func replaceObjects(f *core.Framework, objects *graph.ObjectSet, opts Options) *core.Framework {
	// The hierarchy and overlay are object-independent; only the directory
	// is rebuilt — this is exactly the separation ROAD advertises.
	return core.Rebind(f, objects, opts.Abstract)
}

// Framework exposes the underlying core framework for advanced use
// (benchmark harnesses, ablations).
func (db *DB) Framework() *core.Framework { return db.f }

// logOp appends a maintenance op to the attached journal before it is
// applied — the write-ahead ordering crash recovery depends on. With no
// journal attached it is a no-op.
func (db *DB) logOp(op snapshot.Op) error {
	j := db.journal.Load()
	if j == nil {
		return nil
	}
	if _, err := j.Append(op); err != nil {
		return fmt.Errorf("road: journaling %s: %w", op.Kind, err)
	}
	return nil
}

// AddObject places an object on road e at distance offset from the road's
// U endpoint, with an attribute category (use 0 for "untyped").
func (db *DB) AddObject(e EdgeID, offset float64, attr int32) (Object, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.checkEdge(e); err != nil {
		return Object{}, err
	}
	if err := db.logOp(snapshot.Op{Kind: snapshot.OpInsertObject, Edge: e, Value: offset, Attr: attr}); err != nil {
		return Object{}, err
	}
	return db.f.InsertObject(e, offset, attr)
}

// RemoveObject deletes an object.
func (db *DB) RemoveObject(id ObjectID) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.logOp(snapshot.Op{Kind: snapshot.OpDeleteObject, Object: id}); err != nil {
		return err
	}
	return db.f.DeleteObject(id)
}

// SetObjectAttr changes an object's attribute category.
func (db *DB) SetObjectAttr(id ObjectID, attr int32) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.logOp(snapshot.Op{Kind: snapshot.OpSetObjectAttr, Object: id, Attr: attr}); err != nil {
		return err
	}
	return db.f.UpdateObjectAttr(id, attr)
}

// SetRoadDistance changes a road's distance metric (e.g. travel time under
// new traffic conditions); the index repairs itself incrementally.
func (db *DB) SetRoadDistance(e EdgeID, dist float64) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.checkEdge(e); err != nil {
		return err
	}
	if err := db.logOp(snapshot.Op{Kind: snapshot.OpSetDistance, Edge: e, Value: dist}); err != nil {
		return err
	}
	_, err := db.f.SetEdgeWeight(e, dist)
	return err
}

// AddRoad inserts a new road segment between existing intersections.
func (db *DB) AddRoad(u, v NodeID, dist float64) (EdgeID, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.logOp(snapshot.Op{Kind: snapshot.OpAddRoad, U: u, V: v, Value: dist}); err != nil {
		return NoEdge, err
	}
	e, _, err := db.f.AddEdge(u, v, dist)
	return e, err
}

// CloseRoad removes a road segment (objects on it are dropped).
func (db *DB) CloseRoad(e EdgeID) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.checkEdge(e); err != nil {
		return err
	}
	if err := db.logOp(snapshot.Op{Kind: snapshot.OpClose, Edge: e}); err != nil {
		return err
	}
	_, err := db.f.DeleteEdge(e)
	return err
}

// ReopenRoad restores a previously closed road segment.
func (db *DB) ReopenRoad(e EdgeID) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if err := db.checkEdge(e); err != nil {
		return err
	}
	if err := db.logOp(snapshot.Op{Kind: snapshot.OpReopen, Edge: e}); err != nil {
		return err
	}
	_, err := db.f.RestoreEdge(e)
	return err
}

// checkEdge rejects an edge ID outside the network before it is journaled:
// the graph layer indexes dense arrays with it and would panic.
func (db *DB) checkEdge(e EdgeID) error {
	if e < 0 || int(e) >= db.f.Graph().NumEdges() {
		return fmt.Errorf("road: edge %d: %w", e, ErrNoSuchEdge)
	}
	return nil
}

// Exclusive runs fn with the DB's write lock held: no query or mutation
// overlaps it, so fn sees (and may persist) one consistent state — the
// contract Save and CompactJournal need when other goroutines use the DB.
func (db *DB) Exclusive(fn func() error) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return fn()
}

// IndexSizeBytes estimates total index storage.
func (db *DB) IndexSizeBytes() int64 {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.f.IndexSizeBytes()
}

// CSRStats reports how the CSR search index has been kept current (see
// core.Framework.CSRStats); safe to call while the DB serves.
func (db *DB) CSRStats() core.CSRStats {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.f.CSRStats()
}

// Epoch returns the database's maintenance epoch: a counter incremented by
// every successful mutating call (AddObject, SetRoadDistance, CloseRoad,
// ...). Cached query answers are valid exactly as long as the epoch they
// were computed under is still current; roadd's result cache is built on
// this. The counter is safe to read concurrently.
func (db *DB) Epoch() uint64 { return db.f.Epoch() }

// --- Persistence (snapshots + write-ahead journal) ---

// Journal is a write-ahead log of maintenance operations; see
// internal/snapshot for the on-disk format and recovery semantics.
type Journal = snapshot.Journal

// OpenJournal opens (or creates) a write-ahead journal at path, repairing
// a torn tail entry left by a crash. Attach it with DB.AttachJournal, or
// replay it over a loaded snapshot with DB.ReplayJournal first.
func OpenJournal(path string) (*Journal, error) { return snapshot.OpenJournal(path) }

// SaveSnapshot serializes the DB — network, Rnet hierarchy with
// shortcuts, objects and Association Directory — to w in the versioned,
// checksummed snapshot format. If a journal is attached, the snapshot
// records the last journal sequence it includes, so a later
// ReplayJournal applies only post-snapshot entries. It does not lock: run
// it inside Exclusive when other goroutines use the DB.
func (db *DB) SaveSnapshot(w io.Writer) error {
	seq := db.snapshotSeq()
	if err := snapshot.Save(db.f, seq, w); err != nil {
		return err
	}
	db.lastSnapSeq = seq
	return nil
}

// SaveSnapshotFile atomically writes a snapshot to path (temp file +
// rename), so a crash mid-save never corrupts the previous snapshot.
func (db *DB) SaveSnapshotFile(path string) error {
	seq := db.snapshotSeq()
	if err := snapshot.SaveFile(db.f, seq, path); err != nil {
		return err
	}
	db.lastSnapSeq = seq
	return nil
}

// CompactJournal rotates the attached journal, dropping every entry the
// most recent snapshot already includes. Call it right after a snapshot
// save, inside the same Exclusive (roadd does both in one); without a
// snapshot it is a no-op, since every journal entry is still needed for
// recovery. The journal file shrinks to its header plus any entries
// appended since the snapshot.
func (db *DB) CompactJournal() error {
	j := db.journal.Load()
	if j == nil || db.lastSnapSeq == 0 {
		return nil
	}
	return j.Rotate(db.f, db.lastSnapSeq)
}

func (db *DB) snapshotSeq() uint64 {
	if j := db.journal.Load(); j != nil {
		return j.LastSeq()
	}
	return db.baseSeq.Load()
}

// OpenSnapshot reopens a previously saved DB without rebuilding the
// index: O(load) instead of O(build). The snapshot's maintenance epoch
// and journal watermark are restored, so caching layers and journal
// replay continue seamlessly.
func OpenSnapshot(r io.Reader) (*DB, error) {
	f, lastSeq, err := snapshot.Load(r)
	if err != nil {
		return nil, err
	}
	return openedSnapshot(f, lastSeq), nil
}

// OpenSnapshotFile reopens a DB from a snapshot file.
func OpenSnapshotFile(path string) (*DB, error) {
	f, lastSeq, err := snapshot.LoadFile(path)
	if err != nil {
		return nil, err
	}
	return openedSnapshot(f, lastSeq), nil
}

func openedSnapshot(f *core.Framework, lastSeq uint64) *DB {
	db := &DB{f: f, lastSnapSeq: lastSeq}
	db.baseSeq.Store(lastSeq)
	return db
}

// ReplayJournal applies every journal entry the DB's state does not
// already include (sequence numbers beyond the loaded snapshot's
// watermark — or beyond 0 for a freshly built DB, which replays
// everything). It returns the number of ops applied. A returned
// *snapshot.OpError is expected — an op that failed when first executed
// fails identically on replay, and the replay completed; any other
// non-nil error is fatal (the journal could not be fully read) and the
// DB must not be treated as recovered: its watermark is left where it
// was so the problem cannot be papered over by a later snapshot.
func (db *DB) ReplayJournal(j *Journal) (int, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	applied, err := j.Replay(db.f, db.baseSeq.Load())
	var opErr *snapshot.OpError
	if (err == nil || errors.As(err, &opErr)) && j.LastSeq() > db.baseSeq.Load() {
		// Never regress the watermark: a rotated (shorter) journal does not
		// mean the state includes less than the snapshot it came from.
		db.baseSeq.Store(j.LastSeq())
	}
	return applied, err
}

// IsReplayOpError reports whether a ReplayJournal error is an expected
// per-op failure (replay completed; the op had failed live too) rather
// than a fatal journal read/corruption error.
func IsReplayOpError(err error) bool {
	var opErr *snapshot.OpError
	return errors.As(err, &opErr)
}

// AttachJournal directs every subsequent maintenance op through j before
// it is applied (write-ahead logging). Typically called after
// ReplayJournal so the journal is consistent with the DB state. The
// journal's sequence counter is fast-forwarded to the DB's watermark, so
// a fresh (or rotated) journal attached to a snapshot-loaded DB numbers
// new ops after the snapshot's last sequence — a later replay-after-
// watermark must not skip them — and a fresh journal is stamped with the
// base state's fingerprint so replaying it against a different build is
// caught. A nil journal detaches.
func (db *DB) AttachJournal(j *Journal) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.journal.Store(j)
	if j == nil {
		return nil
	}
	j.EnsureSeq(db.baseSeq.Load())
	if j.LastSeq() > db.baseSeq.Load() {
		db.baseSeq.Store(j.LastSeq())
	}
	return j.BindBase(db.f, db.baseSeq.Load())
}

// JournalSeq returns the last journal sequence number incorporated in the
// DB's state (0 when no journal has ever been involved). It takes no lock,
// so it may be called inside Exclusive.
func (db *DB) JournalSeq() uint64 { return db.snapshotSeq() }

// JournalSizeBytes returns the attached journal's file size (0 with no
// journal) — the quantity roadd's -journal-max-bytes auto-snapshot
// trigger watches. Like JournalSeq it takes no lock.
func (db *DB) JournalSizeBytes() int64 {
	j := db.journal.Load()
	if j == nil {
		return 0
	}
	return j.Size()
}

// Session is an independent read-only query context; any number of
// Sessions may query concurrently (I/O simulation is skipped in sessions),
// and maintenance calls on the same DB may overlap them: each query holds
// the DB's read lock, so it runs entirely before or after any mutation.
type Session struct {
	s  *core.Session
	db *DB
}

// NewSession returns a concurrent query context.
func (db *DB) NewSession() *Session { return &Session{s: db.f.NewSession(), db: db} }

// Epoch returns the DB's maintenance epoch as seen by this session.
func (s *Session) Epoch() uint64 { return s.s.Epoch() }
