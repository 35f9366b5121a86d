package road

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"

	"road/internal/core"
	"road/internal/graph"
	"road/internal/rnet"
	"road/internal/shard"
	"road/internal/snapshot"
)

// ShardedDB is a ROAD database split into K region shards, each a full
// independent index over one partition-aligned slice of the network, with
// a query router dispatching to the owning shard and expanding across
// shard boundaries through recorded border-node distances. It mirrors DB:
// the same global node, edge and object IDs, the same query and
// maintenance surface, the same persistence model — but with per-shard
// epochs, snapshots and write-ahead journals, the deployment seam that
// lets large networks serve heavy traffic (and lets shards move
// out-of-process: see RemoteDB). The query and maintenance surface is the
// embedded router-backed base RemoteDB shares; what is ShardedDB's own is
// file persistence and the per-shard journals.
//
// Differences from DB worth knowing: PathTo works without
// Options.StorePaths (shards always store shortcut waypoints, because
// cross-shard routes are assembled from route legs on each shard's
// index), and AddRoad requires both endpoints to share a shard —
// shard boundaries are fixed at build time, so a road bridging two shards
// that share neither endpoint is rejected.
type ShardedDB struct {
	routerStore

	// Per-shard persistence watermarks, indexed by shard ID (the journal
	// slots themselves sit on the embedded base, which appends to them).
	baseSeqs     []uint64
	lastSnapSeqs []uint64
}

// OpenSharded builds a ShardedDB over the builder's network, split into
// the given number of shards (a power of two ≥ 2). The network is
// adopted; further mutation must go through ShardedDB methods.
func OpenSharded(b *NetworkBuilder, opts Options, shards int) (*ShardedDB, error) {
	objects := graph.NewObjectSet(b.g)
	return openSharded(b.g, objects, opts, shards)
}

// OpenShardedWithObjects builds a ShardedDB with a pre-populated object
// set (bound to the builder's graph). Objects keep their IDs.
func OpenShardedWithObjects(b *NetworkBuilder, objects *graph.ObjectSet, opts Options, shards int) (*ShardedDB, error) {
	if objects.Graph() != b.g {
		return nil, fmt.Errorf("road: object set bound to a different network")
	}
	return openSharded(b.g, objects, opts, shards)
}

func openSharded(g *graph.Graph, objects *graph.ObjectSet, opts Options, shards int) (*ShardedDB, error) {
	if g.NumNodes() < 2 {
		return nil, fmt.Errorf("road: network needs at least 2 nodes, has %d", g.NumNodes())
	}
	var rcfg rnet.Config
	if opts.Fanout != 0 || opts.Levels != 0 {
		// Explicit shape: base the unset half on a per-shard-sized default.
		rcfg = rnet.DefaultConfig(g.NumNodes() / shards)
		if opts.Fanout != 0 {
			rcfg.Fanout = opts.Fanout
		}
		if opts.Levels != 0 {
			rcfg.Levels = opts.Levels
		}
	}
	// StorePaths need not be forwarded: shard.Build always stores
	// waypoints, which the router's route legs expand.
	rcfg.Seed = opts.Seed
	cfg := core.Config{Rnet: rcfg, Abstract: opts.Abstract}
	if opts.DisableIOSim {
		cfg.BufferPages = -1
	}
	r, err := shard.Build(g, objects, shard.Options{
		Shards: shards,
		Seed:   opts.Seed,
		Core:   cfg,
	})
	if err != nil {
		return nil, err
	}
	return newShardedDB(r), nil
}

func newShardedDB(r *shard.Router) *ShardedDB {
	k := r.NumShards()
	return &ShardedDB{
		routerStore:  newRouterStore(r),
		baseSeqs:     make([]uint64, k),
		lastSnapSeqs: make([]uint64, k),
	}
}

// --- Persistence (per-shard snapshots + journals, one manifest) ---

// ShardSnapshotPath names shard i's snapshot file under a prefix.
func ShardSnapshotPath(prefix string, i int) string { return shard.SnapshotPath(prefix, i) }

// ShardManifestPath names the manifest file under a prefix.
func ShardManifestPath(prefix string) string { return shard.ManifestPath(prefix) }

// ShardJournalPath names shard i's write-ahead journal under a prefix.
func ShardJournalPath(prefix string, i int) string { return shard.JournalPath(prefix, i) }

// SaveSnapshotFiles persists the sharded database under the given path
// prefix: one ordinary snapshot per shard (prefix.0 … prefix.K-1, each in
// shard-local coordinates with that shard's journal watermark) plus a
// manifest (prefix.manifest) mapping local IDs back to the global
// namespace. Run it inside Exclusive when other goroutines use the
// store, so the set is consistent. The save is two-phase: every file is
// fully written and synced under a staging name first, then the set is
// committed by renames — shrinking the window in which a crash could
// leave mixed-generation files (which Reassemble detects and refuses)
// from the whole multi-file write to the final rename loop. A failed save
// removes whatever it staged and leaves the previous set in place.
func (db *ShardedDB) SaveSnapshotFiles(prefix string) error {
	const staged = ".saving"
	k := db.r.NumShards()
	files := make([]string, k+1) // final names; the manifest commits last
	for i := 0; i < k; i++ {
		files[i] = ShardSnapshotPath(prefix, i)
	}
	files[k] = ShardManifestPath(prefix)
	// Whatever is still staged when the save returns goes: every file
	// written so far after an error, nothing after the commit.
	defer func() {
		for _, p := range files {
			os.Remove(p + staged)
		}
	}()
	seqs := make([]uint64, k)
	for i := 0; i < k; i++ {
		seqs[i] = db.shardSeq(i)
		if err := snapshot.SaveFile(db.r.Shard(i).F, seqs[i], files[i]+staged); err != nil {
			return fmt.Errorf("road: shard %d snapshot: %w", i, err)
		}
	}
	if err := writeManifestFile(files[k]+staged, db.r.Manifest()); err != nil {
		return fmt.Errorf("road: shard manifest: %w", err)
	}
	for _, p := range files {
		if err := os.Rename(p+staged, p); err != nil {
			return fmt.Errorf("road: committing %s: %w", p, err)
		}
	}
	copy(db.lastSnapSeqs, seqs)
	return nil
}

func (db *ShardedDB) shardSeq(i int) uint64 {
	if j := db.journals[i]; j != nil {
		return j.LastSeq()
	}
	return db.baseSeqs[i]
}

// writeManifestFile writes and syncs m at path; the caller owns path's
// removal on error.
func writeManifestFile(path string, m *shard.Manifest) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(m); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Save persists the sharded store under the path prefix (Store.Save; the
// interface form of SaveSnapshotFiles).
func (db *ShardedDB) Save(path string) error { return db.SaveSnapshotFiles(path) }

// OpenShardedSnapshotFiles reopens a sharded database previously saved
// with SaveSnapshotFiles: O(load) per shard instead of O(build), with all
// global IDs, per-shard epochs and journal watermarks restored. Cross-
// shard routing state (border distance tables) is recomputed from the
// loaded shards.
func OpenShardedSnapshotFiles(prefix string) (*ShardedDB, error) {
	mf, err := os.Open(ShardManifestPath(prefix))
	if err != nil {
		return nil, err
	}
	var m shard.Manifest
	err = json.NewDecoder(mf).Decode(&m)
	mf.Close()
	if err != nil {
		return nil, fmt.Errorf("road: reading shard manifest: %w", err)
	}
	if m.Shards < 1 {
		return nil, fmt.Errorf("road: shard manifest names %d shards", m.Shards)
	}
	frameworks := make([]*core.Framework, m.Shards)
	baseSeqs := make([]uint64, m.Shards)
	for i := 0; i < m.Shards; i++ {
		f, lastSeq, err := snapshot.LoadFile(ShardSnapshotPath(prefix, i))
		if err != nil {
			return nil, fmt.Errorf("road: shard %d snapshot: %w", i, err)
		}
		frameworks[i] = f
		baseSeqs[i] = lastSeq
	}
	r, err := shard.Reassemble(frameworks, &m)
	if err != nil {
		return nil, err
	}
	db := newShardedDB(r)
	copy(db.baseSeqs, baseSeqs)
	copy(db.lastSnapSeqs, baseSeqs)
	return db, nil
}

// OpenShardJournals opens (or creates) one write-ahead journal per shard
// under the given path prefix. Pass the result to ReplayJournals and then
// AttachJournals. syncEach forwards to Journal.SyncEachAppend.
func (db *ShardedDB) OpenShardJournals(prefix string, syncEach bool) ([]*Journal, error) {
	journals := make([]*Journal, db.r.NumShards())
	for i := range journals {
		j, err := OpenJournal(ShardJournalPath(prefix, i))
		if err != nil {
			for _, open := range journals[:i] {
				open.Close()
			}
			return nil, fmt.Errorf("road: shard %d journal: %w", i, err)
		}
		j.SyncEachAppend = syncEach
		journals[i] = j
	}
	return journals, nil
}

// ReplayJournals applies, per shard, every journal entry the shard's base
// state does not already include, through the same router code path live
// maintenance uses — so global edge and object IDs assigned after the
// snapshot are reconstructed exactly. It returns the number of ops
// applied. Like DB.ReplayJournal, a returned *snapshot.OpError is an
// expected per-op failure (the op failed identically live; replay
// completed); any other non-nil error is fatal and the database must not
// be treated as recovered. It runs under Exclusive, like DB.ReplayJournal
// under the DB's write lock.
func (db *ShardedDB) ReplayJournals(journals []*Journal) (applied int, err error) {
	if len(journals) != db.r.NumShards() {
		return 0, fmt.Errorf("road: %d journals for %d shards: %w", len(journals), db.r.NumShards(), ErrInvalidRequest)
	}
	err = db.r.Exclusive(func() (err error) {
		applied, err = db.replayJournals(journals)
		return err
	})
	return applied, err
}

func (db *ShardedDB) replayJournals(journals []*Journal) (int, error) {
	applied := 0
	var lastOpErr error
	dirty := false
	for i, j := range journals {
		if j == nil {
			continue
		}
		if err := j.CheckBase(db.r.Shard(i).F, db.baseSeqs[i]); err != nil {
			return applied, fmt.Errorf("road: shard %d: %w", i, err)
		}
		err := j.Entries(db.baseSeqs[i], func(seq uint64, op snapshot.Op) error {
			dirty = true
			if err := db.r.ApplyOp(i, op, false); err != nil {
				if errors.Is(err, shard.ErrIntegrity) {
					return err // fatal: bookkeeping would corrupt
				}
				lastOpErr = &snapshot.OpError{Seq: seq, Op: op, Err: err}
				return nil
			}
			applied++
			return nil
		})
		if err != nil {
			return applied, fmt.Errorf("road: shard %d journal replay: %w", i, err)
		}
		if last := j.LastSeq(); last > db.baseSeqs[i] {
			db.baseSeqs[i] = last
		}
	}
	if dirty {
		db.r.RefreshAll()
	}
	return applied, lastOpErr
}

// AttachJournals directs every subsequent maintenance op through its
// shard's journal before it is applied (write-ahead logging). Sequence
// counters are fast-forwarded to each shard's watermark and fresh
// journals are stamped with their shard's fingerprint, mirroring
// DB.AttachJournal per shard. It runs under Exclusive.
func (db *ShardedDB) AttachJournals(journals []*Journal) error {
	if len(journals) != db.r.NumShards() {
		return fmt.Errorf("road: %d journals for %d shards: %w", len(journals), db.r.NumShards(), ErrInvalidRequest)
	}
	return db.r.Exclusive(func() error {
		for i, j := range journals {
			if j == nil {
				continue
			}
			j.EnsureSeq(db.baseSeqs[i])
			if last := j.LastSeq(); last > db.baseSeqs[i] {
				db.baseSeqs[i] = last
			}
			if err := j.BindBase(db.r.Shard(i).F, db.baseSeqs[i]); err != nil {
				return fmt.Errorf("road: shard %d: %w", i, err)
			}
		}
		db.journals = append([]*snapshot.Journal(nil), journals...)
		return nil
	})
}

// CompactJournals rotates every attached shard journal, dropping entries
// the most recent snapshot save already includes. See DB.CompactJournal.
func (db *ShardedDB) CompactJournals() error {
	for i, j := range db.journals {
		if j == nil || db.lastSnapSeqs[i] == 0 {
			continue
		}
		if err := j.Rotate(db.r.Shard(i).F, db.lastSnapSeqs[i]); err != nil {
			return fmt.Errorf("road: shard %d: %w", i, err)
		}
	}
	return nil
}

// CompactJournal rotates every attached shard journal (Store.CompactJournal;
// the interface form of CompactJournals).
func (db *ShardedDB) CompactJournal() error { return db.CompactJournals() }

// JournalSeq sums the last journal sequence numbers incorporated in each
// shard's state — a monotonic recovery watermark for monitoring, the
// sharded analogue of DB.JournalSeq.
func (db *ShardedDB) JournalSeq() uint64 {
	var sum uint64
	for i := 0; i < db.r.NumShards(); i++ {
		sum += db.shardSeq(i)
	}
	return sum
}

// JournalSizeBytes sums the attached shard journals' file sizes — the
// quantity roadd's -journal-max-bytes auto-snapshot trigger watches.
func (db *ShardedDB) JournalSizeBytes() int64 {
	var sum int64
	for _, j := range db.journals {
		if j != nil {
			sum += j.Size()
		}
	}
	return sum
}

// CloseJournals closes every attached shard journal.
func (db *ShardedDB) CloseJournals() error {
	var firstErr error
	for _, j := range db.journals {
		if j == nil {
			continue
		}
		if err := j.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
