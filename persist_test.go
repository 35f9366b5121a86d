package road

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"road/internal/dataset"
)

// TestSnapshotStreamRoundTrip exercises the io.Writer/io.Reader snapshot
// facade: save a mutated DB to a buffer, reopen it, and require identical
// answers and epoch.
func TestSnapshotStreamRoundTrip(t *testing.T) {
	b, nodes, edges := buildChain(t)
	db, err := Open(b, Options{Fanout: 2, Levels: 2, StorePaths: true})
	if err != nil {
		t.Fatal(err)
	}
	o, err := db.AddObject(edges[3], 0.25, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.SetRoadDistance(edges[1], 2.5); err != nil {
		t.Fatal(err)
	}
	if err := db.CloseRoad(edges[4]); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := db.SaveSnapshot(&buf); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	db2, err := OpenSnapshot(&buf)
	if err != nil {
		t.Fatalf("OpenSnapshot: %v", err)
	}
	if db.Epoch() != db2.Epoch() {
		t.Fatalf("epoch diverged: %d vs %d", db.Epoch(), db2.Epoch())
	}
	for _, n := range nodes {
		want, _ := testKNN(db, n, 2, AnyAttr)
		got, _ := testKNN(db2, n, 2, AnyAttr)
		if len(want) != len(got) {
			t.Fatalf("KNN(%d) length diverged", n)
		}
		for i := range want {
			if want[i].Object != got[i].Object || want[i].Dist != got[i].Dist {
				t.Fatalf("KNN(%d)[%d] = %+v vs %+v", n, i, want[i], got[i])
			}
		}
	}
	wantPath, wantDist, err := testPathTo(db, nodes[0], o.ID)
	if err != nil {
		t.Fatal(err)
	}
	gotPath, gotDist, err := testPathTo(db2, nodes[0], o.ID)
	if err != nil {
		t.Fatalf("PathTo after reopen: %v", err)
	}
	if wantDist != gotDist || len(wantPath) != len(gotPath) {
		t.Fatalf("path diverged: (%v, %g) vs (%v, %g)", wantPath, wantDist, gotPath, gotDist)
	}

	// The reopened DB remains fully maintainable.
	if err := db2.ReopenRoad(edges[4]); err != nil {
		t.Fatalf("ReopenRoad after reopen: %v", err)
	}
}

// TestJournalRotationKeepsWatermark: attaching a FRESH journal to a
// snapshot-loaded DB must number new ops after the snapshot's watermark;
// otherwise a later replay-after-watermark silently skips them.
func TestJournalRotationKeepsWatermark(t *testing.T) {
	dir := t.TempDir()

	b, _, edges := buildChain(t)
	db, err := Open(b, Options{Fanout: 2, Levels: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	j1, err := OpenJournal(filepath.Join(dir, "old.wal"))
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AttachJournal(j1); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := db.SetRoadDistance(edges[i], float64(i)+2); err != nil {
			t.Fatal(err)
		}
	}
	var snap bytes.Buffer
	if err := db.SaveSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	snapBytes := snap.Bytes()
	j1.Close()

	// Restart with the journal rotated away: fresh file, empty.
	db2, err := OpenSnapshot(bytes.NewReader(snapBytes))
	if err != nil {
		t.Fatal(err)
	}
	j2, err := OpenJournal(filepath.Join(dir, "new.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if _, err := db2.ReplayJournal(j2); err != nil {
		t.Fatal(err)
	}
	if err := db2.AttachJournal(j2); err != nil {
		t.Fatal(err)
	}
	if err := db2.SetRoadDistance(edges[3], 7); err != nil {
		t.Fatal(err)
	}
	if got := j2.LastSeq(); got != 4 {
		t.Fatalf("rotated journal seq = %d, want 4 (continue after snapshot watermark 3)", got)
	}

	// Crash-restart from the same snapshot + rotated journal: the new op
	// must replay, not be skipped as pre-watermark.
	db3, err := OpenSnapshot(bytes.NewReader(snapBytes))
	if err != nil {
		t.Fatal(err)
	}
	applied, err := db3.ReplayJournal(j2)
	if err != nil {
		t.Fatal(err)
	}
	if applied != 1 {
		t.Fatalf("replayed %d ops from rotated journal, want 1", applied)
	}
	if db3.Epoch() != db2.Epoch() {
		t.Fatalf("epoch diverged: %d vs %d", db3.Epoch(), db2.Epoch())
	}
}

// TestJournalWriteAhead: ops are in the journal even when their
// application fails, and a fresh build + full replay reconverges.
func TestJournalWriteAhead(t *testing.T) {
	jpath := filepath.Join(t.TempDir(), "chain.wal")

	build := func() *DB {
		b, _, _ := buildChain(t)
		db, err := Open(b, Options{Fanout: 2, Levels: 2, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		return db
	}

	db := build()
	j, err := OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AttachJournal(j); err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddObject(1, 0.5, 1); err != nil {
		t.Fatal(err)
	}
	if err := db.CloseRoad(2); err != nil {
		t.Fatal(err)
	}
	if err := db.CloseRoad(2); err == nil { // fails: already closed
		t.Fatal("double close succeeded")
	}
	if err := db.SetRoadDistance(0, 4); err != nil {
		t.Fatal(err)
	}
	if j.LastSeq() != 4 {
		t.Fatalf("journal seq = %d, want 4 (failed op journaled too)", j.LastSeq())
	}
	j.Close()

	// Cold start with no snapshot: same base build + full journal replay.
	db2 := build()
	j2, err := OpenJournal(jpath)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if _, err := db2.ReplayJournal(j2); err == nil {
		t.Fatal("replay should surface the failed op")
	}
	if db.Epoch() != db2.Epoch() {
		t.Fatalf("epoch diverged: %d vs %d", db.Epoch(), db2.Epoch())
	}
	want, _ := testKNN(db, 0, 1, AnyAttr)
	got, _ := testKNN(db2, 0, 1, AnyAttr)
	if len(want) != 1 || len(got) != 1 || want[0].Object != got[0].Object || want[0].Dist != got[0].Dist {
		t.Fatalf("answers diverged: %+v vs %+v", want, got)
	}
}

// TestRestartEquivalenceAcrossStores runs one op stream — ending in an
// insert→delete of the newest object — on a DB, a ShardedDB and a
// two-host RemoteDB, restarts each from its base state plus journals
// alone (no snapshot in between), and requires the next AddObject to get
// the same ID on all three: a deleted object's ID stays consumed.
//
// The RemoteDB row is skipped: a restarted fleet still re-derives the
// next ID from the live objects (ROADMAP item H(a)), and the fix
// cannot land before benchmark/run.go stops predicting that reuse — its
// ca_fleet writer stream expects exactly the IDs this row forbids.
func TestRestartEquivalenceAcrossStores(t *testing.T) {
	const seed, nodes, objects, shards = 21, 240, 30, 2
	rows := []struct {
		name string
		// open returns the journaled store and a restart that stops it and
		// brings it back from the same base state and its journals.
		open func(t *testing.T) (Store, func() Store)
	}{
		{"DB", func(t *testing.T) (Store, func() Store) {
			wal := filepath.Join(t.TempDir(), "db.wal")
			var j *Journal
			boot := func() Store {
				db, _ := shardedPair(t, seed, nodes, objects, shards)
				var err error
				if j, err = OpenJournal(wal); err != nil {
					t.Fatal(err)
				}
				if _, err := db.ReplayJournal(j); err != nil {
					t.Fatalf("replay: %v", err)
				}
				if err := db.AttachJournal(j); err != nil {
					t.Fatal(err)
				}
				return db
			}
			t.Cleanup(func() { j.Close() })
			return boot(), func() Store { j.Close(); return boot() }
		}},
		{"ShardedDB", func(t *testing.T) (Store, func() Store) {
			wal := filepath.Join(t.TempDir(), "sharded.wal")
			var sdb *ShardedDB
			boot := func() Store {
				_, sdb = shardedPair(t, seed, nodes, objects, shards)
				journals, err := sdb.OpenShardJournals(wal, false)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := sdb.ReplayJournals(journals); err != nil {
					t.Fatalf("replay: %v", err)
				}
				if err := sdb.AttachJournals(journals); err != nil {
					t.Fatal(err)
				}
				return sdb
			}
			t.Cleanup(func() { sdb.CloseJournals() })
			return boot(), func() Store { sdb.CloseJournals(); return boot() }
		}},
		{"RemoteDB", func(t *testing.T) (Store, func() Store) {
			t.Skip("fleet restart reuses consumed object IDs: ROADMAP item H(a)")
			_, rdb, hosts := remoteTriple(t, seed, nodes, objects, shards)
			return rdb, func() Store {
				// Router and hosts all go down; the hosts come back from
				// their bootstrap snapshots plus journals, the router from
				// what the hosts export.
				rdb.Close()
				addrs := make([]string, len(hosts))
				for i, h := range hosts {
					h.crash()
					hosts[i] = h.restart() // remoteTriple's cleanup stops these
					addrs[i] = hosts[i].addr
				}
				ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
				defer cancel()
				rdb2, err := OpenRemote(ctx, addrs, RemoteOptions{HealthInterval: 25 * time.Millisecond, Logf: t.Logf})
				if err != nil {
					t.Fatalf("OpenRemote after restart: %v", err)
				}
				t.Cleanup(rdb2.Close)
				return rdb2
			}
		}},
	}

	var want [3]ObjectID // kept, deleted and post-restart IDs of the DB row
	for i, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			st, restart := row.open(t)
			add := func(s Store, e EdgeID, attr int32) ObjectID {
				t.Helper()
				o, err := s.AddObject(e, 0.01, attr)
				if err != nil {
					t.Fatalf("AddObject(%d): %v", e, err)
				}
				return o.ID
			}
			must := func(err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
			}
			must(st.SetRoadDistance(3, 2.5))
			kept := add(st, 10, 1)
			must(st.CloseRoad(7))
			deleted := add(st, 12, 2)
			must(st.RemoveObject(deleted))

			got := [3]ObjectID{kept, deleted, add(restart(), 5, 1)}
			if got[2] <= deleted {
				t.Fatalf("restart handed out ID %d again: object %d was inserted and deleted before it", got[2], deleted)
			}
			if i == 0 {
				want = got
			} else if got != want {
				t.Fatalf("object IDs (kept, deleted, after restart) = %v, DB got %v", got, want)
			}
		})
	}
}

// TestShardedSaveFailureLeavesNoStagedFiles forces shard 1's save to fail
// midway through SaveSnapshotFiles (a directory squats on its staging
// name) and checks the two promises of a failed save: nothing staged is
// left behind, and the previous snapshot set still reopens.
func TestShardedSaveFailureLeavesNoStagedFiles(t *testing.T) {
	_, sdb := shardedPair(t, 19, 200, 20, 2)
	dir := t.TempDir()
	prefix := filepath.Join(dir, "net.snap")
	if err := sdb.SaveSnapshotFiles(prefix); err != nil {
		t.Fatal(err)
	}
	epoch := sdb.Epoch()
	if err := sdb.SetRoadDistance(3, 4.5); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(ShardSnapshotPath(prefix, 1)+".saving", 0o755); err != nil {
		t.Fatal(err)
	}
	if err := sdb.SaveSnapshotFiles(prefix); err == nil {
		t.Fatal("save over a squatted staging name succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if n := e.Name(); strings.HasSuffix(n, ".saving") || strings.HasSuffix(n, ".tmp") || strings.HasPrefix(n, ".roadsnap-") {
			t.Errorf("failed save left %s behind", n)
		}
	}
	old, err := OpenShardedSnapshotFiles(prefix)
	if err != nil {
		t.Fatalf("previous snapshot set no longer opens: %v", err)
	}
	if old.Epoch() != epoch {
		t.Fatalf("reopened epoch %d, want the first save's %d", old.Epoch(), epoch)
	}
}

// TestOpenUpgradesWaypointlessShards: testdata/prewaypoint is a shard set
// saved by a build whose shards kept no shortcut waypoints (the
// shardedPair(t, 23, 300, 40, 4) deployment). Opened in process and on
// fleet hosts, every shard is upgraded to store them, and routes come out
// exactly as from a fresh build of the same network.
func TestOpenUpgradesWaypointlessShards(t *testing.T) {
	const seed, nodes, objects, shards = 23, 300, 40, 4
	snap := filepath.Join(t.TempDir(), "set")
	for _, name := range []string{ShardManifestPath(snap), ShardSnapshotPath(snap, 0), ShardSnapshotPath(snap, 1), ShardSnapshotPath(snap, 2), ShardSnapshotPath(snap, 3)} {
		data, err := os.ReadFile(filepath.Join("testdata", "prewaypoint", filepath.Base(name)))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(name, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, fresh := shardedPair(t, seed, nodes, objects, shards)
	old, err := OpenShardedSnapshotFiles(snap)
	if err != nil {
		t.Fatalf("OpenShardedSnapshotFiles: %v", err)
	}
	for i := 0; i < shards; i++ {
		if !old.Router().Shard(i).F.Hierarchy().Config().StorePaths {
			t.Fatalf("shard %d opened without waypoints", i)
		}
	}
	if got, want := old.IndexSizeBytes(), fresh.IndexSizeBytes(); got != want {
		t.Fatalf("upgraded index holds %d bytes, a fresh build %d", got, want)
	}
	fleet, _ := remoteFromFiles(t, snap, shards)

	ctx := context.Background()
	for n := NodeID(0); n < nodes; n += 7 {
		for obj := ObjectID(0); obj < objects; obj += 3 {
			want, _, wantErr := fresh.PathToContext(ctx, NewPath(n, obj))
			for _, leg := range []struct {
				name string
				s    Store
			}{{"sharded", old}, {"fleet", fleet}} {
				got, _, err := leg.s.PathToContext(ctx, NewPath(n, obj))
				if (err == nil) != (wantErr == nil) {
					t.Fatalf("%s path %d->%d: err %v, fresh build %v", leg.name, n, obj, err, wantErr)
				}
				if got.Dist != want.Dist || !slices.Equal(got.Nodes, want.Nodes) {
					t.Fatalf("%s path %d->%d: %v (%v), fresh build %v (%v)", leg.name, n, obj, got.Nodes, got.Dist, want.Nodes, want.Dist)
				}
			}
		}
	}
}

// TestOpenUpgradesWaypointlessMono: testdata/prewaypoint/mono.snap is a
// DB snapshot saved by a build that kept no shortcut waypoints unless
// asked and saved the simulated page store's layouts with every snapshot
// (a 120-node, 16-object network, opened with Options{Seed: 23}). It
// opens with waypoints and without a page store, and answers exactly as
// a fresh build of the same network.
func TestOpenUpgradesWaypointlessMono(t *testing.T) {
	const seed, nodes, objects = 23, 120, 16
	old, err := OpenSnapshotFile(filepath.Join("testdata", "prewaypoint", "mono.snap"))
	if err != nil {
		t.Fatalf("OpenSnapshotFile: %v", err)
	}
	if old.Framework().Store() != nil {
		t.Fatal("the old snapshot's page layouts came back as a page store")
	}
	if !old.Framework().Hierarchy().Config().StorePaths {
		t.Fatal("opened without waypoints")
	}
	g := dataset.MustGenerate(dataset.Spec{Name: "pair", Nodes: nodes, Edges: nodes + nodes/3, Seed: seed})
	fresh, err := OpenWithObjects(FromGraph(g), dataset.PlaceUniform(g, objects, seed, 0, 1, 2, 3), Options{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := old.IndexSizeBytes(), fresh.IndexSizeBytes(); got != want {
		t.Fatalf("upgraded index holds %d bytes, a fresh build %d", got, want)
	}
	ctx := context.Background()
	for n := NodeID(0); n < nodes; n += 3 {
		want, _, _ := fresh.KNNContext(ctx, NewKNN(n, 5))
		got, _, err := old.KNNContext(ctx, NewKNN(n, 5))
		if err != nil || !slices.Equal(got, want) {
			t.Fatalf("kNN from %d: %v (%v), fresh build %v", n, got, err, want)
		}
		for obj := ObjectID(0); obj < objects; obj++ {
			want, _, wantErr := fresh.PathToContext(ctx, NewPath(n, obj))
			got, _, err := old.PathToContext(ctx, NewPath(n, obj))
			if (err == nil) != (wantErr == nil) || got.Dist != want.Dist || !slices.Equal(got.Nodes, want.Nodes) {
				t.Fatalf("path %d->%d: %v (%v, %v), fresh build %v (%v, %v)", n, obj, got.Nodes, got.Dist, err, want.Nodes, want.Dist, wantErr)
			}
		}
	}
}
