package road

import (
	"context"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"road/internal/rnet"
	"road/internal/shard"
)

// TestShardBordersPinnedOnEveryBuildPath holds every path that builds or
// rebuilds a shard's hierarchy to the pinned-border contract: shard.Build;
// a ShardedDB reopened from snapshots and replaying a journal that closes,
// reopens and adds roads at shard borders; a shard host's OpenHost replay
// of the same journal; and the upgrade of a pre-waypoint shard set. After
// each, every shard border must be a border of every Rnet holding one of
// its edges, every border and shortcut set must equal a fresh derivation,
// and kNN, range and route answers must equal the reference's.
func TestShardBordersPinnedOnEveryBuildPath(t *testing.T) {
	const seed, nodes, objects, shards = 29, 400, 50, 4
	db, sdb := shardedPair(t, seed, nodes, objects, shards)
	assertPinnedShards(t, "build", sdb.Router().Shard, shards)
	assertSameAnswers(t, "build", db, sdb, nodes, objects)

	dir := t.TempDir()
	snap, wal := filepath.Join(dir, "set"), filepath.Join(dir, "wal")
	journals, err := sdb.OpenShardJournals(wal, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sdb.ReplayJournals(journals); err != nil {
		t.Fatal(err)
	}
	if err := sdb.AttachJournals(journals); err != nil {
		t.Fatal(err)
	}
	if err := sdb.SaveSnapshotFiles(snap); err != nil {
		t.Fatal(err)
	}
	mutateAtBorders(t, sdb.Router(), db, sdb)
	assertPinnedShards(t, "live", sdb.Router().Shard, shards)
	if err := sdb.CloseJournals(); err != nil {
		t.Fatal(err)
	}

	t.Run("reopen", func(t *testing.T) {
		sdb2, err := OpenShardedSnapshotFiles(snap)
		if err != nil {
			t.Fatal(err)
		}
		journals, err := sdb2.OpenShardJournals(wal, false)
		if err != nil {
			t.Fatal(err)
		}
		defer func() {
			for _, j := range journals {
				j.Close()
			}
		}()
		if applied, err := sdb2.ReplayJournals(journals); err != nil || applied == 0 {
			t.Fatalf("replay applied %d ops: %v", applied, err)
		}
		assertPinnedShards(t, "reopen", sdb2.Router().Shard, shards)
		assertSameAnswers(t, "reopen", db, sdb2, nodes, objects)
	})

	t.Run("host", func(t *testing.T) {
		h := startTestHost(t, "127.0.0.1:0", []int{0, 1, 2, 3}, snap, wal)
		defer h.crash()
		assertPinnedShards(t, "host", h.host.Shard, shards)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		rdb, err := OpenRemote(ctx, []string{h.addr}, RemoteOptions{Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		defer rdb.Close()
		assertSameAnswers(t, "host", db, rdb, nodes, objects)
	})

	t.Run("prewaypoint", func(t *testing.T) {
		const seed, nodes, objects, shards = 23, 300, 40, 4
		snap := filepath.Join(t.TempDir(), "set")
		names := []string{ShardManifestPath(snap)}
		for i := 0; i < shards; i++ {
			names = append(names, ShardSnapshotPath(snap, i))
		}
		for _, name := range names {
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
			t.Fatal(err)
		}
		assertPinnedShards(t, "prewaypoint", old.Router().Shard, shards)
		assertSameAnswers(t, "prewaypoint", fresh, old, nodes, objects)
	})
}

// mutateAtBorders runs, on every store given, the same journaled stream
// at shard r's borders: each shard closes and reopens a road at one of
// its borders, re-weights another, and adds a road from a border to
// another of its nodes and one between two of its borders.
func mutateAtBorders(t *testing.T, r *shard.Router, stores ...Store) {
	t.Helper()
	g := r.Graph()
	each := func(op func(Store) error) {
		t.Helper()
		for _, s := range stores {
			if err := op(s); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < r.NumShards(); i++ {
		sh := r.Shard(i)
		bs := sh.Borders()
		if len(bs) < 2 {
			t.Fatalf("shard %d has %d borders; the fixture is broken", i, len(bs))
		}
		var owned []EdgeID // roads of this shard at its first border
		for _, half := range g.Neighbors(bs[0]) {
			if o, err := r.OwnerOfEdge(half.Edge); err == nil && o == sh && !g.Edge(half.Edge).Removed {
				owned = append(owned, half.Edge)
			}
		}
		if len(owned) == 0 {
			t.Fatalf("shard %d border %d holds no road of the shard", i, bs[0])
		}
		e := owned[0]
		each(func(s Store) error { return s.CloseRoad(e) })
		each(func(s Store) error { return s.ReopenRoad(e) })
		w := g.Weight(owned[len(owned)-1])
		each(func(s Store) error { return s.SetRoadDistance(owned[len(owned)-1], w*1.5) })
		inner := sh.GlobalNodes()[len(sh.GlobalNodes())/2]
		for _, ends := range [][2]NodeID{{bs[0], inner}, {bs[0], bs[len(bs)-1]}} {
			each(func(s Store) error {
				_, err := s.AddRoad(ends[0], ends[1], 0.5)
				return err
			})
		}
	}
}

// assertPinnedShards checks the pinned-border contract on shards 0..n-1
// of a deployment: every shard border borders every Rnet on the chain of
// each of its live edges, and the hierarchy equals a fresh derivation.
func assertPinnedShards(t *testing.T, label string, shardOf func(int) *shard.Shard, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		sh := shardOf(i)
		h, g := sh.F.Hierarchy(), sh.F.Graph()
		for _, gb := range sh.Borders() {
			b, _ := sh.LocalNode(gb)
			for _, half := range g.Neighbors(b) {
				for r := h.LeafOf(half.Edge); r != rnet.NoRnet; r = h.Rnet(r).Parent {
					if !h.IsBorder(r, b) {
						t.Fatalf("%s: shard %d border %d is interior to level-%d Rnet %d", label, i, gb, h.Rnet(r).Level, r)
					}
				}
			}
		}
		if err := h.CheckFresh(); err != nil {
			t.Fatalf("%s: shard %d: %v", label, i, err)
		}
	}
}

// assertSameAnswers compares kNN, range and route answers of got against
// want from a sample of nodes.
func assertSameAnswers(t *testing.T, label string, want, got Store, nodes, objects int) {
	t.Helper()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(int64(nodes)))
	for i := 0; i < 30; i++ {
		n := NodeID(rng.Intn(nodes))
		wantK, _ := testKNN(want, n, 5, AnyAttr)
		gotK, _ := testKNN(got, n, 5, AnyAttr)
		assertSameResults(t, label+" knn", wantK, gotK)
		wantW, _ := testWithin(want, n, 4, AnyAttr)
		gotW, _ := testWithin(got, n, 4, AnyAttr)
		assertSameResults(t, label+" within", wantW, gotW)
		obj := ObjectID(rng.Intn(objects))
		wantP, _, wantErr := want.PathToContext(ctx, NewPath(n, obj))
		gotP, _, gotErr := got.PathToContext(ctx, NewPath(n, obj))
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%s path %d->%d: err %v, reference %v", label, n, obj, gotErr, wantErr)
		}
		if math.Abs(gotP.Dist-wantP.Dist) > 1e-9*math.Max(1, wantP.Dist) {
			t.Fatalf("%s path %d->%d: dist %v, reference %v", label, n, obj, gotP.Dist, wantP.Dist)
		}
	}
}
