package road

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"road/internal/core"
	"road/internal/dataset"
	"road/internal/graph"
)

// This file referees the stores' one concurrency contract: every store
// locks itself, and every mutator returns with the read-path state (the
// CSR slabs) current — so sessions may overlap mutations, journal replay
// and each other with no call in between, and a query never writes.

// replayedCA builds CA×0.1 with objects, saves it, journals ops
// set-distance mutations against the running DB and returns the snapshot
// bytes and the journal path — what a crashed DB leaves behind — plus the
// live DB, whose answers the replayed one must reproduce.
func replayedCA(t *testing.T, ops int) (snap []byte, wal string, live *DB) {
	t.Helper()
	g := dataset.MustGenerate(dataset.Scaled(dataset.CA(), 0.1))
	set := dataset.PlaceUniform(g, 200, 7, 0, 1, 2)
	db, err := OpenWithObjects(FromGraph(g), set, Options{StorePaths: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := db.SaveSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	wal = filepath.Join(t.TempDir(), "ca.wal")
	j, err := OpenJournal(wal)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AttachJournal(j); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(40))
	for i := 0; i < ops; i++ {
		e := EdgeID(rng.Intn(db.NumRoads()))
		if err := db.SetRoadDistance(e, g.Weight(e)*(0.5+1.5*rng.Float64())); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), wal, db
}

// TestReplayedDBServesConcurrently reopens a DB from its snapshot, replays
// its journal and lets four sessions query at once. The replay must leave
// the slabs current: the first queries find nothing to repair (CSRStats
// does not move), so concurrent readers never write shared state, and
// their answers equal the live DB's that wrote the journal.
func TestReplayedDBServesConcurrently(t *testing.T) {
	snap, wal, live := replayedCA(t, 40)
	db, err := OpenSnapshot(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(wal)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if n, err := db.ReplayJournal(j); err != nil || n != 40 {
		t.Fatalf("replay applied %d ops, err %v; want 40", n, err)
	}
	before := db.Framework().CSRStats()
	ctx := context.Background()
	froms := make([]NodeID, 64)
	want := make([][]Result, len(froms))
	ref := live.NewSession()
	for i := range froms {
		froms[i] = NodeID(i * 31 % db.NumNodes())
		want[i], _, _ = ref.KNNContext(ctx, NewKNN(froms[i], 5))
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := db.OpenSession()
			for i := w; i < len(froms); i += 4 {
				got, _, err := s.KNNContext(ctx, NewKNN(froms[i], 5))
				if err != nil {
					errs <- err
					return
				}
				if !sameIDsAndDists(want[i], got) {
					errs <- fmt.Errorf("from %d: replayed DB answered %v, live DB %v", froms[i], got, want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if after := db.Framework().CSRStats(); after != before {
		t.Fatalf("queries after ReplayJournal wrote the CSR index: %+v -> %+v", before, after)
	}
}

func sameIDsAndDists(a, b []Result) bool {
	return slices.EqualFunc(a, b, func(x, y Result) bool { return x.Object.ID == y.Object.ID && x.Dist == y.Dist })
}

// TestShardedReplayLeavesSlabsCurrent is the ShardedDB half: after
// ReplayJournals no shard's CSR index moves on the first queries.
func TestShardedReplayLeavesSlabsCurrent(t *testing.T) {
	_, sdb := shardedPair(t, 17, 900, 80, 4)
	dir := t.TempDir()
	prefix, wal := filepath.Join(dir, "s"), filepath.Join(dir, "wal")
	if err := sdb.SaveSnapshotFiles(prefix); err != nil {
		t.Fatal(err)
	}
	journals, err := sdb.OpenShardJournals(wal, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := sdb.AttachJournals(journals); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 40; i++ {
		e := EdgeID(rng.Intn(sdb.NumRoads()))
		if err := sdb.SetRoadDistance(e, 0.2+3*rng.Float64()); err != nil {
			t.Fatal(err)
		}
	}
	if err := sdb.CloseJournals(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenShardedSnapshotFiles(prefix)
	if err != nil {
		t.Fatal(err)
	}
	if journals, err = re.OpenShardJournals(wal, false); err != nil {
		t.Fatal(err)
	}
	defer re.CloseJournals()
	if n, err := re.ReplayJournals(journals); err != nil || n != 40 {
		t.Fatalf("replay applied %d ops, err %v; want 40", n, err)
	}
	csr := func() []core.CSRStats {
		var out []core.CSRStats
		for _, inf := range re.ShardInfos() {
			out = append(out, inf.CSR)
		}
		return out
	}
	before := csr()
	ctx := context.Background()
	s, live := re.OpenSession(), sdb.OpenSession()
	for n := 0; n < re.NumNodes(); n += 37 {
		want, _, _ := live.KNNContext(ctx, NewKNN(NodeID(n), 5))
		got, _, err := s.KNNContext(ctx, NewKNN(NodeID(n), 5))
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, fmt.Sprintf("from %d", n), want, got)
	}
	if after := csr(); !slices.Equal(after, before) {
		t.Fatalf("queries after ReplayJournals wrote a CSR index: %+v -> %+v", before, after)
	}
}

// TestMutatorsRejectUnknownEdges: every store answers an edge ID outside
// its network with ErrNoSuchEdge, before journaling anything and without
// moving its epoch — a DB once panicked here after journaling the op.
func TestMutatorsRejectUnknownEdges(t *testing.T) {
	const seed, nodes, objects, shards = 29, 240, 30, 2
	db, sdb := shardedPair(t, seed, nodes, objects, shards)
	j, err := OpenJournal(filepath.Join(t.TempDir(), "db.wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := db.AttachJournal(j); err != nil {
		t.Fatal(err)
	}
	journals, err := sdb.OpenShardJournals(filepath.Join(t.TempDir(), "s"), false)
	if err != nil {
		t.Fatal(err)
	}
	defer sdb.CloseJournals()
	if err := sdb.AttachJournals(journals); err != nil {
		t.Fatal(err)
	}
	_, rdb, _ := remoteTriple(t, seed, nodes, objects, shards)
	mutators := map[string]func(Store, EdgeID) error{
		"SetRoadDistance": func(s Store, e EdgeID) error { return s.SetRoadDistance(e, 2) },
		"CloseRoad":       func(s Store, e EdgeID) error { return s.CloseRoad(e) },
		"ReopenRoad":      func(s Store, e EdgeID) error { return s.ReopenRoad(e) },
		"AddObject":       func(s Store, e EdgeID) error { _, err := s.AddObject(e, 0.1, 0); return err },
	}
	for _, st := range []struct {
		name string
		s    Store
	}{{"DB", db}, {"ShardedDB", sdb}, {"RemoteDB", rdb}} {
		for _, e := range []EdgeID{-1, EdgeID(st.s.NumRoads()), 1 << 30} {
			for name, mutate := range mutators {
				seq, epoch := st.s.JournalSeq(), st.s.Epoch()
				err := mutate(st.s, e)
				if !errors.Is(err, ErrNoSuchEdge) {
					t.Fatalf("%s %s(%d): err %v, want ErrNoSuchEdge", st.name, name, e, err)
				}
				if st.s.JournalSeq() != seq || st.s.Epoch() != epoch {
					t.Fatalf("%s %s(%d): journal seq %d -> %d, epoch %d -> %d", st.name, name, e, seq, st.s.JournalSeq(), epoch, st.s.Epoch())
				}
			}
		}
	}
}

// TestStoreContractStorm runs every store under its own locks only: four
// sessions per store query while one goroutine calls all seven mutators,
// the same ops on every store, with no WarmAfterMutation and no serving
// layer in between. Between bursts, with the readers stopped, every
// store's answers must equal a plain Dijkstra over the DB's live network.
// CI runs it under -race.
func TestStoreContractStorm(t *testing.T) {
	const seed, nodes, objects, shards = 23, 500, 60, 4
	db, sdb := shardedPair(t, seed, nodes, objects, shards)
	rdb, _ := remoteFrom(t, sdb)
	stores := []struct {
		name string
		s    Store
	}{{"DB", db}, {"ShardedDB", sdb}, {"RemoteDB", rdb}}
	g, set := db.Framework().Graph(), db.Framework().Objects()
	oracle := graph.NewSearch(g)
	rng := rand.New(rand.NewSource(seed))
	ctx := context.Background()

	check := func(phase string) {
		for i := 0; i < 12; i++ {
			from := NodeID(rng.Intn(nodes))
			oracle.Run(from, graph.Options{})
			var want []Result
			for _, o := range set.All() {
				if d := objectDist(g, oracle, o); !math.IsInf(d, 1) {
					want = append(want, Result{Object: o, Dist: d})
				}
			}
			slices.SortFunc(want, func(a, b Result) int { return cmp.Compare(a.Dist, b.Dist) })
			want = want[:min(5, len(want))]
			for _, st := range stores {
				label := fmt.Sprintf("%s %s from %d", phase, st.name, from)
				got, _, err := st.s.OpenSession().KNNContext(ctx, NewKNN(from, 5))
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				assertSameResults(t, label, want, got)
				if len(want) > 0 {
					p, _, err := st.s.OpenSession().PathToContext(ctx, NewPath(from, want[0].Object.ID))
					if err != nil {
						t.Fatalf("%s path: %v", label, err)
					}
					assertLegDist(t, label+" path", want[0].Dist, p.Dist)
				}
			}
		}
	}

	var closed []EdgeID
	var added []ObjectID
	mutate := func(label string, op func(Store) error) {
		var errs []error
		for _, st := range stores {
			errs = append(errs, op(st.s))
		}
		for i := 1; i < len(errs); i++ {
			if (errs[0] == nil) != (errs[i] == nil) {
				t.Fatalf("%s: DB err %v, %s err %v", label, errs[0], stores[i].name, errs[i])
			}
		}
	}
	check("initial")
	for round := 0; round < 4; round++ {
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for _, st := range stores {
			for r := 0; r < 4; r++ {
				wg.Add(1)
				go func(q Querier, rr *rand.Rand) {
					defer wg.Done()
					for {
						select {
						case <-stop:
							return
						default:
						}
						from := NodeID(rr.Intn(nodes))
						q.KNNContext(ctx, NewKNN(from, 5))
						q.WithinContext(ctx, NewWithin(from, 2))
						q.PathToContext(ctx, NewPath(from, ObjectID(rr.Intn(objects))))
						time.Sleep(time.Millisecond) // leave the writer a core
					}
				}(st.s.OpenSession(), rand.New(rand.NewSource(int64(round*16+r))))
			}
		}
		for m := 0; m < 14; m++ {
			e := EdgeID(rng.Intn(db.NumRoads()))
			switch m % 7 {
			case 0:
				w := 0.2 + 3*rng.Float64()
				mutate("set-distance", func(s Store) error { return s.SetRoadDistance(e, w) })
			case 1:
				mutate("close", func(s Store) error { return s.CloseRoad(e) })
				closed = append(closed, e)
			case 2:
				if len(closed) > 0 {
					e = closed[rng.Intn(len(closed))]
				}
				mutate("reopen", func(s Store) error { return s.ReopenRoad(e) })
			case 3:
				sh := sdb.Router().Shard(rng.Intn(shards)).GlobalNodes()
				u, v := sh[rng.Intn(len(sh))], sh[rng.Intn(len(sh))]
				w := 0.2 + 3*rng.Float64()
				mutate("add-road", func(s Store) error { _, err := s.AddRoad(u, v, w); return err })
			case 4:
				off := 0.05 * rng.Float64()
				attr := int32(rng.Intn(3))
				var ids []ObjectID
				mutate("insert", func(s Store) error {
					o, err := s.AddObject(e, off, attr)
					if err == nil {
						ids = append(ids, o.ID)
					}
					return err
				})
				if len(ids) > 0 {
					if ids[0] != ids[1] || ids[0] != ids[2] {
						t.Fatalf("insert: object IDs diverged: %v", ids)
					}
					added = append(added, ids[0])
				}
			case 5:
				id := ObjectID(rng.Intn(objects))
				if len(added) > 0 && rng.Intn(2) == 0 {
					id = added[rng.Intn(len(added))]
				}
				mutate("delete", func(s Store) error { return s.RemoveObject(id) })
			case 6:
				id := ObjectID(rng.Intn(objects))
				attr := int32(rng.Intn(3))
				mutate("set-attr", func(s Store) error { return s.SetObjectAttr(id, attr) })
			}
		}
		close(stop)
		wg.Wait()
		check(fmt.Sprintf("round%d", round))
	}
}
