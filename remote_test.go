package road

import (
	"bufio"
	"context"
	"errors"
	"math"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"road/internal/shard"
	"road/internal/shard/remote"
)

// testHost runs a roadshard-equivalent host in-process: a remote.Host
// behind a real TCP listener, so the fleet client exercises the same
// HTTP transport, pooling and retry paths a multi-process deployment
// does — just without fork/exec (that angle is covered by the CI
// "Out-of-process fleet smoke" and the benchmark's ca_fleet workload).
type testHost struct {
	t         *testing.T
	ids       []int
	snap, wal string
	addr      string
	host      *remote.Host
	srv       *http.Server
}

func startTestHost(t *testing.T, addr string, ids []int, snap, wal string) *testHost {
	t.Helper()
	host, err := remote.OpenHost(ids, remote.HostConfig{
		SnapshotPrefix: snap,
		JournalPrefix:  wal,
	})
	if err != nil {
		t.Fatalf("OpenHost %v: %v", ids, err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		host.Close()
		t.Fatalf("listen %s: %v", addr, err)
	}
	srv := &http.Server{Handler: host.Handler()}
	go srv.Serve(ln)
	return &testHost{t: t, ids: ids, snap: snap, wal: wal,
		addr: ln.Addr().String(), host: host, srv: srv}
}

// crash simulates a SIGKILL: in-flight connections drop and the journal
// file handles close with no final snapshot. Recovery must come from
// snapshot + journal replay alone.
func (h *testHost) crash() {
	h.srv.Close()
	h.host.Close()
}

// restart boots a fresh host off the same files at the same address,
// like a supervisor restarting the crashed process.
func (h *testHost) restart() *testHost {
	return startTestHost(h.t, h.addr, h.ids, h.snap, h.wal)
}

// remoteTriple builds a monolithic reference index and a RemoteDB over
// two hosts booted from the snapshot files of an identically-built
// sharded deployment, split half the shards each.
func remoteTriple(t *testing.T, seed int64, nodes, objects, shards int) (*DB, *RemoteDB, []*testHost) {
	t.Helper()
	db, sdb := shardedPair(t, seed, nodes, objects, shards)
	rdb, hosts := remoteFrom(t, sdb)
	return db, rdb, hosts
}

// remoteFrom boots a RemoteDB over two hosts from the snapshot files of
// sdb, split half its shards each: a fleet twin of sdb that starts from
// the same state.
func remoteFrom(t *testing.T, sdb *ShardedDB) (*RemoteDB, []*testHost) {
	t.Helper()
	snap := filepath.Join(t.TempDir(), "fleet")
	if err := sdb.SaveSnapshotFiles(snap); err != nil {
		t.Fatalf("SaveSnapshotFiles: %v", err)
	}
	return remoteFromFiles(t, snap, sdb.NumShards())
}

// remoteFromFiles boots a RemoteDB over two hosts from the shard set
// saved under snap, split half its shards each.
func remoteFromFiles(t *testing.T, snap string, shards int) (*RemoteDB, []*testHost) {
	t.Helper()
	wal := filepath.Join(t.TempDir(), "wal")
	var idsA, idsB []int
	for i := 0; i < shards; i++ {
		if i < shards/2 {
			idsA = append(idsA, i)
		} else {
			idsB = append(idsB, i)
		}
	}
	hostA := startTestHost(t, "127.0.0.1:0", idsA, snap, wal)
	hostB := startTestHost(t, "127.0.0.1:0", idsB, snap, wal)
	hosts := []*testHost{hostA, hostB}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rdb, err := OpenRemote(ctx, []string{hostA.addr, hostB.addr}, RemoteOptions{
		HealthInterval: 25 * time.Millisecond,
		Logf:           t.Logf,
	})
	if err != nil {
		t.Fatalf("OpenRemote: %v", err)
	}
	t.Cleanup(func() {
		rdb.Close()
		for _, h := range hosts {
			h.crash()
		}
	})
	return rdb, hosts
}

// TestRemoteHostCSRMetrics: a shard host's /metrics says what a mutation
// cost its CSR index — each served shard built once at boot, the road
// re-weight drained by a patch, the slabs have a size.
func TestRemoteHostCSRMetrics(t *testing.T) {
	_, rdb, hosts := remoteTriple(t, 9, 300, 40, 4)
	if err := rdb.SetRoadDistance(7, 3.5); err != nil {
		t.Fatal(err)
	}
	var drains, shardsSeen float64
	for _, h := range hosts {
		resp, err := http.Get("http://" + h.addr + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			series, value, _ := strings.Cut(sc.Text(), " ")
			v, err := strconv.ParseFloat(value, 64)
			if err != nil {
				continue // comment line
			}
			switch {
			case series == "road_csr_patch_seconds_count":
				drains += v
			case strings.HasPrefix(series, "road_csr_rebuilds_total{shard="):
				shardsSeen++
				if v != 1 {
					t.Errorf("%s = %g, want the one boot-time build", series, v)
				}
			case strings.HasPrefix(series, "road_csr_bytes{shard=") && v <= 0:
				t.Errorf("%s = %g, want a positive slab size", series, v)
			}
		}
		resp.Body.Close()
	}
	// One drain per shard at boot plus the re-weight's patch.
	if shardsSeen != 4 || drains != 5 {
		t.Fatalf("hosts report %g shards and %g drains, want 4 and 5", shardsSeen, drains)
	}
}

// TestRemoteFleetEquivalence is the randomized acceptance storm for the
// out-of-process deployment: the RemoteDB must answer every query and
// accept every mutation exactly like the monolithic reference, across
// the full wire round trip (JSON encoding, ±Inf translation, typed
// errors, derived-update mirroring).
func TestRemoteFleetEquivalence(t *testing.T) {
	ctx := context.Background()
	const numObjects = 50
	db, rdb, _ := remoteTriple(t, 5, 300, numObjects, 4)
	var mono, other Store = db, rdb
	rng := rand.New(rand.NewSource(5))

	// Borders first (cross-shard fan-out by construction), then a random
	// interior sample.
	var qnodes []NodeID
	for i := 0; i < rdb.NumShards(); i++ {
		qnodes = append(qnodes, rdb.Router().Shard(shard.ID(i)).Borders()...)
		if len(qnodes) > 24 {
			break
		}
	}
	for i := 0; i < 20; i++ {
		qnodes = append(qnodes, NodeID(rng.Intn(other.NumNodes())))
	}

	check := func(phase string) {
		for _, n := range qnodes {
			for _, k := range []int{1, 4} {
				want, _, errA := mono.KNNContext(ctx, NewKNN(n, k))
				got, _, errB := other.KNNContext(ctx, NewKNN(n, k))
				if errA != nil || errB != nil {
					t.Fatalf("%s knn(%d,%d): %v / %v", phase, n, k, errA, errB)
				}
				assertSameResults(t, phase+" knn", want, got)
			}
			want, _, errA := mono.WithinContext(ctx, NewWithin(n, 3.5))
			got, _, errB := other.WithinContext(ctx, NewWithin(n, 3.5))
			if errA != nil || errB != nil {
				t.Fatalf("%s within(%d): %v / %v", phase, n, errA, errB)
			}
			assertSameResults(t, phase+" within", want, got)
		}
		// PathTo: distances must agree; routes may differ between equal
		// shortest paths, and error identity must survive the wire.
		for i := 0; i < 25; i++ {
			n := qnodes[rng.Intn(len(qnodes))]
			obj := ObjectID(rng.Intn(numObjects))
			wantP, _, wantErr := mono.PathToContext(ctx, NewPath(n, obj))
			gotP, _, gotErr := other.PathToContext(ctx, NewPath(n, obj))
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("%s path(%d,%d): err %v vs %v", phase, n, obj, wantErr, gotErr)
			}
			if wantErr != nil {
				if !errors.Is(gotErr, ErrNoSuchObject) && !errors.Is(gotErr, ErrUnreachable) {
					t.Fatalf("%s path(%d,%d): untyped remote error %v", phase, n, obj, gotErr)
				}
				continue
			}
			if math.Abs(wantP.Dist-gotP.Dist) > 1e-9*math.Max(1, wantP.Dist) {
				t.Fatalf("%s path(%d,%d): dist %g, want %g", phase, n, obj, gotP.Dist, wantP.Dist)
			}
			if len(gotP.Nodes) == 0 || gotP.Nodes[0] != n {
				t.Fatalf("%s path(%d,%d): bad route %v", phase, n, obj, gotP.Nodes)
			}
		}
		// Batched equivalence through Store.Query.
		reqs := make([]Request, 0, len(qnodes))
		for _, n := range qnodes {
			k := NewKNN(n, 4)
			reqs = append(reqs, Request{KNN: &k})
		}
		ansA := mono.Query(ctx, reqs)
		ansB := other.Query(ctx, reqs)
		for i := range reqs {
			if ansA[i].Err != nil || ansB[i].Err != nil {
				t.Fatalf("%s batch entry %d: %v / %v", phase, i, ansA[i].Err, ansB[i].Err)
			}
			assertSameResults(t, phase+" batch", ansA[i].Results, ansB[i].Results)
		}
	}
	check("initial")

	// Concurrent sessions querying while the maintenance surface applies
	// re-weights (the -race payoff). The mutations touch distinct edges
	// with fixed weights, so replaying the same set serially on the mono
	// reference commutes to the same final state.
	edges := make([]EdgeID, 0, 16)
	weights := make([]float64, 0, 16)
	seen := map[EdgeID]bool{}
	for len(edges) < 16 {
		e := EdgeID(rng.Intn(other.NumRoads()))
		if seen[e] {
			continue
		}
		seen[e] = true
		edges = append(edges, e)
		weights = append(weights, 0.3+2*rng.Float64())
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sess := rdb.NewSession()
			r := rand.New(rand.NewSource(int64(w) * 101))
			for i := 0; i < 25; i++ {
				n := qnodes[r.Intn(len(qnodes))]
				if _, _, err := sess.KNNContext(ctx, NewKNN(n, 3)); err != nil {
					t.Errorf("concurrent knn(%d): %v", n, err)
					return
				}
			}
		}(w)
	}
	for i, e := range edges {
		if err := rdb.SetRoadDistance(e, weights[i]); err != nil {
			t.Fatalf("concurrent set-distance(%d): %v", e, err)
		}
	}
	wg.Wait()
	for i, e := range edges {
		if err := mono.SetRoadDistance(e, weights[i]); err != nil {
			t.Fatalf("mono set-distance(%d): %v", e, err)
		}
	}
	check("after concurrent phase")

	// The full maintenance stream on both sides of the interface.
	mutate := func(label string, op func(s Store) error) {
		errA := op(mono)
		errB := op(other)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("%s divergence: %v vs %v", label, errA, errB)
		}
	}
	for i := 0; i < 30; i++ {
		e := EdgeID(rng.Intn(other.NumRoads()))
		switch rng.Intn(5) {
		case 0:
			w := 0.2 + 3*rng.Float64()
			mutate("set-distance", func(s Store) error { return s.SetRoadDistance(e, w) })
		case 1:
			mutate("close", func(s Store) error { return s.CloseRoad(e) })
		case 2:
			mutate("reopen", func(s Store) error { return s.ReopenRoad(e) })
		case 3:
			off := rng.Float64() * 0.1
			var ids []ObjectID
			mutate("insert", func(s Store) error {
				o, err := s.AddObject(e, off, 1)
				if err == nil {
					ids = append(ids, o.ID)
				}
				return err
			})
			if len(ids) == 2 && ids[0] != ids[1] {
				t.Fatalf("insert assigned object %d vs %d", ids[0], ids[1])
			}
		case 4:
			id := ObjectID(rng.Intn(numObjects))
			mutate("delete", func(s Store) error { return s.RemoveObject(id) })
		}
	}
	check("after maintenance")

	// The host-side journals saw every mutation the router acknowledged.
	if rdb.JournalSeq() == 0 {
		t.Fatal("host journals report seq 0 after a mutation storm")
	}
}

// interiorNode returns a node owned by exactly shard id — not shared
// with any other shard — so queries from it deterministically need that
// shard's host.
func interiorNode(t *testing.T, r *shard.Router, id int) NodeID {
	t.Helper()
	s := r.Shard(shard.ID(id))
	for _, gn := range s.GlobalNodes() {
		owned := true
		for j := 0; j < r.NumShards(); j++ {
			if j == id {
				continue
			}
			if _, ok := r.Shard(shard.ID(j)).LocalNode(gn); ok {
				owned = false
				break
			}
		}
		if owned {
			return gn
		}
	}
	t.Fatalf("shard %d has no interior node", id)
	return 0
}

// TestRemoteHostCrashRecovery kills one of two hosts mid-fleet and
// checks the failure and recovery contract: calls needing the dead
// host's shard fail fast with ErrShardUnavailable while the surviving
// shard keeps serving; a restarted host replays its journal and is
// re-adopted by the health loop without reconnecting the fleet; and the
// recovered fleet again matches the monolithic reference.
func TestRemoteHostCrashRecovery(t *testing.T) {
	ctx := context.Background()
	db, rdb, hosts := remoteTriple(t, 7, 240, 40, 2)
	var mono Store = db
	r := rdb.Router()

	aliveNode := interiorNode(t, r, 0) // hostA's shard
	deadNode := interiorNode(t, r, 1)  // hostB's shard
	deadEdge := r.Shard(1).GlobalEdges()[0]

	// Journaled mutations before the crash: the restarted host must
	// recover them from its write-ahead log (the crash skips the final
	// snapshot).
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 12; i++ {
		e := EdgeID(rng.Intn(rdb.NumRoads()))
		w := 0.3 + 2*rng.Float64()
		if err := rdb.SetRoadDistance(e, w); err != nil {
			t.Fatalf("pre-crash set-distance(%d): %v", e, err)
		}
		if err := mono.SetRoadDistance(e, w); err != nil {
			t.Fatalf("mono set-distance(%d): %v", e, err)
		}
	}
	oa, err := rdb.AddObject(EdgeID(deadEdge), 0.05, 2)
	if err != nil {
		t.Fatalf("pre-crash insert: %v", err)
	}
	ob, err := mono.AddObject(EdgeID(deadEdge), 0.05, 2)
	if err != nil || oa.ID != ob.ID {
		t.Fatalf("pre-crash insert diverged: %v vs %v (err %v)", oa.ID, ob.ID, err)
	}

	hostB := hosts[1]
	hostB.crash()

	// In-flight/new calls needing the dead shard fail with the typed
	// sentinel — both queries and mutations — not a generic error.
	if _, _, err := rdb.KNNContext(ctx, NewKNN(deadNode, 3)); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("query against dead host: got %v, want ErrShardUnavailable", err)
	}
	if err := rdb.SetRoadDistance(EdgeID(deadEdge), 1.5); !errors.Is(err, ErrShardUnavailable) {
		t.Fatalf("mutation against dead host: got %v, want ErrShardUnavailable", err)
	}

	// The surviving shard keeps answering, and still matches mono.
	want, _, errA := mono.KNNContext(ctx, NewKNN(aliveNode, 3))
	got, _, errB := rdb.KNNContext(ctx, NewKNN(aliveNode, 3))
	if errA != nil || errB != nil {
		t.Fatalf("alive-shard query during outage: %v / %v", errA, errB)
	}
	assertSameResults(t, "degraded", want, got)

	// The health loop marks the host down (fail-fast instead of burning
	// timeouts on every call).
	var deadClient *remote.HostClient
	for _, c := range rdb.Fleet().Hosts() {
		if c.Addr() == hostB.addr {
			deadClient = c
		}
	}
	if deadClient == nil {
		t.Fatal("dead host not in fleet client list")
	}
	for deadline := time.Now().Add(5 * time.Second); !deadClient.Down(); {
		if time.Now().After(deadline) {
			t.Fatal("health checker never marked the crashed host down")
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Restart at the same address: snapshot load + journal replay, then
	// the health loop re-adopts the shard without a fleet restart.
	restarted := hostB.restart()
	defer restarted.crash()
	wantDead, _, err := mono.KNNContext(ctx, NewKNN(deadNode, 3))
	if err != nil {
		t.Fatalf("mono reference query: %v", err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		got, _, err := rdb.KNNContext(ctx, NewKNN(deadNode, 3))
		if err == nil {
			assertSameResults(t, "recovered", wantDead, got)
			break
		}
		if !errors.Is(err, ErrShardUnavailable) {
			t.Fatalf("recovery query: unexpected error %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("fleet never re-adopted the restarted host")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Post-recovery the re-adopted mirror accepts mutations and stays
	// consistent — including on the shard that died.
	if err := rdb.SetRoadDistance(EdgeID(deadEdge), 2.5); err != nil {
		t.Fatalf("post-recovery mutation: %v", err)
	}
	if err := mono.SetRoadDistance(EdgeID(deadEdge), 2.5); err != nil {
		t.Fatalf("mono post-recovery mutation: %v", err)
	}
	for _, n := range []NodeID{aliveNode, deadNode} {
		want, _, errA := mono.KNNContext(ctx, NewKNN(n, 4))
		got, _, errB := rdb.KNNContext(ctx, NewKNN(n, 4))
		if errA != nil || errB != nil {
			t.Fatalf("post-recovery knn(%d): %v / %v", n, errA, errB)
		}
		assertSameResults(t, "post-recovery", want, got)
	}
}

// TestRemoteSaveSnapshot checks the host-owned persistence path:
// Save triggers a snapshot + journal rotation on every host, and a host
// restarted from those files (no journal replay needed) serves the
// mutated state.
func TestRemoteSaveSnapshot(t *testing.T) {
	ctx := context.Background()
	db, rdb, hosts := remoteTriple(t, 13, 200, 30, 2)
	var mono Store = db

	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 8; i++ {
		e := EdgeID(rng.Intn(rdb.NumRoads()))
		w := 0.4 + rng.Float64()
		if err := rdb.SetRoadDistance(e, w); err != nil {
			t.Fatalf("set-distance: %v", err)
		}
		if err := mono.SetRoadDistance(e, w); err != nil {
			t.Fatalf("mono set-distance: %v", err)
		}
	}
	if err := rdb.Save(""); err != nil {
		t.Fatalf("Save: %v", err)
	}

	// Crash-restart a host AFTER the snapshot: state must come back from
	// the rotated files alone.
	hostB := hosts[1]
	hostB.crash()
	restarted := hostB.restart()
	defer restarted.crash()

	n := interiorNode(t, rdb.Router(), 1)
	want, _, err := mono.KNNContext(ctx, NewKNN(n, 4))
	if err != nil {
		t.Fatalf("mono query: %v", err)
	}
	deadline := time.Now().Add(15 * time.Second)
	for {
		got, _, err := rdb.KNNContext(ctx, NewKNN(n, 4))
		if err == nil {
			assertSameResults(t, "post-snapshot restart", want, got)
			return
		}
		if !errors.Is(err, ErrShardUnavailable) {
			t.Fatalf("post-snapshot query: %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("fleet never re-adopted the snapshot-restarted host")
		}
		time.Sleep(20 * time.Millisecond)
	}
}
