package road

import (
	"context"
	"errors"
	"testing"

	"road/internal/dataset"
	"road/internal/shard"
)

// TestTypedErrors pins the v1 error contract: every failure mode answers
// a sentinel testable with errors.Is, replacing the former opaque
// fmt.Errorf strings.
func TestTypedErrors(t *testing.T) {
	b, nodes, edges := buildChain(t)
	db, err := Open(b, Options{Fanout: 2, Levels: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	if err := db.RemoveObject(999); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("RemoveObject(999) = %v, want ErrNoSuchObject", err)
	}
	if err := db.SetObjectAttr(999, 1); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("SetObjectAttr(999) = %v, want ErrNoSuchObject", err)
	}
	if err := db.ReopenRoad(edges[0]); !errors.Is(err, ErrEdgeNotClosed) {
		t.Fatalf("ReopenRoad(open) = %v, want ErrEdgeNotClosed", err)
	}
	if err := db.CloseRoad(edges[4]); err != nil {
		t.Fatal(err)
	}
	if _, err := db.AddObject(edges[4], 0.5, 0); !errors.Is(err, ErrEdgeClosed) {
		t.Fatalf("AddObject(closed) = %v, want ErrEdgeClosed", err)
	}
	if err := db.SetRoadDistance(edges[4], 2); !errors.Is(err, ErrEdgeClosed) {
		t.Fatalf("SetRoadDistance(closed) = %v, want ErrEdgeClosed", err)
	}
	if err := db.CloseRoad(edges[4]); !errors.Is(err, ErrEdgeClosed) {
		t.Fatalf("CloseRoad(closed) = %v, want ErrEdgeClosed", err)
	}

	if _, _, err := db.KNNContext(ctx, NewKNN(nodes[0], 0)); !errors.Is(err, ErrInvalidRequest) {
		t.Fatalf("KNN k=0 = %v, want ErrInvalidRequest", err)
	}
	if _, _, err := db.KNNContext(ctx, NewKNN(9999, 1)); !errors.Is(err, ErrNoSuchNode) {
		t.Fatalf("KNN bad node = %v, want ErrNoSuchNode", err)
	}
	if _, _, err := db.WithinContext(ctx, NewWithin(nodes[0], -1)); !errors.Is(err, ErrInvalidRequest) {
		t.Fatalf("Within radius<0 = %v, want ErrInvalidRequest", err)
	}
	// Opened without StorePaths, the DB still routes: waypoints are
	// always stored.
	o, err := db.AddObject(edges[1], 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.PathToContext(ctx, NewPath(nodes[0], o.ID)); err != nil {
		t.Fatalf("PathTo on a DB opened without StorePaths = %v, want a route", err)
	}
	if _, _, err := db.PathToContext(ctx, NewPath(nodes[0], 999)); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("PathTo bad object = %v, want ErrNoSuchObject", err)
	}
}

// TestTypedErrorsSharded pins the typed-error contract of the
// router-backed stores, one body over both: a ShardedDB and a two-host
// RemoteDB answer every failure mode with the same sentinel.
func TestTypedErrorsSharded(t *testing.T) {
	t.Run("ShardedDB", func(t *testing.T) {
		_, sdb := shardedPair(t, 7, 300, 40, 4)
		checkRouterStoreTypedErrors(t, sdb, sdb.Router())
	})
	t.Run("RemoteDB", func(t *testing.T) {
		_, rdb, hosts := remoteTriple(t, 7, 300, 40, 4)
		r := rdb.Router()
		checkRouterStoreTypedErrors(t, rdb, r)

		// An attribute-checked route whose target lives on a crashed host:
		// the object read fails in transport, which is "unavailable", not
		// "no such object".
		target, attr := ObjectID(-1), int32(0)
		for id := ObjectID(0); id < 40 && target < 0; id++ {
			s, err := r.OwnerOfObject(id)
			if err != nil || s.ID < 2 { // hosts[1] serves shards 2 and 3
				continue
			}
			if o, _ := r.Object(id); o.Attr != 0 {
				target, attr = id, o.Attr
			}
		}
		if target < 0 {
			t.Fatal("no attributed object on the second host")
		}
		hosts[1].crash()
		_, _, err := rdb.PathToContext(context.Background(), NewPath(0, target, WithAttr(attr)))
		if !errors.Is(err, ErrShardUnavailable) || errors.Is(err, ErrNoSuchObject) {
			t.Fatalf("PathTo WithAttr against a crashed host = %v, want ErrShardUnavailable", err)
		}
	})
}

func checkRouterStoreTypedErrors(t *testing.T, st Store, r *shard.Router) {
	t.Helper()
	ctx := context.Background()

	if err := st.RemoveObject(999); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("RemoveObject(999) = %v, want ErrNoSuchObject", err)
	}
	if err := st.CloseRoad(99999); !errors.Is(err, ErrNoSuchEdge) {
		t.Fatalf("CloseRoad(bad) = %v, want ErrNoSuchEdge", err)
	}
	if _, _, err := st.KNNContext(ctx, NewKNN(99999, 1)); !errors.Is(err, ErrNoSuchNode) {
		t.Fatalf("KNN bad node = %v, want ErrNoSuchNode", err)
	}
	if _, _, err := st.PathToContext(ctx, NewPath(0, 9999)); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("PathTo bad object = %v, want ErrNoSuchObject", err)
	}

	// Cross-shard road addition: typed rejection.
	interior := func(id int) (NodeID, bool) {
		s := r.Shard(id)
		for _, gn := range s.GlobalNodes() {
			border := false
			for _, b := range s.Borders() {
				if b == gn {
					border = true
					break
				}
			}
			if !border {
				return gn, true
			}
		}
		return 0, false
	}
	u, okU := interior(0)
	v, okV := interior(1)
	if okU && okV {
		if _, err := st.AddRoad(u, v, 1); !errors.Is(err, ErrCrossShardRoad) {
			t.Fatalf("cross-shard AddRoad = %v, want ErrCrossShardRoad", err)
		}
	}

	// Attribute predicate on a path query.
	hits, _, err := st.KNNContext(ctx, NewKNN(0, 1))
	if err != nil || len(hits) == 0 {
		t.Fatalf("no object: %v", err)
	}
	wrongAttr := hits[0].Object.Attr + 1
	if _, _, err := st.PathToContext(ctx, NewPath(0, hits[0].Object.ID, WithAttr(wrongAttr))); !errors.Is(err, ErrAttrMismatch) {
		t.Fatalf("PathTo attr mismatch = %v, want ErrAttrMismatch", err)
	}
}

// TestBatchQuery exercises Store.Query on both shapes: one session, one
// epoch, per-entry typed errors, mixed query kinds.
func TestBatchQuery(t *testing.T) {
	db, sdb := shardedPair(t, 9, 320, 50, 4)
	ctx := context.Background()
	for _, tc := range []struct {
		name  string
		store Store
	}{{"db", db}, {"sharded", sdb}} {
		knn := NewKNN(1, 3)
		within := NewWithin(2, 4.0)
		badNode := NewKNN(99999, 1)
		hits, _, err := tc.store.KNNContext(ctx, NewKNN(1, 1))
		if err != nil || len(hits) == 0 {
			t.Fatalf("%s: seed query failed: %v", tc.name, err)
		}
		path := NewPath(1, hits[0].Object.ID)
		reqs := []Request{
			{KNN: &knn},
			{Within: &within},
			{Path: &path},
			{KNN: &badNode},
			{}, // empty entry: invalid
		}
		answers := tc.store.Query(ctx, reqs)
		if len(answers) != len(reqs) {
			t.Fatalf("%s: %d answers for %d requests", tc.name, len(answers), len(reqs))
		}
		epoch := tc.store.Epoch()
		for i, a := range answers {
			if a.Epoch != epoch {
				t.Fatalf("%s: entry %d epoch %d, want %d", tc.name, i, a.Epoch, epoch)
			}
		}
		if answers[0].Err != nil || len(answers[0].Results) == 0 {
			t.Fatalf("%s: knn entry failed: %v", tc.name, answers[0].Err)
		}
		if answers[1].Err != nil {
			t.Fatalf("%s: within entry failed: %v", tc.name, answers[1].Err)
		}
		if answers[2].Err != nil || len(answers[2].Path) == 0 || answers[2].Dist <= 0 {
			t.Fatalf("%s: path entry = %+v (%v)", tc.name, answers[2], answers[2].Err)
		}
		if !errors.Is(answers[3].Err, ErrNoSuchNode) {
			t.Fatalf("%s: bad-node entry err = %v, want ErrNoSuchNode", tc.name, answers[3].Err)
		}
		if !errors.Is(answers[4].Err, ErrInvalidRequest) {
			t.Fatalf("%s: empty entry err = %v, want ErrInvalidRequest", tc.name, answers[4].Err)
		}
		// Batch answers agree with single-query answers.
		single, _, err := tc.store.KNNContext(ctx, knn)
		if err != nil {
			t.Fatal(err)
		}
		assertSameResults(t, tc.name+" batch-vs-single", single, answers[0].Results)
	}
}

// TestStatsAggregation pins the satellite fix: cross-shard expansions
// report nodes-visited and shard counts consistently with the
// single-index path — PathTo included, which used to drop its stats.
func TestStatsAggregation(t *testing.T) {
	db, sdb := shardedPair(t, 11, 320, 50, 4)
	ctx := context.Background()

	// Single-index: exactly one framework searched.
	_, st, err := db.KNNContext(ctx, NewKNN(0, 3))
	if err != nil {
		t.Fatal(err)
	}
	if st.ShardsSearched < 1 || st.NodesPopped == 0 {
		t.Fatalf("db stats = %+v", st)
	}

	// The exact sharded invariant: ShardsSearched = home shards + remote
	// entries. The watched fast-path re-run revisits the home shard and
	// must NOT count, so a query that never crosses a boundary reports 1.
	sumRemote := func() uint64 {
		var s uint64
		for _, inf := range sdb.ShardInfos() {
			s += inf.RemoteEntries
		}
		return s
	}
	homesOf := func(n NodeID) int {
		homes := 0
		for i := 0; i < sdb.NumShards(); i++ {
			if _, ok := sdb.Router().Shard(i).LocalNode(n); ok {
				homes++
			}
		}
		return homes
	}
	for n := NodeID(0); n < 40; n++ {
		homes := homesOf(n)
		if homes == 0 {
			continue // edge-less node
		}
		for _, k := range []int{1, 4, 25} {
			before := sumRemote()
			_, st, err := sdb.KNNContext(ctx, NewKNN(n, k))
			if err != nil {
				t.Fatal(err)
			}
			want := homes + int(sumRemote()-before)
			if st.ShardsSearched != want {
				t.Fatalf("node %d k=%d: ShardsSearched %d, want %d (homes %d + remote entries)",
					n, k, st.ShardsSearched, want, homes)
			}
		}
	}

	// Sharded, from a border node: several home shards must be counted.
	border := sdb.Router().Shard(0).Borders()[0]
	_, st, err = sdb.KNNContext(ctx, NewKNN(border, 5))
	if err != nil {
		t.Fatal(err)
	}
	if st.ShardsSearched < 2 {
		t.Fatalf("border kNN reports %d shards searched, want ≥ 2", st.ShardsSearched)
	}
	if st.NodesPopped == 0 {
		t.Fatal("border kNN reports zero nodes popped")
	}

	// PathTo now reports stats on both shapes.
	hits, _, err := sdb.KNNContext(ctx, NewKNN(border, 1))
	if err != nil || len(hits) == 0 {
		t.Fatalf("no object: %v", err)
	}
	_, pst, err := sdb.PathToContext(ctx, NewPath(border, hits[0].Object.ID))
	if err != nil {
		t.Fatal(err)
	}
	if pst.NodesPopped == 0 || pst.ShardsSearched == 0 {
		t.Fatalf("sharded PathTo stats empty: %+v", pst)
	}

	g := dataset.MustGenerate(dataset.Spec{Name: "pstats", Nodes: 200, Edges: 240, Seed: 3})
	set := dataset.PlaceUniform(g, 10, 4)
	db2, err := OpenWithObjects(FromGraph(g), set, Options{StorePaths: true})
	if err != nil {
		t.Fatal(err)
	}
	hits2, _, err := db2.KNNContext(ctx, NewKNN(0, 1))
	if err != nil || len(hits2) == 0 {
		t.Fatalf("no object on single-index: %v", err)
	}
	_, pst2, err := db2.PathToContext(ctx, NewPath(0, hits2[0].Object.ID))
	if err != nil {
		t.Fatal(err)
	}
	if pst2.NodesPopped == 0 || pst2.ShardsSearched != 1 {
		t.Fatalf("single-index PathTo stats: %+v", pst2)
	}
}

// TestMaxRadiusOption: the kNN stop bound returns identical answers on
// both shapes (applied in-search for DB, by truncation for ShardedDB).
func TestMaxRadiusOption(t *testing.T) {
	db, sdb := shardedPair(t, 13, 320, 60, 4)
	ctx := context.Background()
	for n := NodeID(0); n < 25; n++ {
		full, _, err := db.KNNContext(ctx, NewKNN(n, 8))
		if err != nil {
			t.Fatal(err)
		}
		if len(full) < 3 {
			continue
		}
		cut := full[2].Dist
		wantN := 0
		for _, r := range full {
			if r.Dist <= cut {
				wantN++
			}
		}
		got, _, err := db.KNNContext(ctx, NewKNN(n, 8, WithMaxRadius(cut)))
		if err != nil {
			t.Fatal(err)
		}
		gotSharded, _, err := sdb.KNNContext(ctx, NewKNN(n, 8, WithMaxRadius(cut)))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != wantN || len(gotSharded) != wantN {
			t.Fatalf("node %d: MaxRadius answers %d (db) / %d (sharded), want %d",
				n, len(got), len(gotSharded), wantN)
		}
	}
}
