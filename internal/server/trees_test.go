package server

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"

	"road"
	"road/internal/core"
	"road/internal/graph"
)

// TestServingRetainsNoPointerTrees: serving holds each node's shortcut
// tree only as CSR slabs. After Build and the first query, after a
// 300-op mutation storm through the fenced maintenance endpoints, and
// after IndexSizeBytes, /stats and /metrics scrapes, no framework under
// the store caches a pointer tree. A session pinned to the reference
// path, which builds them on demand, still answers like the CSR path.
func TestServingRetainsNoPointerTrees(t *testing.T) {
	const side = 10
	t.Run("mono", func(t *testing.T) {
		db, edges, _ := buildGrid(t, side)
		assertServingRetainsNoTrees(t, db, []*core.Framework{db.Framework()}, edges)
	})
	t.Run("sharded", func(t *testing.T) {
		b, edges := gridNetwork(t, side)
		sdb, err := road.OpenSharded(b, road.Options{StorePaths: true, Seed: 42}, 4)
		if err != nil {
			t.Fatal(err)
		}
		addRowObjects(t, sdb, side, edges)
		var fws []*core.Framework
		for i := 0; i < sdb.NumShards(); i++ {
			fws = append(fws, sdb.Router().Shard(i).F)
		}
		assertServingRetainsNoTrees(t, sdb, fws, edges)
	})
}

func assertServingRetainsNoTrees(t *testing.T, store road.Store, fws []*core.Framework, edges []road.EdgeID) {
	t.Helper()
	cached := func() int {
		n := 0
		for _, f := range fws {
			n += f.Hierarchy().CachedTrees()
		}
		return n
	}
	noTrees := func(stage string) {
		t.Helper()
		if n := cached(); n != 0 {
			t.Fatalf("after %s: %d pointer trees cached, want none", stage, n)
		}
	}
	ts := httptest.NewServer(New(store, Options{CacheSize: 128}).Handler())
	defer ts.Close()
	get := func(path string) {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
	}

	noTrees("Build")
	get("/knn?node=0&k=3")
	get("/path?node=0&object=0")
	noTrees("the first queries")

	// Closing a closed road or reopening an open one is a legal 4xx;
	// anything 5xx is not.
	rng := rand.New(rand.NewSource(36))
	ops := [...]string{"set-distance", "close", "reopen", "insert-object"}
	for op := 0; op < 300; op++ {
		kind := ops[rng.Intn(len(ops))]
		req := MaintenanceRequest{Edge: edges[rng.Intn(len(edges))], Dist: 0.5 + 2*rng.Float64(), Offset: 0.2}
		buf, _ := json.Marshal(req)
		resp, err := ts.Client().Post(ts.URL+"/maintenance/"+kind, "application/json", bytes.NewReader(buf))
		if err != nil {
			t.Fatalf("op %d %s: %v", op, kind, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode >= 500 {
			t.Fatalf("op %d %s: status %d", op, kind, resp.StatusCode)
		}
		if op%25 == 0 {
			get("/within?node=5&radius=4")
		}
	}
	noTrees("a mutation storm")

	if store.IndexSizeBytes() <= 0 {
		t.Fatal("IndexSizeBytes <= 0")
	}
	get("/stats")
	get("/metrics")
	noTrees("IndexSizeBytes, /stats and /metrics")

	for i, f := range fws {
		csr, ref := f.NewSession(), f.NewSession()
		ref.UseReferencePath(true)
		for n := 0; n < f.Graph().NumNodes(); n++ {
			q := core.Query{Node: graph.NodeID(n)}
			want, _ := ref.KNN(q, 3)
			got, _ := csr.KNN(q, 3)
			if len(want) != len(got) {
				t.Fatalf("framework %d node %d: reference %d results, CSR %d", i, n, len(want), len(got))
			}
			for j := range want {
				if want[j].Object.ID != got[j].Object.ID || want[j].Dist != got[j].Dist {
					t.Fatalf("framework %d node %d rank %d: reference %+v, CSR %+v", i, n, j, want[j], got[j])
				}
			}
		}
	}
	if cached() == 0 {
		t.Fatal("the reference path answered without building a pointer tree")
	}
}
