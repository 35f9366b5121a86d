package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"road"
)

// gridNetwork returns a builder holding an n×n grid (unit-ish edge
// weights) and its edge IDs.
func gridNetwork(t *testing.T, n int) (*road.NetworkBuilder, []road.EdgeID) {
	t.Helper()
	b := road.NewNetworkBuilder()
	ids := make([][]road.NodeID, n)
	for i := 0; i < n; i++ {
		ids[i] = make([]road.NodeID, n)
		for j := 0; j < n; j++ {
			ids[i][j] = b.AddNode(float64(i), float64(j))
		}
	}
	var edges []road.EdgeID
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i+1 < n {
				e, err := b.AddRoad(ids[i][j], ids[i+1][j], 1+0.1*float64((i+j)%3))
				if err != nil {
					t.Fatal(err)
				}
				edges = append(edges, e)
			}
			if j+1 < n {
				e, err := b.AddRoad(ids[i][j], ids[i][j+1], 1+0.1*float64((i*j)%3))
				if err != nil {
					t.Fatal(err)
				}
				edges = append(edges, e)
			}
		}
	}
	return b, edges
}

// addRowObjects places one object per grid row on store.
func addRowObjects(t *testing.T, store road.Store, n int, edges []road.EdgeID) []road.ObjectID {
	t.Helper()
	var objs []road.ObjectID
	for i := 0; i < n; i++ {
		o, err := store.AddObject(edges[(i*13)%len(edges)], 0.3, int32(i%3))
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, o.ID)
	}
	return objs
}

// buildGrid returns an n×n grid DB with one object per row, StorePaths
// on, plus the edge and object ID ranges.
func buildGrid(t *testing.T, n int) (*road.DB, []road.EdgeID, []road.ObjectID) {
	t.Helper()
	b, edges := gridNetwork(t, n)
	db, err := road.Open(b, road.Options{StorePaths: true, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return db, edges, addRowObjects(t, db, n, edges)
}

// TestConcurrentQueriesAndMaintenance races many concurrent KNN / Within /
// PathTo requests against SetRoadDistance and CloseRoad/ReopenRoad
// mutations on a road.DB, which locks itself; run with -race this
// verifies the serving subsystem's central guarantee.
func TestConcurrentQueriesAndMaintenance(t *testing.T) {
	const gridSide = 6
	db, edges, objs := buildGrid(t, gridSide)
	runMaintenanceStorm(t, db, gridSide*gridSide, edges, objs)
}

// TestConcurrentQueriesAndMaintenanceSharded is the same storm over a
// road.ShardedDB: queries synchronize against mutations through the
// router's per-shard write locks, and with -race this verifies that
// locking end to end, incremental border-table refresh included.
func TestConcurrentQueriesAndMaintenanceSharded(t *testing.T) {
	const gridSide = 8
	b, edges := gridNetwork(t, gridSide)
	sdb, err := road.OpenSharded(b, road.Options{Seed: 42}, 4)
	if err != nil {
		t.Fatal(err)
	}
	objs := addRowObjects(t, sdb, gridSide, edges)
	runMaintenanceStorm(t, sdb, gridSide*gridSide, edges, objs)
}

// runMaintenanceStorm drives concurrent reads and mutations at a served
// store and checks the system still answers afterwards.
func runMaintenanceStorm(t *testing.T, store road.Store, numNodes int, edges []road.EdgeID, objs []road.ObjectID) {
	t.Helper()
	srv := New(store, Options{CacheSize: 128})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	do := func(t *testing.T, method, path string, body any) int {
		var (
			resp *http.Response
			err  error
		)
		if method == http.MethodPost {
			buf, _ := json.Marshal(body)
			resp, err = ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(buf))
		} else {
			resp, err = ts.Client().Get(ts.URL + path)
		}
		if err != nil {
			t.Errorf("%s %s: %v", method, path, err)
			return 0
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode >= 500 {
			t.Errorf("%s %s: server error %d", method, path, resp.StatusCode)
		}
		return resp.StatusCode
	}

	var wg sync.WaitGroup
	const readers, iters = 8, 40
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(worker)))
			for i := 0; i < iters; i++ {
				node := rng.Intn(numNodes)
				switch rng.Intn(4) {
				case 0:
					do(t, http.MethodGet, fmt.Sprintf("/knn?node=%d&k=3", node), nil)
				case 1:
					do(t, http.MethodGet, fmt.Sprintf("/within?node=%d&radius=2.5", node), nil)
				case 2:
					// Objects may have been dropped by a road closure;
					// 422 is a legal answer, 5xx (or a race crash) is not.
					obj := objs[rng.Intn(len(objs))]
					do(t, http.MethodGet, fmt.Sprintf("/path?node=%d&object=%d", node, obj), nil)
				case 3:
					do(t, http.MethodGet, "/stats", nil)
				}
			}
		}(r)
	}

	// Writer 1: re-weight random edges.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(1001))
		for i := 0; i < 25; i++ {
			e := edges[rng.Intn(len(edges))]
			w := 0.5 + rng.Float64()*2
			do(t, http.MethodPost, "/maintenance/set-distance", MaintenanceRequest{Edge: e, Dist: w})
		}
	}()

	// Writer 2: close and reopen roads (edges without objects, so /path
	// targets stay mostly alive; closures may still legally fail).
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(2002))
		for i := 0; i < 15; i++ {
			e := edges[rng.Intn(len(edges))]
			do(t, http.MethodPost, "/maintenance/close", MaintenanceRequest{Edge: e})
			do(t, http.MethodPost, "/maintenance/reopen", MaintenanceRequest{Edge: e})
		}
	}()

	wg.Wait()

	// The system must still answer correctly after the storm.
	st := getJSON[StatsResponse](t, ts, "/stats", http.StatusOK)
	wantQueries := uint64(0)
	gotQueries := st.Requests.KNN + st.Requests.Within + st.Requests.Path
	if gotQueries <= wantQueries {
		t.Fatalf("no queries recorded: %+v", st.Requests)
	}
	if code := do(t, http.MethodGet, "/knn?node=0&k=2", nil); code != http.StatusOK {
		t.Fatalf("post-storm query failed with %d", code)
	}
}
