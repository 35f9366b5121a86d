package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"testing"

	"road"
)

// buildSquare returns a 4-node cycle DB with two attr-1 objects:
//
//	n0 --e01(1)-- n1
//	 |             |
//	e30(1)       e12(1)
//	 |             |
//	n3 --e23(1)-- n2
//
// Object A sits mid-e01 (0.5 from n0), object B mid-e23 (1.5 from n0 via
// n3). Returned alongside are A's and B's IDs and e01.
func buildSquare(t testing.TB, opts road.Options) (*road.DB, road.ObjectID, road.ObjectID, road.EdgeID) {
	t.Helper()
	b := road.NewNetworkBuilder()
	n0 := b.AddNode(0, 0)
	n1 := b.AddNode(1, 0)
	n2 := b.AddNode(1, 1)
	n3 := b.AddNode(0, 1)
	e01, _ := b.AddRoad(n0, n1, 1)
	b.AddRoad(n1, n2, 1)
	e23, _ := b.AddRoad(n2, n3, 1)
	b.AddRoad(n3, n0, 1)
	db, err := road.Open(b, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	a, err := db.AddObject(e01, 0.5, 1)
	if err != nil {
		t.Fatalf("AddObject A: %v", err)
	}
	bb, err := db.AddObject(e23, 0.5, 1)
	if err != nil {
		t.Fatalf("AddObject B: %v", err)
	}
	return db, a.ID, bb.ID, e01
}

func getJSON[T any](t *testing.T, ts *httptest.Server, path string, wantStatus int) T {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", path, resp.StatusCode, wantStatus)
	}
	var out T
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("GET %s: decoding: %v", path, err)
	}
	return out
}

func postJSON[T any](t *testing.T, ts *httptest.Server, path string, body any, wantStatus int) T {
	t.Helper()
	buf, _ := json.Marshal(body)
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d, want %d", path, resp.StatusCode, wantStatus)
	}
	var out T
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("POST %s: decoding: %v", path, err)
	}
	return out
}

func TestKNNEndpoint(t *testing.T) {
	db, aID, _, _ := buildSquare(t, road.Options{})
	ts := httptest.NewServer(New(db, Options{}).Handler())
	defer ts.Close()

	got := getJSON[QueryResponse](t, ts, "/knn?node=0&k=1", http.StatusOK)
	if len(got.Results) != 1 || got.Results[0].Object != aID {
		t.Fatalf("KNN(0,1) = %+v, want object %d", got.Results, aID)
	}
	if math.Abs(got.Results[0].Dist-0.5) > 1e-9 {
		t.Fatalf("KNN(0,1) dist = %g, want 0.5", got.Results[0].Dist)
	}
	if got.Cached {
		t.Fatal("first query reported cached")
	}
	if got.Stats.NodesPopped == 0 {
		t.Fatal("stats not reported")
	}

	again := getJSON[QueryResponse](t, ts, "/knn?node=0&k=1", http.StatusOK)
	if !again.Cached {
		t.Fatal("identical second query not served from cache")
	}
	if len(again.Results) != 1 || again.Results[0].Object != aID {
		t.Fatalf("cached KNN(0,1) = %+v, want object %d", again.Results, aID)
	}
}

func TestWithinEndpoint(t *testing.T) {
	db, aID, bID, _ := buildSquare(t, road.Options{})
	ts := httptest.NewServer(New(db, Options{}).Handler())
	defer ts.Close()

	got := getJSON[QueryResponse](t, ts, "/within?node=0&radius=1.0", http.StatusOK)
	if len(got.Results) != 1 || got.Results[0].Object != aID {
		t.Fatalf("Within(0,1.0) = %+v, want only object %d", got.Results, aID)
	}
	wide := getJSON[QueryResponse](t, ts, "/within?node=0&radius=2.0", http.StatusOK)
	if len(wide.Results) != 2 {
		t.Fatalf("Within(0,2.0) = %+v, want objects %d and %d", wide.Results, aID, bID)
	}
}

// TestCacheInvalidationOnEdgeWeight is the acceptance test: a cached kNN
// answer must change after a maintenance call re-weights the edge that
// made it nearest.
func TestCacheInvalidationOnEdgeWeight(t *testing.T) {
	db, aID, bID, e01 := buildSquare(t, road.Options{})
	ts := httptest.NewServer(New(db, Options{}).Handler())
	defer ts.Close()

	first := getJSON[QueryResponse](t, ts, "/knn?node=0&k=1", http.StatusOK)
	if first.Results[0].Object != aID {
		t.Fatalf("before update: nearest = %d, want %d", first.Results[0].Object, aID)
	}
	cached := getJSON[QueryResponse](t, ts, "/knn?node=0&k=1", http.StatusOK)
	if !cached.Cached || cached.Results[0].Object != aID {
		t.Fatalf("warm query: cached=%v object=%d, want cached A", cached.Cached, cached.Results[0].Object)
	}

	// Stretch e01 to 10: A rescales to 5.0 from n0, B (1.5) becomes nearest.
	ack := postJSON[MaintenanceResponse](t, ts, "/maintenance/set-distance",
		MaintenanceRequest{Edge: e01, Dist: 10}, http.StatusOK)
	if !ack.OK || ack.Epoch <= first.Epoch {
		t.Fatalf("maintenance ack = %+v, want ok with epoch > %d", ack, first.Epoch)
	}

	after := getJSON[QueryResponse](t, ts, "/knn?node=0&k=1", http.StatusOK)
	if after.Cached {
		t.Fatal("query after maintenance served from a stale cache")
	}
	if after.Results[0].Object != bID {
		t.Fatalf("after update: nearest = %d, want %d", after.Results[0].Object, bID)
	}
	if math.Abs(after.Results[0].Dist-1.5) > 1e-9 {
		t.Fatalf("after update: dist = %g, want 1.5", after.Results[0].Dist)
	}
	if after.Epoch != ack.Epoch {
		t.Fatalf("query epoch %d, want maintenance epoch %d", after.Epoch, ack.Epoch)
	}
}

func TestCloseAndReopenRoad(t *testing.T) {
	db, _, bID, e01 := buildSquare(t, road.Options{})
	ts := httptest.NewServer(New(db, Options{}).Handler())
	defer ts.Close()

	postJSON[MaintenanceResponse](t, ts, "/maintenance/close",
		MaintenanceRequest{Edge: e01}, http.StatusOK)
	got := getJSON[QueryResponse](t, ts, "/knn?node=0&k=2", http.StatusOK)
	// A lived on the closed road and is dropped with it; only B remains.
	if len(got.Results) != 1 || got.Results[0].Object != bID {
		t.Fatalf("after close: %+v, want only object %d", got.Results, bID)
	}

	postJSON[MaintenanceResponse](t, ts, "/maintenance/reopen",
		MaintenanceRequest{Edge: e01}, http.StatusOK)
	reopened := getJSON[QueryResponse](t, ts, "/knn?node=0&k=2", http.StatusOK)
	// n0—n1 is traversable again (1.5 to B via n3 unchanged, but B now
	// also reachable the other way); A stays dropped.
	if len(reopened.Results) != 1 || reopened.Results[0].Object != bID {
		t.Fatalf("after reopen: %+v, want only object %d", reopened.Results, bID)
	}
}

func TestObjectChurn(t *testing.T) {
	db, _, _, _ := buildSquare(t, road.Options{})
	ts := httptest.NewServer(New(db, Options{}).Handler())
	defer ts.Close()

	ack := postJSON[MaintenanceResponse](t, ts, "/maintenance/insert-object",
		MaintenanceRequest{Edge: 1, Offset: 0.25, Attr: 7}, http.StatusOK)
	got := getJSON[QueryResponse](t, ts, "/knn?node=1&k=1&attr=7", http.StatusOK)
	if len(got.Results) != 1 || got.Results[0].Object != ack.Object {
		t.Fatalf("attr-7 nearest = %+v, want inserted object %d", got.Results, ack.Object)
	}
	if math.Abs(got.Results[0].Dist-0.25) > 1e-9 {
		t.Fatalf("inserted object dist = %g, want 0.25", got.Results[0].Dist)
	}

	postJSON[MaintenanceResponse](t, ts, "/maintenance/delete-object",
		MaintenanceRequest{Object: ack.Object}, http.StatusOK)
	gone := getJSON[QueryResponse](t, ts, "/knn?node=1&k=1&attr=7", http.StatusOK)
	if len(gone.Results) != 0 {
		t.Fatalf("deleted object still returned: %+v", gone.Results)
	}
}

func TestPathEndpoint(t *testing.T) {
	db, _, bID, _ := buildSquare(t, road.Options{StorePaths: true})
	ts := httptest.NewServer(New(db, Options{}).Handler())
	defer ts.Close()

	got := getJSON[PathResponse](t, ts, fmt.Sprintf("/path?node=0&object=%d", bID), http.StatusOK)
	if math.Abs(got.Dist-1.5) > 1e-9 {
		t.Fatalf("path dist = %g, want 1.5", got.Dist)
	}
	if len(got.Path) < 2 || got.Path[0] != 0 {
		t.Fatalf("path = %v, want to start at node 0", got.Path)
	}
}

func TestPathWithoutStorePaths(t *testing.T) {
	// StorePaths is a no-op: every DB keeps waypoints, so /path answers
	// over a DB opened without it exactly as over one opened with it.
	plain, _, bID, _ := buildSquare(t, road.Options{})
	paths, _, _, _ := buildSquare(t, road.Options{StorePaths: true})
	var got [2]PathResponse
	for i, db := range []road.Store{plain, paths} {
		ts := httptest.NewServer(New(db, Options{}).Handler())
		got[i] = getJSON[PathResponse](t, ts, fmt.Sprintf("/path?node=0&object=%d", bID), http.StatusOK)
		ts.Close()
	}
	if got[0].Dist != got[1].Dist || !slices.Equal(got[0].Path, got[1].Path) {
		t.Fatalf("without StorePaths: %v/%v; with it: %v/%v", got[0].Dist, got[0].Path, got[1].Dist, got[1].Path)
	}
}

// TestPathHonoursAttrAndBudget: /path takes the same optional attr and
// budget parameters as /knn and /within, with the same outcomes.
func TestPathHonoursAttrAndBudget(t *testing.T) {
	db, _, bID, _ := buildSquare(t, road.Options{StorePaths: true})
	ts := httptest.NewServer(New(db, Options{}).Handler())
	defer ts.Close()
	base := fmt.Sprintf("/path?node=0&object=%d", bID)

	// The object's own category and a budget the route fits in change nothing.
	plain := getJSON[PathResponse](t, ts, base, http.StatusOK)
	got := getJSON[PathResponse](t, ts, base+"&attr=1&budget=100", http.StatusOK)
	if got.Dist != plain.Dist || !slices.Equal(got.Path, plain.Path) {
		t.Fatalf("attr=1&budget=100 answered %v/%v, plain request %v/%v", got.Dist, got.Path, plain.Dist, plain.Path)
	}

	if e := getJSON[ErrorResponse](t, ts, base+"&budget=1", http.StatusServiceUnavailable); e.Code != "budget_exhausted" {
		t.Fatalf("budget=1: code %q, want budget_exhausted", e.Code)
	}
	if e := getJSON[ErrorResponse](t, ts, base+"&attr=2", http.StatusUnprocessableEntity); e.Code != "query_failed" {
		t.Fatalf("attr=2 on a category-1 object: code %q, want query_failed", e.Code)
	}
	for _, bad := range []string{"&budget=-1", "&budget=x", "&attr=x", "&attr=99999999999"} {
		getJSON[ErrorResponse](t, ts, base+bad, http.StatusBadRequest)
	}
}

func TestBadRequests(t *testing.T) {
	db, _, _, _ := buildSquare(t, road.Options{})
	ts := httptest.NewServer(New(db, Options{}).Handler())
	defer ts.Close()

	getJSON[ErrorResponse](t, ts, "/knn?node=99&k=1", http.StatusNotFound)
	getJSON[ErrorResponse](t, ts, "/knn?node=0", http.StatusBadRequest)
	getJSON[ErrorResponse](t, ts, "/knn?node=0&k=0", http.StatusBadRequest)
	getJSON[ErrorResponse](t, ts, "/within?node=0", http.StatusBadRequest)
	getJSON[ErrorResponse](t, ts, "/within?node=0&radius=-1", http.StatusBadRequest)
	getJSON[ErrorResponse](t, ts, "/within?node=0&radius=Inf", http.StatusBadRequest)
	getJSON[ErrorResponse](t, ts, "/within?node=0&radius=NaN", http.StatusBadRequest)

	resp, err := ts.Client().Get(ts.URL + "/nosuch")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /nosuch: status %d, want 404", resp.StatusCode)
	}
}

// TestMaintenanceBogusIDs: IDs from untrusted clients must produce 422s,
// never reach the graph layer's panicking array indexing.
func TestMaintenanceBogusIDs(t *testing.T) {
	db, _, _, _ := buildSquare(t, road.Options{})
	ts := httptest.NewServer(New(db, Options{}).Handler())
	defer ts.Close()

	for _, path := range []string{
		"/maintenance/set-distance", "/maintenance/close", "/maintenance/reopen",
	} {
		postJSON[ErrorResponse](t, ts, path,
			MaintenanceRequest{Edge: 99999, Dist: 2}, http.StatusUnprocessableEntity)
		postJSON[ErrorResponse](t, ts, path,
			MaintenanceRequest{Edge: -1, Dist: 2}, http.StatusUnprocessableEntity)
	}
	postJSON[ErrorResponse](t, ts, "/maintenance/insert-object",
		MaintenanceRequest{Edge: 99999, Offset: 0.5}, http.StatusUnprocessableEntity)
	postJSON[ErrorResponse](t, ts, "/maintenance/insert-object",
		MaintenanceRequest{Edge: 0, Offset: 50}, http.StatusUnprocessableEntity) // offset beyond edge
	postJSON[ErrorResponse](t, ts, "/maintenance/delete-object",
		MaintenanceRequest{Object: 4040}, http.StatusUnprocessableEntity)

	// The server must still answer afterwards.
	getJSON[QueryResponse](t, ts, "/knn?node=0&k=1", http.StatusOK)
}

// TestAddRoadBetweenIsolatedNodes: a failed add-road must not leave a
// live orphan edge behind (the graph mutation is rolled back).
func TestAddRoadBetweenIsolatedNodes(t *testing.T) {
	db, _, _, _ := buildSquare(t, road.Options{})
	ts := httptest.NewServer(New(db, Options{}).Handler())
	defer ts.Close()

	// Close every road: all four nodes become isolated.
	for e := road.EdgeID(0); e < 4; e++ {
		postJSON[MaintenanceResponse](t, ts, "/maintenance/close",
			MaintenanceRequest{Edge: e}, http.StatusOK)
	}
	postJSON[ErrorResponse](t, ts, "/maintenance/add-road",
		MaintenanceRequest{U: 0, V: 2, Dist: 1}, http.StatusUnprocessableEntity)

	// The rolled-back edge must not be usable: any stub left behind
	// behaves like a closed road, and the server keeps answering.
	postJSON[ErrorResponse](t, ts, "/maintenance/set-distance",
		MaintenanceRequest{Edge: 4, Dist: 2}, http.StatusUnprocessableEntity)
	got := getJSON[QueryResponse](t, ts, "/knn?node=0&k=1", http.StatusOK)
	if len(got.Results) != 0 {
		t.Fatalf("results on a fully closed network: %+v", got.Results)
	}
	// Even with every incident edge closed, a reopen finds its host via
	// the build-time origin leaf and succeeds; the reopened road is
	// immediately queryable again.
	postJSON[MaintenanceResponse](t, ts, "/maintenance/reopen",
		MaintenanceRequest{Edge: 0}, http.StatusOK)
	ins := postJSON[MaintenanceResponse](t, ts, "/maintenance/insert-object",
		MaintenanceRequest{Edge: 0, Offset: 0.25, Attr: 1}, http.StatusOK)
	got = getJSON[QueryResponse](t, ts, "/knn?node=0&k=1", http.StatusOK)
	if len(got.Results) != 1 || got.Results[0].Object != ins.Object {
		t.Fatalf("KNN after isolated reopen = %+v, want object %d", got.Results, ins.Object)
	}
	if math.Abs(got.Results[0].Dist-0.25) > 1e-9 {
		t.Fatalf("KNN after isolated reopen dist = %g, want 0.25", got.Results[0].Dist)
	}
}

func TestStatsEndpoint(t *testing.T) {
	db, _, _, e01 := buildSquare(t, road.Options{})
	ts := httptest.NewServer(New(db, Options{}).Handler())
	defer ts.Close()

	getJSON[QueryResponse](t, ts, "/knn?node=0&k=1", http.StatusOK)
	getJSON[QueryResponse](t, ts, "/knn?node=0&k=1", http.StatusOK) // cache hit
	getJSON[QueryResponse](t, ts, "/within?node=0&radius=1.0", http.StatusOK)
	postJSON[MaintenanceResponse](t, ts, "/maintenance/set-distance",
		MaintenanceRequest{Edge: e01, Dist: 2}, http.StatusOK)

	st := getJSON[StatsResponse](t, ts, "/stats", http.StatusOK)
	if st.Network.Nodes != 4 || st.Network.Edges != 4 || st.Network.Objects != 2 {
		t.Fatalf("network stats = %+v", st.Network)
	}
	if st.Requests.KNN != 2 || st.Requests.Within != 1 || st.Requests.Maintenance != 1 {
		t.Fatalf("request counters = %+v", st.Requests)
	}
	if st.Cache.Hits != 1 || st.Cache.Misses != 2 {
		t.Fatalf("cache counters = %+v", st.Cache)
	}
	if st.Cache.Invalidations != 0 {
		// Invalidation is lazy: it shows up only after the next query.
		t.Fatalf("invalidations = %d before any post-maintenance query", st.Cache.Invalidations)
	}
	if st.Traversal.NodesPopped == 0 {
		t.Fatal("traversal aggregates empty")
	}
	if st.Pool.Created == 0 {
		t.Fatal("pool created no sessions")
	}
	if st.Epoch == 0 {
		t.Fatal("epoch not advanced by maintenance")
	}

	getJSON[QueryResponse](t, ts, "/knn?node=0&k=1", http.StatusOK)
	st2 := getJSON[StatsResponse](t, ts, "/stats", http.StatusOK)
	if st2.Cache.Invalidations != 1 {
		t.Fatalf("invalidations = %d after post-maintenance query, want 1", st2.Cache.Invalidations)
	}
}

func TestHealthz(t *testing.T) {
	db, _, _, _ := buildSquare(t, road.Options{})
	ts := httptest.NewServer(New(db, Options{}).Handler())
	defer ts.Close()
	got := getJSON[map[string]any](t, ts, "/healthz", http.StatusOK)
	if got["ok"] != true {
		t.Fatalf("healthz = %v", got)
	}
}

func TestCacheDisabled(t *testing.T) {
	db, aID, _, _ := buildSquare(t, road.Options{})
	ts := httptest.NewServer(New(db, Options{CacheSize: -1}).Handler())
	defer ts.Close()
	for i := 0; i < 2; i++ {
		got := getJSON[QueryResponse](t, ts, "/knn?node=0&k=1", http.StatusOK)
		if got.Cached {
			t.Fatal("disabled cache served a hit")
		}
		if got.Results[0].Object != aID {
			t.Fatalf("nearest = %d, want %d", got.Results[0].Object, aID)
		}
	}
}
