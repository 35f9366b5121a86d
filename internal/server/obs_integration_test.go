package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"road"
	"road/internal/obs"
)

// scrapeText fetches /metrics and returns the body after asserting the
// exposition Content-Type.
func scrapeText(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("GET /metrics: Content-Type = %q, want text exposition 0.0.4", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading /metrics: %v", err)
	}
	return string(body)
}

// parseExposition asserts every line of a /metrics body is a well-formed
// comment or sample and returns the samples keyed by `name` or
// `name{labels}`.
func parseExposition(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("malformed sample value in %q: %v", line, err)
		}
		key := line[:sp]
		if _, dup := out[key]; dup {
			t.Fatalf("duplicate series %q", key)
		}
		out[key] = v
	}
	return out
}

// TestMetricsEndpoint drives a little of every endpoint at a served DB
// and checks the /metrics exposition carries the counters that work
// should have produced.
func TestMetricsEndpoint(t *testing.T) {
	db, _, bID, e01 := buildSquare(t, road.Options{StorePaths: true})
	ts := httptest.NewServer(New(db, Options{}).Handler())
	defer ts.Close()

	getJSON[QueryResponse](t, ts, "/knn?node=0&k=1", http.StatusOK)
	getJSON[QueryResponse](t, ts, "/knn?node=0&k=1", http.StatusOK) // cache hit
	getJSON[QueryResponse](t, ts, "/within?node=0&radius=1.0", http.StatusOK)
	getJSON[PathResponse](t, ts, fmt.Sprintf("/path?node=0&object=%d", bID), http.StatusOK)
	postJSON[MaintenanceResponse](t, ts, "/maintenance/set-distance",
		MaintenanceRequest{Edge: e01, Dist: 2}, http.StatusOK)

	m := parseExposition(t, scrapeText(t, ts))

	want := map[string]float64{
		`road_requests_total{endpoint="knn"}`:                 2,
		`road_requests_total{endpoint="within"}`:              1,
		`road_requests_total{endpoint="path"}`:                1,
		`road_requests_total{endpoint="maintenance"}`:         1,
		`road_request_duration_seconds_count{endpoint="knn"}`: 2,
		`road_cache_hits_total`:                               1,
		`road_cache_misses_total`:                             2, // first kNN + the within probe
		`road_epoch`:                                          3, // two AddObject setups + set-distance
		`road_network_nodes`:                                  4,
		`road_network_objects`:                                2,
		// 3 uncached queries fed the cost histograms.
		`road_query_node_pops_count`: 3,
	}
	for series, v := range want {
		if got, ok := m[series]; !ok {
			t.Errorf("series %s missing from /metrics", series)
		} else if got != v {
			t.Errorf("%s = %g, want %g", series, got, v)
		}
	}
	// The set-distance was drained by a patch: still the one build, a
	// timed drain on record, slabs with a size.
	if m[`road_csr_rebuilds_total`] != 1 || m[`road_csr_patch_seconds_count`] < 1 || m[`road_csr_bytes`] <= 0 {
		t.Errorf("CSR upkeep series: rebuilds %g, drains %g, bytes %g",
			m[`road_csr_rebuilds_total`], m[`road_csr_patch_seconds_count`], m[`road_csr_bytes`])
	}
	if m[`road_traversal_nodes_popped_total`] <= 0 {
		t.Errorf("road_traversal_nodes_popped_total = %g, want > 0",
			m[`road_traversal_nodes_popped_total`])
	}

	// Histogram integrity: buckets cumulative, +Inf equals _count.
	var prev float64
	for _, le := range []string{"0.0001", "0.00025", "0.0005"} {
		key := fmt.Sprintf(`road_request_duration_seconds_bucket{endpoint="knn",le="%s"}`, le)
		v, ok := m[key]
		if !ok {
			t.Fatalf("bucket %s missing", key)
		}
		if v < prev {
			t.Fatalf("bucket %s = %g not cumulative (prev %g)", key, v, prev)
		}
		prev = v
	}
	inf := m[`road_request_duration_seconds_bucket{endpoint="knn",le="+Inf"}`]
	if cnt := m[`road_request_duration_seconds_count{endpoint="knn"}`]; inf != cnt {
		t.Fatalf("+Inf bucket %g != _count %g", inf, cnt)
	}
}

// TestMetricsShardSeries checks a sharded deployment exposes per-shard
// labelled series and that home-query counters move under load.
func TestMetricsShardSeries(t *testing.T) {
	sdb, objs := buildShardedGrid(t, 8, 4)
	ts := httptest.NewServer(New(sdb, Options{}).Handler())
	defer ts.Close()

	for n := 0; n < 16; n++ {
		getJSON[QueryResponse](t, ts, fmt.Sprintf("/knn?node=%d&k=%d", n*3, len(objs)), http.StatusOK)
	}
	postJSON[MaintenanceResponse](t, ts, "/maintenance/set-distance",
		MaintenanceRequest{Edge: 3, Dist: 2.5}, http.StatusOK)
	m := parseExposition(t, scrapeText(t, ts))

	// The re-weight patched its shard's index; nobody rebuilt.
	if m[`road_csr_patch_seconds_count`] < 1 {
		t.Errorf("road_csr_patch_seconds_count = %g after a mutation", m[`road_csr_patch_seconds_count`])
	}
	var homeTotal float64
	for shard := 0; shard < 4; shard++ {
		if got := m[fmt.Sprintf(`road_csr_rebuilds_total{shard="%d"}`, shard)]; got != 1 {
			t.Errorf("road_csr_rebuilds_total{shard=\"%d\"} = %g, want the one initial build", shard, got)
		}
		if m[fmt.Sprintf(`road_csr_bytes{shard="%d"}`, shard)] <= 0 {
			t.Errorf("road_csr_bytes{shard=\"%d\"} missing or zero", shard)
		}
		key := fmt.Sprintf(`road_shard_home_queries_total{shard="%d"}`, shard)
		v, ok := m[key]
		if !ok {
			t.Fatalf("series %s missing from /metrics", key)
		}
		homeTotal += v
		if _, ok := m[fmt.Sprintf(`road_shard_epoch{shard="%d"}`, shard)]; !ok {
			t.Fatalf("road_shard_epoch{shard=\"%d\"} missing", shard)
		}
	}
	if homeTotal <= 0 {
		t.Fatalf("no home queries recorded across shards")
	}
}

// TestMetricsScrapeDuringLoad races /metrics scrapes against queries and
// mutations; under -race this verifies every collector callback and
// hot-path counter is safe to read mid-flight.
func TestMetricsScrapeDuringLoad(t *testing.T) {
	sdb, objs := buildShardedGrid(t, 8, 4)
	ts := httptest.NewServer(New(sdb, Options{CacheSize: 64}).Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(worker)))
			for i := 0; i < 30; i++ {
				node := rng.Intn(64)
				switch rng.Intn(3) {
				case 0:
					getJSON[QueryResponse](t, ts, fmt.Sprintf("/knn?node=%d&k=3", node), http.StatusOK)
				case 1:
					getJSON[QueryResponse](t, ts, fmt.Sprintf("/within?node=%d&radius=2.5", node), http.StatusOK)
				case 2:
					resp, err := ts.Client().Get(ts.URL + fmt.Sprintf("/path?node=%d&object=%d&trace=1", node, objs[rng.Intn(len(objs))]))
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			postJSON[MaintenanceResponse](t, ts, "/maintenance/set-distance",
				MaintenanceRequest{Edge: road.EdgeID(i), Dist: 1.5}, http.StatusOK)
		}
	}()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				parseExposition(t, scrapeText(t, ts))
			}
		}()
	}
	wg.Wait()

	m := parseExposition(t, scrapeText(t, ts))
	if m[`road_requests_total{endpoint="knn"}`] <= 0 {
		t.Fatal("no kNN requests recorded after load")
	}
}

// TestTraceSingleIndex checks &trace=1 on a single-index deployment: the
// response carries the search leg, its pops match the reported stats,
// leg durations fit inside the request wall time, and the cache is
// bypassed both ways.
func TestTraceSingleIndex(t *testing.T) {
	db, _, _, _ := buildSquare(t, road.Options{})
	ts := httptest.NewServer(New(db, Options{}).Handler())
	defer ts.Close()

	for i := 0; i < 2; i++ {
		got := getJSON[QueryResponse](t, ts, "/knn?node=0&k=2&trace=1", http.StatusOK)
		if got.Cached {
			t.Fatalf("trace request %d served from cache", i)
		}
		if len(got.Trace) == 0 {
			t.Fatalf("trace request %d returned no legs", i)
		}
		var sumUS int64
		var pops int
		for _, leg := range got.Trace {
			sumUS += leg.DurationUS
			pops += leg.Pops
		}
		if got.Trace[0].Name != "search" || got.Trace[0].Shard != -1 {
			t.Fatalf("single-index trace = %+v, want one \"search\" leg with shard -1", got.Trace)
		}
		if pops != got.Stats.NodesPopped {
			t.Fatalf("trace pops = %d, stats report %d", pops, got.Stats.NodesPopped)
		}
		if sumUS > got.ElapsedUS+1 {
			t.Fatalf("trace legs sum to %dµs, exceeding request elapsed %dµs", sumUS, got.ElapsedUS)
		}
	}

	// Plain requests are unaffected: no trace, and caching still works.
	first := getJSON[QueryResponse](t, ts, "/knn?node=0&k=2", http.StatusOK)
	if len(first.Trace) != 0 {
		t.Fatalf("untraced request returned trace %+v", first.Trace)
	}
	if first.Cached {
		t.Fatal("trace requests must not fill the cache")
	}
	if again := getJSON[QueryResponse](t, ts, "/knn?node=0&k=2", http.StatusOK); !again.Cached {
		t.Fatal("second untraced request not served from cache")
	}
}

// TestTraceSharded checks &trace=1 on a sharded deployment: the legs
// name the router's phases, and the distinct shards they touch agree
// with Stats.ShardsSearched.
func TestTraceSharded(t *testing.T) {
	sdb, objs := buildShardedGrid(t, 8, 4)
	ts := httptest.NewServer(New(sdb, Options{}).Handler())
	defer ts.Close()

	// Asking for every object forces the search across shard borders.
	got := getJSON[QueryResponse](t, ts, fmt.Sprintf("/knn?node=0&k=%d&trace=1", len(objs)), http.StatusOK)
	if len(got.Results) != len(objs) {
		t.Fatalf("got %d results, want %d", len(got.Results), len(objs))
	}
	if got.Stats.ShardsSearched < 2 {
		t.Fatalf("expected a cross-shard query, stats = %+v", got.Stats)
	}
	if len(got.Trace) == 0 {
		t.Fatal("sharded trace empty")
	}
	// ShardsSearched counts each home shard once (the locked and watched
	// re-runs of a home are one search) plus one per border re-entry —
	// which can revisit the home shard. The trace must account for
	// exactly that: distinct home-leg shards + enter legs.
	homes := make(map[int]bool)
	enters := 0
	for _, leg := range got.Trace {
		switch leg.Name {
		case "home_fast", "home_locked", "home_watched":
			homes[leg.Shard] = true
		case "enter":
			enters++
		case "gateway":
		default:
			t.Fatalf("unexpected leg name %q in %+v", leg.Name, got.Trace)
		}
	}
	if wantShards := len(homes) + enters; wantShards != got.Stats.ShardsSearched {
		t.Fatalf("trace shows %d home shard(s) + %d entries = %d searches, stats report %d\nlegs: %+v",
			len(homes), enters, wantShards, got.Stats.ShardsSearched, got.Trace)
	}

	// Path queries trace their per-shard Dijkstra legs (plus the border
	// gateway search when the route crosses shards).
	pr := getJSON[PathResponse](t, ts, fmt.Sprintf("/path?node=0&object=%d&trace=1", objs[len(objs)-1]), http.StatusOK)
	pathLegs := 0
	for _, leg := range pr.Trace {
		switch leg.Name {
		case "path_leg":
			if leg.Shard < 0 {
				t.Fatalf("path_leg without a shard: %+v", leg)
			}
			pathLegs++
		case "gateway":
		default:
			t.Fatalf("unexpected path trace leg %+v", leg)
		}
	}
	if pathLegs == 0 {
		t.Fatalf("sharded path trace has no path_leg entries: %+v", pr.Trace)
	}
}

// TestServerQueryLog routes queries through a server with a query log
// attached and checks the sampled JSONL records describe them.
func TestServerQueryLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "queries.log")
	qlog, err := obs.OpenQueryLog(path, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	db, _, bID, _ := buildSquare(t, road.Options{StorePaths: true})
	ts := httptest.NewServer(New(db, Options{QueryLog: qlog}).Handler())

	getJSON[QueryResponse](t, ts, "/knn?node=0&k=1", http.StatusOK)
	getJSON[QueryResponse](t, ts, "/knn?node=0&k=1", http.StatusOK) // hit
	getJSON[QueryResponse](t, ts, "/within?node=2&radius=1.0&attr=1", http.StatusOK)
	getJSON[PathResponse](t, ts, fmt.Sprintf("/path?node=0&object=%d", bID), http.StatusOK)
	getJSON[ErrorResponse](t, ts, "/knn?node=999&k=1", http.StatusNotFound)
	ts.Close()
	if err := qlog.Close(); err != nil {
		t.Fatal(err)
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var recs []obs.QueryRecord
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var rec obs.QueryRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad query log line %q: %v", line, err)
		}
		recs = append(recs, rec)
	}
	if len(recs) != 5 {
		t.Fatalf("query log has %d records, want 5:\n%s", len(recs), data)
	}
	assertRec := func(i int, op, cache, code string, node int64) {
		t.Helper()
		r := recs[i]
		if r.Op != op || r.Cache != cache || r.Code != code || r.Node != node {
			t.Fatalf("record %d = %+v, want op=%s cache=%s code=%q node=%d", i, r, op, cache, code, node)
		}
		if r.TS == "" {
			t.Fatalf("record %d missing timestamp", i)
		}
		if _, err := time.Parse(time.RFC3339Nano, r.TS); err != nil {
			t.Fatalf("record %d timestamp %q: %v", i, r.TS, err)
		}
	}
	assertRec(0, "knn", "miss", "", 0)
	assertRec(1, "knn", "hit", "", 0)
	assertRec(2, "within", "miss", "", 2)
	assertRec(3, "path", "", "", 0)
	assertRec(4, "knn", "miss", "no_such_node", 999)
	if recs[0].K != 1 || recs[0].Pops == 0 || recs[0].Results != 1 {
		t.Fatalf("kNN miss record lacks detail: %+v", recs[0])
	}
	if recs[1].Pops != 0 {
		t.Fatalf("cache-hit record reports pops %d, want 0", recs[1].Pops)
	}
	if recs[2].Radius != 1.0 || recs[2].Attr != 1 {
		t.Fatalf("within record lacks radius/attr: %+v", recs[2])
	}
}

// TestSlowQueryLog checks the -slow-query path: with a threshold every
// query exceeds, each one is logged as a JSON line carrying its trace.
func TestSlowQueryLog(t *testing.T) {
	var buf bytes.Buffer
	db, _, _, _ := buildSquare(t, road.Options{})
	ts := httptest.NewServer(New(db, Options{
		SlowQueryThreshold: time.Nanosecond,
		SlowQueryWriter:    &buf,
	}).Handler())
	defer ts.Close()

	getJSON[QueryResponse](t, ts, "/knn?node=0&k=2", http.StatusOK)

	line := strings.TrimSpace(buf.String())
	if !strings.HasPrefix(line, "slow query: ") {
		t.Fatalf("slow-query output = %q", line)
	}
	var entry struct {
		Op   string    `json:"op"`
		Legs []obs.Leg `json:"legs"`
	}
	if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "slow query: ")), &entry); err != nil {
		t.Fatalf("slow-query line not JSON: %v (%q)", err, line)
	}
	if entry.Op != "knn" || len(entry.Legs) == 0 {
		t.Fatalf("slow-query entry = %+v, want op knn with legs", entry)
	}
}

// buildShardedGrid returns a side×side grid network split into the given
// number of region shards, with objects scattered across it.
func buildShardedGrid(t *testing.T, side, shards int) (*road.ShardedDB, []road.ObjectID) {
	t.Helper()
	b := road.NewNetworkBuilder()
	ids := make([][]road.NodeID, side)
	for i := 0; i < side; i++ {
		ids[i] = make([]road.NodeID, side)
		for j := 0; j < side; j++ {
			ids[i][j] = b.AddNode(float64(i), float64(j))
		}
	}
	var edges []road.EdgeID
	for i := 0; i < side; i++ {
		for j := 0; j < side; j++ {
			if i+1 < side {
				e, err := b.AddRoad(ids[i][j], ids[i+1][j], 1+0.1*float64((i+j)%3))
				if err != nil {
					t.Fatal(err)
				}
				edges = append(edges, e)
			}
			if j+1 < side {
				e, err := b.AddRoad(ids[i][j], ids[i][j+1], 1+0.1*float64((i*j)%3))
				if err != nil {
					t.Fatal(err)
				}
				edges = append(edges, e)
			}
		}
	}
	sdb, err := road.OpenSharded(b, road.Options{Seed: 42}, shards)
	if err != nil {
		t.Fatal(err)
	}
	var objs []road.ObjectID
	for i := 0; i < side; i++ {
		o, err := sdb.AddObject(edges[(i*13)%len(edges)], 0.3, 0)
		if err != nil {
			t.Fatal(err)
		}
		objs = append(objs, o.ID)
	}
	return sdb, objs
}
