package server

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"road"
	"road/internal/obs"
)

// The referee for encode.go: every append encoder must write exactly the
// bytes json.NewEncoder(&buf).Encode writes for the same wire struct.

func encodeJSON(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatalf("encoding/json: %v", err)
	}
	return buf.Bytes()
}

// encodeQuery encodes r the way serveQuery does: head, the answer
// fragment built from the store's result type, tail.
func encodeQuery(r *QueryResponse) ([]byte, error) {
	var res []road.Result
	if r.Results != nil {
		res = make([]road.Result, len(r.Results))
	}
	for i, x := range r.Results {
		res[i] = road.Result{Object: road.Object{ID: x.Object, Edge: x.Edge, Attr: x.Attr, DU: x.Offset}, Dist: x.Dist}
	}
	st := road.Stats{
		NodesPopped:    r.Stats.NodesPopped,
		RnetsBypassed:  r.Stats.RnetsBypassed,
		RnetsDescended: r.Stats.RnetsDescended,
		ShardsSearched: r.Stats.ShardsSearched,
		Truncated:      r.Stats.Truncated,
	}
	answer, err := appendAnswer(nil, res, st)
	if err != nil {
		return nil, err
	}
	b := appendQueryHead(nil, r.Node, r.ID, r.Epoch, r.Cached)
	b = append(b, answer...)
	return appendQueryTail(b, r.ElapsedUS, r.Trace)
}

// checkEncoders holds all three encoders to encoding/json on one set of
// responses. The handlers always sent a nil result list as [], so the
// reference encodes q with that substitution.
func checkEncoders(t *testing.T, q QueryResponse, p PathResponse, m MaintenanceResponse) {
	t.Helper()
	want := q
	if want.Results == nil {
		want.Results = []ResultJSON{}
	}
	var ref bytes.Buffer
	refErr := json.NewEncoder(&ref).Encode(want)
	got, err := encodeQuery(&q)
	switch {
	case (err != nil) != (refErr != nil):
		t.Fatalf("query: encoder error %v, encoding/json error %v", err, refErr)
	case err == nil && !bytes.Equal(got, ref.Bytes()):
		t.Fatalf("query encoding differs:\n got  %s\n want %s", got, ref.Bytes())
	}

	ref.Reset()
	refErr = json.NewEncoder(&ref).Encode(p)
	got, err = appendPathResponse(nil, &p)
	switch {
	case (err != nil) != (refErr != nil):
		t.Fatalf("path: encoder error %v, encoding/json error %v", err, refErr)
	case err == nil && !bytes.Equal(got, ref.Bytes()):
		t.Fatalf("path encoding differs:\n got  %s\n want %s", got, ref.Bytes())
	}

	if got, want := appendMaintenanceResponse(nil, &m), encodeJSON(t, m); !bytes.Equal(got, want) {
		t.Fatalf("maintenance encoding differs:\n got  %s\n want %s", got, want)
	}
}

var refereeFloats = []float64{
	0, math.Copysign(0, -1), 5e-324, 1e-7, 1e-6, 9.999999e-7, 1e21, 9.99e20,
	math.MaxFloat64, -math.MaxFloat64, 0.1, 1.5, -2.25, 123456.789, 1e-300, 3e-5,
}

var refereeIDs = []string{
	"", "3fa9c1d2-000042", `q"u\o<t>e&`, "tab\tnl\ncr\rbs\bff\f", "\x00\x01\x1f\x7f",
	"bad utf8 \xff\xfe", "sep\u2028line\u2029para", "ünïcødé ✓",
}

func refereeTrace(host string) []obs.Leg {
	return []obs.Leg{
		{Name: obs.LegSearch, Shard: -1, DurationUS: 12, Pops: 40},
		{Name: obs.LegRPC, Shard: 1, DurationUS: 90, Host: host, WireUS: 30,
			Sub: []obs.Leg{{Name: obs.LegHostSearch, Shard: 1, DurationUS: 50, Pops: 7}}},
	}
}

func TestResponseEncodingMatchesEncodingJSON(t *testing.T) {
	// Every float edge case in each float field, with negative attrs.
	for _, f := range refereeFloats {
		q := QueryResponse{Node: 3, ID: "3fa9c1d2-000042", Epoch: 9, Results: []ResultJSON{
			{Object: 1, Edge: 2, Attr: -1, Offset: f, Dist: f},
			{Object: -4, Edge: 0, Attr: math.MinInt32, Offset: -f, Dist: 2 * f},
		}}
		p := PathResponse{Node: -1, Object: 5, Dist: f, Path: []road.NodeID{0, -3, 7}}
		checkEncoders(t, q, p, MaintenanceResponse{OK: true, Epoch: 1, Edge: -1, Object: -1})
	}
	// Strings: every escape class, in the ID and in traced legs' hosts.
	for _, id := range refereeIDs {
		q := QueryResponse{Node: 1, ID: id, Cached: true, Trace: refereeTrace(id)}
		p := PathResponse{ID: id, Trace: refereeTrace(id)}
		checkEncoders(t, q, p, MaintenanceResponse{})
	}
	// nil and empty answers and paths ("path":null vs []), empty traces.
	for _, q := range []QueryResponse{{}, {Results: []ResultJSON{}}, {Trace: []obs.Leg{}}} {
		for _, p := range []PathResponse{{}, {Path: []road.NodeID{}}, {Trace: []obs.Leg{}}} {
			checkEncoders(t, q, p, MaintenanceResponse{})
		}
	}
	// Every StatsJSON omitempty combination.
	for mask := 0; mask < 1<<2; mask++ {
		st := StatsJSON{NodesPopped: 10, RnetsBypassed: -2, RnetsDescended: 3}
		if mask&1 != 0 {
			st.ShardsSearched = 4
		}
		if mask&2 != 0 {
			st.Truncated = true
		}
		checkEncoders(t, QueryResponse{Stats: st}, PathResponse{Stats: st}, MaintenanceResponse{})
	}
	// A random sweep over whole responses.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		q, p, m := randomResponses(rng)
		checkEncoders(t, q, p, m)
	}
}

// randomFloat draws mostly finite values — an answer with one NaN is
// only an error check — from the table, the subnormals, all finite bit
// patterns and decimal scales.
func randomFloat(rng *rand.Rand) float64 {
	switch r := rng.Intn(64); {
	case r == 0:
		return math.Float64frombits(rng.Uint64() | 0x7ff<<52) // Inf or NaN
	case r < 16:
		return refereeFloats[rng.Intn(len(refereeFloats))]
	case r < 32:
		return math.Float64frombits(rng.Uint64() &^ (0x7ff << 52)) // subnormal
	case r < 48:
		if f := math.Float64frombits(rng.Uint64()); !math.IsInf(f, 0) && !math.IsNaN(f) {
			return f
		}
		return 1
	default:
		return (rng.Float64() - 0.5) * math.Pow(10, float64(rng.Intn(60)-30))
	}
}

func randomResponses(rng *rand.Rand) (QueryResponse, PathResponse, MaintenanceResponse) {
	st := StatsJSON{
		NodesPopped: rng.Intn(1000), RnetsBypassed: rng.Intn(50), RnetsDescended: rng.Intn(50),
		ShardsSearched: rng.Intn(3), Truncated: rng.Intn(2) == 0,
	}
	q := QueryResponse{
		Node: rng.Int31() - rng.Int31(), ID: refereeIDs[rng.Intn(len(refereeIDs))],
		Epoch: rng.Uint64(), Cached: rng.Intn(2) == 0, Stats: st, ElapsedUS: rng.Int63() - rng.Int63(),
	}
	if n := rng.Intn(6) - 1; n >= 0 {
		q.Results = make([]ResultJSON, n)
		for i := range q.Results {
			q.Results[i] = ResultJSON{Object: rng.Int31() - rng.Int31(), Edge: rng.Int31(), Attr: rng.Int31() - rng.Int31(),
				Offset: randomFloat(rng), Dist: randomFloat(rng)}
		}
	}
	p := PathResponse{Node: q.Node, ID: q.ID, Object: rng.Int31(), Epoch: q.Epoch, Dist: randomFloat(rng),
		Stats: st, ElapsedUS: q.ElapsedUS}
	if n := rng.Intn(6) - 1; n >= 0 {
		p.Path = make([]road.NodeID, n)
		for i := range p.Path {
			p.Path[i] = rng.Int31() - rng.Int31()
		}
	}
	if rng.Intn(8) == 0 {
		q.Trace = refereeTrace(q.ID)
		p.Trace = q.Trace
	}
	m := MaintenanceResponse{OK: rng.Intn(2) == 0, Epoch: rng.Uint64(), Edge: rng.Int31() - rng.Int31(), Object: rng.Int31() - rng.Int31()}
	return q, p, m
}

// FuzzResponseEncoding searches beyond the referee's table: two floats
// and a string drive every float and string field of the three responses.
func FuzzResponseEncoding(f *testing.F) {
	f.Add(int32(3), "3fa9c1d2-000042", uint64(7), uint8(0), int64(120), int32(-1), 0.5, 1e-7, uint8(2))
	f.Fuzz(func(t *testing.T, node int32, id string, epoch uint64, flags uint8, count int64, attr int32, x, y float64, n uint8) {
		st := StatsJSON{NodesPopped: int(count), RnetsBypassed: int(count >> 8), RnetsDescended: int(count >> 16),
			ShardsSearched: int(flags & 3), Truncated: flags&4 != 0}
		q := QueryResponse{Node: node, ID: id, Epoch: epoch, Cached: flags&8 != 0, Stats: st, ElapsedUS: count}
		p := PathResponse{Node: node, ID: id, Object: attr, Epoch: epoch, Dist: x, Stats: st, ElapsedUS: count}
		if flags&16 == 0 {
			q.Results = []ResultJSON{}
			p.Path = []road.NodeID{}
		}
		for i := 0; i < int(n%8); i++ {
			q.Results = append(q.Results, ResultJSON{Object: node + int32(i), Edge: int32(i), Attr: attr, Offset: y * float64(i), Dist: x + y*float64(i)})
			p.Path = append(p.Path, node-int32(i))
		}
		if flags&32 != 0 {
			q.Trace = refereeTrace(id)
			p.Trace = q.Trace
		}
		checkEncoders(t, q, p, MaintenanceResponse{OK: flags&64 != 0, Epoch: epoch, Edge: node, Object: attr})
	})
}

// A value encoding/json cannot carry is a 500 with the error envelope,
// never a 200 with an empty body — on the reflective path (writeJSON)
// and on the append encoders' (encodeAndWrite).
func TestNonFiniteAnswerIs500(t *testing.T) {
	db, _, _, _ := buildSquare(t, road.Options{})
	s := New(db, Options{})
	check := func(name string, rec *httptest.ResponseRecorder) {
		t.Helper()
		if rec.Code != http.StatusInternalServerError {
			t.Fatalf("%s: status %d, want 500 (body %q)", name, rec.Code, rec.Body.String())
		}
		var env ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error == "" {
			t.Fatalf("%s: body %q is not an error envelope (%v)", name, rec.Body.String(), err)
		}
	}

	rec := httptest.NewRecorder()
	s.writeJSON(rec, http.StatusOK, struct{ X float64 }{math.Inf(1)})
	check("writeJSON", rec)

	_, err := appendAnswer(nil, []road.Result{{Dist: math.Inf(1)}}, road.Stats{})
	if err == nil {
		t.Fatal("appendAnswer accepted an infinite distance")
	}
	rec = httptest.NewRecorder()
	s.encodeAndWrite(rec, func(b []byte) ([]byte, error) {
		return appendAnswer(b, []road.Result{{Dist: math.Inf(1)}}, road.Stats{})
	})
	check("encodeAndWrite", rec)
}

// volatileFields matches the members a hit may legitimately differ from
// its miss in.
var volatileFields = regexp.MustCompile(`"(id|cached|elapsed_us)":("[^"]*"|true|false|\d+)`)

func serveGet(t testing.TB, h http.Handler, path string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, rec.Code, rec.Body.String())
	}
	return rec.Body.Bytes()
}

func TestCachedHitMatchesMiss(t *testing.T) {
	db, _, _, e01 := buildSquare(t, road.Options{})
	h := New(db, Options{}).Handler()
	decode := func(body []byte) QueryResponse {
		var q QueryResponse
		if err := json.Unmarshal(body, &q); err != nil {
			t.Fatalf("decoding %q: %v", body, err)
		}
		return q
	}
	for _, path := range []string{"/knn?node=0&k=2", "/within?node=0&radius=3"} {
		miss := serveGet(t, h, path)
		hit := serveGet(t, h, path)
		if m, h := decode(miss), decode(hit); m.Cached || !h.Cached || m.Epoch != h.Epoch || m.ID == h.ID {
			t.Fatalf("%s: miss cached=%v epoch=%d id=%s, hit cached=%v epoch=%d id=%s",
				path, m.Cached, m.Epoch, m.ID, h.Cached, h.Epoch, h.ID)
		}
		if a, b := volatileFields.ReplaceAll(miss, nil), volatileFields.ReplaceAll(hit, nil); !bytes.Equal(a, b) {
			t.Fatalf("%s: hit body differs from miss:\n miss %s\n hit  %s", path, miss, hit)
		}
	}

	// A mutation moves the epoch: the next request misses and refills.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/maintenance/set-distance",
		strings.NewReader(`{"edge":`+strconv.Itoa(int(e01))+`,"dist":3}`)))
	if rec.Code != http.StatusOK {
		t.Fatalf("set-distance: %d %s", rec.Code, rec.Body.String())
	}
	var ack MaintenanceResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &ack); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/knn?node=0&k=2", "/within?node=0&radius=3"} {
		miss, hit := decode(serveGet(t, h, path)), decode(serveGet(t, h, path))
		if miss.Cached || miss.Epoch != ack.Epoch {
			t.Fatalf("%s after mutation: cached=%v epoch=%d, want a miss at epoch %d", path, miss.Cached, miss.Epoch, ack.Epoch)
		}
		if !hit.Cached || hit.Epoch != ack.Epoch {
			t.Fatalf("%s after mutation: repeat cached=%v epoch=%d, want a hit at epoch %d", path, hit.Cached, hit.Epoch, ack.Epoch)
		}
	}
}

// TestConcurrentHitsKeepTheirBodies serves a few queries from several
// goroutines at once: every body, built in a pooled buffer around a
// shared cached fragment, must equal the serial answer of its query.
func TestConcurrentHitsKeepTheirBodies(t *testing.T) {
	db, _, _, _ := buildSquare(t, road.Options{StorePaths: true})
	h := New(db, Options{}).Handler()
	paths := []string{"/knn?node=0&k=1", "/knn?node=1&k=2", "/knn?node=2&k=2",
		"/within?node=0&radius=1", "/within?node=3&radius=3", "/path?node=2&object=0"}
	want := make(map[string][]byte, len(paths))
	for _, p := range paths {
		want[p] = volatileFields.ReplaceAll(serveGet(t, h, p), nil)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				p := paths[(g+i)%len(paths)]
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, p, nil))
				if got := volatileFields.ReplaceAll(rec.Body.Bytes(), nil); rec.Code != http.StatusOK || !bytes.Equal(got, want[p]) {
					t.Errorf("%s: status %d body %s, want %s", p, rec.Code, got, want[p])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestServeHitAllocs bounds what a cache hit allocates through the whole
// handler, net of building the request and the recorder.
func TestServeHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	db, _, _, _ := buildSquare(t, road.Options{})
	h := New(db, Options{}).Handler()
	for _, path := range []string{"/knn?node=0&k=2", "/within?node=0&radius=3"} {
		serveGet(t, h, path) // fill
		base := testing.AllocsPerRun(200, func() {
			_ = httptest.NewRecorder()
			_ = httptest.NewRequest(http.MethodGet, path, nil)
		})
		total := testing.AllocsPerRun(200, func() {
			h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, path, nil))
		})
		if got := total - base; got > 17 {
			t.Errorf("%s: a cache hit allocates %.0f times (%.0f with the request and recorder), want ≤ 17", path, got, total)
		}
	}
}

// BenchmarkServeHit and BenchmarkServeMiss time one /knn request through
// the handler on a cache hit and on a miss (cache disabled).
func BenchmarkServeHit(b *testing.B) {
	benchmarkServe(b, Options{})
}

func BenchmarkServeMiss(b *testing.B) {
	benchmarkServe(b, Options{CacheSize: -1})
}

func benchmarkServe(b *testing.B, opts Options) {
	db, _, _, _ := buildSquare(b, road.Options{})
	h := New(db, opts).Handler()
	req := httptest.NewRequest(http.MethodGet, "/knn?node=0&k=2", nil)
	serveGet(b, h, "/knn?node=0&k=2")
	b.ReportAllocs()
	for b.Loop() {
		h.ServeHTTP(httptest.NewRecorder(), req)
	}
}
