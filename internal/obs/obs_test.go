package obs

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func TestRegistryExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("road_requests_total", `endpoint="knn"`, "Requests served.")
	c.Add(3)
	r.Counter("road_requests_total", `endpoint="within"`, "Requests served.").Inc()
	r.Gauge("road_epoch", "", "Store epoch.", func() float64 { return 7 })
	h := r.Histogram("road_latency_seconds", "", "Latency.", []float64{0.001, 0.01})
	h.Observe(0.0005)
	h.Observe(0.0005)
	h.Observe(0.005)
	h.Observe(5)
	r.CollectorVec("road_shard_queries_total", "counter", "Per-shard queries.", func() []Sample {
		return []Sample{
			{Labels: `shard="0"`, Value: 2},
			{Labels: `shard="1"`, Value: 5},
		}
	})

	var sb strings.Builder
	if err := r.Write(&sb); err != nil {
		t.Fatal(err)
	}
	got := sb.String()
	want := `# HELP road_requests_total Requests served.
# TYPE road_requests_total counter
road_requests_total{endpoint="knn"} 3
road_requests_total{endpoint="within"} 1
# HELP road_epoch Store epoch.
# TYPE road_epoch gauge
road_epoch 7
# HELP road_latency_seconds Latency.
# TYPE road_latency_seconds histogram
road_latency_seconds_bucket{le="0.001"} 2
road_latency_seconds_bucket{le="0.01"} 3
road_latency_seconds_bucket{le="+Inf"} 4
road_latency_seconds_sum 5.006
road_latency_seconds_count 4
# HELP road_shard_queries_total Per-shard queries.
# TYPE road_shard_queries_total counter
road_shard_queries_total{shard="0"} 2
road_shard_queries_total{shard="1"} 5
`
	if got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}

func TestRegistryExpositionWellFormed(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "", "A.").Add(1)
	r.Histogram("b_seconds", `op="x"`, "B.", []float64{1, 2}).Observe(1.5)
	var sb strings.Builder
	if err := r.Write(&sb); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) < 4 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				t.Errorf("malformed comment line: %q", line)
			}
			continue
		}
		// Every sample line is "name[{labels}] value".
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed sample line: %q", line)
		}
		series, val := line[:i], line[i+1:]
		if series == "" || val == "" {
			t.Errorf("malformed sample line: %q", line)
		}
		if open := strings.IndexByte(series, '{'); open >= 0 && !strings.HasSuffix(series, "}") {
			t.Errorf("unbalanced label braces: %q", line)
		}
	}
}

func TestHistogramBucketEdges(t *testing.T) {
	h := NewHistogram([]float64{1, 10})
	h.Observe(1) // le="1" is inclusive
	h.Observe(10)
	h.Observe(11)
	if got := h.counts[0].Load(); got != 1 {
		t.Errorf("bucket le=1: got %d, want 1", got)
	}
	if got := h.counts[1].Load(); got != 1 {
		t.Errorf("bucket le=10: got %d, want 1", got)
	}
	if got := h.counts[2].Load(); got != 1 {
		t.Errorf("bucket +Inf: got %d, want 1", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	// 100 samples 1..100: p99 must be 99, p50 must be 50.
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	if got := Percentile(vals, 0.99); got != 99 {
		t.Errorf("p99 of 1..100: got %v, want 99", got)
	}
	if got := Percentile(vals, 0.50); got != 50 {
		t.Errorf("p50 of 1..100: got %v, want 50", got)
	}
	if got := Percentile(vals, 1.0); got != 100 {
		t.Errorf("p100 of 1..100: got %v, want 100", got)
	}

	// The small-sample case the floored index understated: with 10
	// samples, the old int(p*(n-1)) gave index 8 for p99 (the 9th
	// value); nearest-rank requires the 10th.
	small := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := Percentile(small, 0.99); got != 10 {
		t.Errorf("p99 of 10 samples: got %v, want 10", got)
	}
	if got := Percentile(small, 0.95); got != 10 {
		t.Errorf("p95 of 10 samples: got %v, want 10", got)
	}
	if got := Percentile(nil, 0.99); got != 0 {
		t.Errorf("p99 of empty: got %v, want 0", got)
	}
}

func TestTraceLegs(t *testing.T) {
	ctx, tr := WithTrace(context.Background())
	if FromContext(ctx) != tr {
		t.Fatal("FromContext did not return the attached trace")
	}
	done := tr.StartLeg("home_fast", 2)
	done(17)
	legs := tr.Legs()
	if len(legs) != 1 {
		t.Fatalf("got %d legs, want 1", len(legs))
	}
	if legs[0].Name != "home_fast" || legs[0].Shard != 2 || legs[0].Pops != 17 {
		t.Errorf("unexpected leg: %+v", legs[0])
	}
	if legs[0].DurationUS < 0 {
		t.Errorf("negative duration: %+v", legs[0])
	}

	// Nil trace: everything is a no-op.
	var nilTr *Trace
	nilTr.StartLeg("x", 0)(1)
	if got := nilTr.Legs(); got != nil {
		t.Errorf("nil trace legs: got %v", got)
	}
	if FromContext(context.Background()) != nil {
		t.Error("FromContext on bare context: want nil")
	}
}

func TestQueryLogSampling(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.jsonl")
	l, err := OpenQueryLog(path, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 9; i++ {
		l.Log(QueryRecord{Op: "knn", Node: int64(i)})
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 3 {
		t.Fatalf("sample=3 over 9 queries: got %d lines, want 3\n%s", len(lines), data)
	}
	for _, ln := range lines {
		if !strings.Contains(ln, `"op":"knn"`) {
			t.Errorf("unexpected line: %s", ln)
		}
	}
}

func TestQueryLogRotation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.jsonl")
	l, err := OpenQueryLog(path, 1, 256)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		l.Log(QueryRecord{TS: "2026-08-07T00:00:00Z", Op: "within", Node: int64(i), Radius: 123.5})
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() > 256 {
		t.Errorf("live file %d bytes, want <= 256", st.Size())
	}
	if _, err := os.Stat(path + ".1"); err != nil {
		t.Errorf("rotated file missing: %v", err)
	}
	// Every line in both files must be valid JSONL.
	for _, p := range []string{path, path + ".1"} {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, ln := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			if !strings.HasPrefix(ln, "{") || !strings.HasSuffix(ln, "}") {
				t.Errorf("%s: malformed line %q", p, ln)
			}
		}
	}
}

func TestTraceSubLegsAndID(t *testing.T) {
	_, tr := WithTrace(context.Background())
	tr.SetID("abc-000001")
	if tr.ID() != "abc-000001" {
		t.Errorf("ID = %q, want abc-000001", tr.ID())
	}
	tr.Add(Leg{
		Name: "rpc", Shard: 1, DurationUS: 100, WireUS: 40,
		Sub: []Leg{
			{Name: "host_queue", Shard: 1, DurationUS: 5},
			{Name: "host_search", Shard: 1, DurationUS: 55, Pops: 9},
		},
	})
	legs := tr.Legs()
	if len(legs) != 1 || len(legs[0].Sub) != 2 {
		t.Fatalf("legs = %+v, want one rpc leg with two sub legs", legs)
	}
	// Sub legs must survive a JSON round trip (the wire path).
	data, err := json.Marshal(legs)
	if err != nil {
		t.Fatal(err)
	}
	var back []Leg
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back[0].Sub[1].Name != "host_search" || back[0].Sub[1].Pops != 9 {
		t.Errorf("round-tripped sub leg = %+v", back[0].Sub[1])
	}

	// Nil safety.
	var nilTr *Trace
	nilTr.SetID("x")
	if nilTr.ID() != "" {
		t.Error("nil trace must report an empty ID")
	}
}

func TestNewRequestIDUnique(t *testing.T) {
	seen := make(map[string]bool)
	for i := 0; i < 1000; i++ {
		id := NewRequestID()
		if seen[id] {
			t.Fatalf("duplicate request ID %q", id)
		}
		seen[id] = true
		if len(id) < 10 || !strings.Contains(id, "-") {
			t.Fatalf("malformed request ID %q", id)
		}
	}
}

// TestNewRequestIDFormat pins the ID layout: prefix, dash, and the
// counter in lower-case hex padded to six digits (wider once it grows).
func TestNewRequestIDFormat(t *testing.T) {
	for _, next := range []uint64{1, 0x42, 0xfffff, 0xffffff, 0x1000000, 1 << 40} {
		ridSeq.Store(next - 1) // ends at 1<<40, past every ID issued before
		if got, want := NewRequestID(), fmt.Sprintf("%s-%06x", ridPrefix, next); got != want {
			t.Errorf("request ID %d = %q, want %q", next, got, want)
		}
	}
}

// TestQueryLogConcurrentRotation hammers a tiny-rotation log from many
// goroutines and then verifies no line in either segment was torn or
// lost: rotation is serialized against writes under the log's mutex.
func TestQueryLogConcurrentRotation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.jsonl")
	l, err := OpenQueryLog(path, 1, 512)
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				l.Log(QueryRecord{
					TS: "2026-08-07T00:00:00.000000000Z", Op: "knn",
					Node: int64(w*perWriter + i), K: 8, DurationUS: 123,
				})
			}
		}(w)
	}
	wg.Wait()
	st := l.Stats()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if st.Seen != writers*perWriter {
		t.Errorf("seen = %d, want %d", st.Seen, writers*perWriter)
	}
	if st.Rotations == 0 {
		t.Error("no rotations happened; shrink the max size")
	}
	if st.Dropped != 0 {
		t.Errorf("dropped = %d, want 0", st.Dropped)
	}

	// Count the surviving lines across both segments; every one must be
	// complete valid JSON. Lines rotated out of .1 are gone by design,
	// but nothing the final two segments hold may be torn.
	var lines int
	for _, p := range []string{path + ".1", path} {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, ln := range strings.Split(strings.TrimSpace(string(data)), "\n") {
			if ln == "" {
				continue
			}
			var rec QueryRecord
			if err := json.Unmarshal([]byte(ln), &rec); err != nil {
				t.Fatalf("%s: torn line %q: %v", p, ln, err)
			}
			if rec.Op != "knn" {
				t.Fatalf("%s: wrong record %+v", p, rec)
			}
			lines++
		}
	}
	if lines == 0 {
		t.Error("no lines survived")
	}
}

func TestQueryLogStats(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.jsonl")
	l, err := OpenQueryLog(path, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		l.Log(QueryRecord{Op: "knn", Node: int64(i)})
	}
	st := l.Stats()
	l.Close()
	if st.Seen != 10 || st.Rotations != 0 || st.Dropped != 0 {
		t.Errorf("stats = %+v, want seen=10 rotations=0 dropped=0", st)
	}
	var nilLog *QueryLog
	if nilLog.Stats() != (QueryLogStats{}) {
		t.Error("nil log stats must be zero")
	}
}

func TestQueryLogAppendsAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.jsonl")
	for i := 0; i < 2; i++ {
		l, err := OpenQueryLog(path, 1, 0)
		if err != nil {
			t.Fatal(err)
		}
		l.Log(QueryRecord{Op: "path", Node: int64(i)})
		l.Close()
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(data), "\n"); n != 2 {
		t.Errorf("got %d lines after reopen, want 2", n)
	}
}
