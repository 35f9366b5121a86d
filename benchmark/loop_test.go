package main

import (
	"bytes"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// flightRecorder is a server that knows how many requests it is handling
// at once.
type flightRecorder struct {
	inFlight, peak atomic.Int32
	served         atomic.Int32
	held           sync.WaitGroup // released once both clients are inside a request
	once           sync.Once
	failEvery      int32
}

func (f *flightRecorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	now := f.inFlight.Add(1)
	defer f.inFlight.Add(-1)
	for {
		peak := f.peak.Load()
		if now <= peak || f.peak.CompareAndSwap(peak, now) {
			break
		}
	}
	// The first two requests wait for each other: if the loop really keeps
	// one request per client in flight, both arrive; if it did not, this
	// would hang and the test's deadline would say so.
	if n := f.served.Add(1); n <= numClients {
		f.held.Done()
		f.held.Wait()
	} else if f.failEvery > 0 && n%f.failEvery == 0 {
		http.Error(w, `{"error":"injected","code":"query_failed"}`, http.StatusUnprocessableEntity)
		return
	}
	w.Write([]byte(`{"node":1,"cached":false,"results":[{"object":1,"dist":1.5},{"object":2,"dist":2.5}]}`))
}

func testStreams(t *testing.T, n int) []*stream {
	t.Helper()
	w := &workloads[1] // ca_serve: knn and within only
	streams := make([]*stream, numClients)
	for c := range streams {
		streams[c] = buildStream(w, 1, c, 1000, n, nil)
	}
	return streams
}

func TestClosedLoopKeepsOneRequestPerClientInFlight(t *testing.T) {
	rec := &flightRecorder{failEvery: 7}
	rec.held.Add(numClients)
	ln, err := serve(rec)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.stop()
	conns := make([]*conn, numClients)
	for i := range conns {
		if conns[i], err = dial(ln.addr()); err != nil {
			t.Fatal(err)
		}
		defer conns[i].close()
	}

	res := runPhase(conns, testStreams(t, 4096), checker(&workloads[1]), 300*time.Millisecond)

	if peak := rec.peak.Load(); peak != numClients {
		t.Errorf("peak requests in flight = %d, want exactly %d", peak, numClients)
	}
	if res.attempted != int(rec.served.Load()) {
		t.Errorf("clients attempted %d requests, server saw %d", res.attempted, rec.served.Load())
	}
	if res.failed == 0 {
		t.Fatal("no request failed; the test server should have failed every 7th")
	}
	// A failed request has no latency sample.
	if len(res.samples) != res.attempted-res.failed {
		t.Errorf("%d latency samples for %d attempted - %d failed", len(res.samples), res.attempted, res.failed)
	}
	if !strings.Contains(res.firstErr, "HTTP 422") {
		t.Errorf("first error %q does not name the typed error response", res.firstErr)
	}
	if res.busy > res.clientTime || res.wall > 2*time.Second {
		t.Errorf("busy %v, client time %v, wall %v", res.busy, res.clientTime, res.wall)
	}
}

func TestInlineChecks(t *testing.T) {
	w := &workloads[1]
	check := checker(w)
	cases := []struct {
		name string
		op   op
		body string
		ok   bool
	}{
		{"knn ascending", op{kind: opKNN}, `{"results":[{"dist":1},{"dist":1},{"dist":2.5e0}]}`, true},
		{"knn empty", op{kind: opKNN}, `{"results":[]}`, true},
		{"knn descending", op{kind: opKNN}, `{"results":[{"dist":2},{"dist":1}]}`, false},
		{"knn too many", op{kind: opKNN}, `{"results":[` + strings.Repeat(`{"dist":1},`, w.K) + `{"dist":1}]}`, false},
		{"within inside", op{kind: opWithin}, `{"results":[{"dist":29.9}]}`, true},
		{"within beyond radius", op{kind: opWithin}, `{"results":[{"dist":30.5}]}`, false},
		{"path from node", op{kind: opPath, node: 17}, `{"dist":3,"path":[17,4,9]}`, true},
		{"path from elsewhere", op{kind: opPath, node: 17}, `{"dist":3,"path":[4,9]}`, false},
		{"path missing", op{kind: opPath, node: 17}, `{"dist":3}`, false},
		{"mutation ok", op{kind: opMut, node: -1}, `{"ok":true,"epoch":3,"edge":5,"object":-1}`, true},
		{"mutation refused", op{kind: opMut, node: -1}, `{"error":"no"}`, false},
		{"insert predicted id", op{kind: opMut, node: 2000}, `{"ok":true,"epoch":3,"edge":5,"object":2000}`, true},
		{"insert other id", op{kind: opMut, node: 2000}, `{"ok":true,"epoch":3,"edge":5,"object":2001}`, false},
	}
	for _, c := range cases {
		if err := check(c.op, []byte(c.body)); (err == nil) != c.ok {
			t.Errorf("%s: check returned %v", c.name, err)
		}
	}
}

func TestRawRequestsParse(t *testing.T) {
	// Every pre-built message must be a request net/http accepts, with the
	// body length it announces.
	s := &stream{}
	w := &workloads[2]
	s.pushRead(w, opKNN, 5, 0)
	s.pushRead(w, opWithin, 6, 0)
	s.pushRead(w, opPath, 7, 8)
	s.pushMutation(mutation{Kind: mutSetDistance, Edge: 3, Dist: 1.25})
	s.pushMutation(mutation{Kind: mutInsertObject, Edge: 3, Offset: 0.5, Object: 2000})
	wantURL := []string{"/knn?node=5&k=10", "/within?node=6&radius=30", "/path?node=7&object=8", "/maintenance/set-distance", "/maintenance/insert-object"}
	for i, o := range s.ops {
		req, err := serverSeamRequest(s.request(o))
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
		if req.URL.RequestURI() != wantURL[i] {
			t.Errorf("op %d: URL %q, want %q", i, req.URL.RequestURI(), wantURL[i])
		}
		var body bytes.Buffer
		body.ReadFrom(req.Body)
		if int64(body.Len()) != req.ContentLength {
			t.Errorf("op %d: body of %d bytes, Content-Length %d", i, body.Len(), req.ContentLength)
		}
	}
}
