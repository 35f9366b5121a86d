package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"road"
	"road/internal/core"
	"road/internal/graph"
	"road/internal/obs"
	"road/internal/server"
)

// The ledger is the traced run: a seeded sample of the workload's own
// stream is driven single-threaded through every seam of the workload's
// stack, bottom to top, on the same query ids, and every call is recorded
// as a span. Nothing inside the program under test is instrumented; the
// spans are taken here, around the calls into each layer's public
// functions.

// span is one timed call into one seam.
type span struct {
	Name   string `json:"name"`             // "<layer>.<op>"
	ID     int    `json:"id"`               // query id, shared by the spans of every seam for that query
	Parent string `json:"parent,omitempty"` // the seam above: its span with the same id is the parent
	Start  int64  `json:"start_ns"`         // since the ledger started
	End    int64  `json:"end_ns"`
	Pops   int    `json:"pops,omitempty"`   // settled nodes (store seams)
	Shards int    `json:"shards,omitempty"` // shards searched (router seams)
	Bytes  int    `json:"bytes,omitempty"`  // response body bytes (server, socket)
	Cached bool   `json:"cached,omitempty"` // answered from the result cache (server, socket)
}

// spanInfo is what a seam call reports besides its duration.
type spanInfo struct {
	pops, shards, bytes int
	cached              bool
}

// ledgerQuery is one sampled request.
type ledgerQuery struct {
	id     int
	kind   opKind
	node   road.NodeID
	object road.ObjectID
	mut    mutation
}

// seam is one layer boundary. prepare builds everything a call needs that
// is the harness's own cost (request objects, recorders) and returns the
// call to time.
type seam struct {
	layer   string
	prepare func(w *workload, q ledgerQuery) func() (spanInfo, error)
}

// ledgerSample draws the ledger's queries from the workload's own
// distributions: reads in the mix's proportions, mutations (writer
// workloads only) as set-distance restore-pairs.
func ledgerSample(w *workload, seed int64, g *graph.Graph, sz sizes) []ledgerQuery {
	src := newReadSource(w, seed, numClients, g.NumNodes()) // the stream of a client that never ran
	var out []ledgerQuery
	reads, paths := 0, 0
	if w.Mix[2] == 0 {
		paths = sz.ledgerPaths
	}
	for reads < sz.ledgerReads || paths < sz.ledgerPaths {
		kind, node, object := src.draw()
		if kind == opPath {
			if paths >= sz.ledgerPaths {
				continue
			}
			paths++
		} else {
			if reads >= sz.ledgerReads {
				continue
			}
			reads++
		}
		out = append(out, ledgerQuery{id: len(out), kind: kind, node: node, object: object})
	}
	if w.Writer {
		for _, m := range newMutationSource(seed*1000+700, g, nil, 0, setDistancePairs).take(sz.ledgerMuts) {
			out = append(out, ledgerQuery{id: len(out), kind: opMut, mut: m})
		}
	}
	return out
}

// coreSeam times core.Session and the Framework mutators directly.
func coreSeam(f *core.Framework) seam {
	sess := f.NewSession()
	return seam{layer: "core", prepare: func(w *workload, q ledgerQuery) func() (spanInfo, error) {
		cq := core.Query{Node: q.node}
		switch q.kind {
		case opKNN:
			return func() (spanInfo, error) {
				_, st, err := sess.KNNLimited(cq, w.K, 0, core.Limits{})
				return spanInfo{pops: st.NodesPopped}, err
			}
		case opWithin:
			return func() (spanInfo, error) {
				_, st, err := sess.RangeLimited(cq, w.Radius, core.Limits{})
				return spanInfo{pops: st.NodesPopped}, err
			}
		case opPath:
			return func() (spanInfo, error) {
				_, _, st, err := sess.PathToLimited(cq, q.object, core.Limits{})
				return spanInfo{pops: st.NodesPopped}, err
			}
		default:
			return func() (spanInfo, error) {
				_, err := f.SetEdgeWeight(q.mut.Edge, q.mut.Dist)
				f.WarmTrees()
				return spanInfo{}, err
			}
		}
	}}
}

// storeSeam times a road.Querier's *Context calls and its store's
// mutator plus WarmAfterMutation: the road, shard and remote layers.
func storeSeam(layer string, st road.Store) seam {
	ctx := context.Background()
	sess := st.OpenSession()
	return seam{layer: layer, prepare: func(w *workload, q ledgerQuery) func() (spanInfo, error) {
		switch q.kind {
		case opKNN:
			req := road.NewKNN(q.node, w.K)
			return func() (spanInfo, error) {
				_, st, err := sess.KNNContext(ctx, req)
				return spanInfo{pops: st.NodesPopped, shards: st.ShardsSearched}, err
			}
		case opWithin:
			req := road.NewWithin(q.node, w.Radius)
			return func() (spanInfo, error) {
				_, st, err := sess.WithinContext(ctx, req)
				return spanInfo{pops: st.NodesPopped, shards: st.ShardsSearched}, err
			}
		case opPath:
			req := road.NewPath(q.node, q.object)
			return func() (spanInfo, error) {
				_, st, err := sess.PathToContext(ctx, req)
				return spanInfo{pops: st.NodesPopped, shards: st.ShardsSearched}, err
			}
		default:
			return func() (spanInfo, error) {
				err := st.SetRoadDistance(q.mut.Edge, q.mut.Dist)
				st.WarmAfterMutation()
				return spanInfo{}, err
			}
		}
	}}
}

var cachedKey = []byte(`"cached":true`)

// message builds the raw HTTP request of a ledger query.
func message(w *workload, q ledgerQuery) []byte {
	var s stream
	if q.kind == opMut {
		s.pushMutation(q.mut)
	} else {
		s.pushRead(w, q.kind, q.node, q.object)
	}
	return s.arena
}

// serverSeamRequest parses a raw message the way the server's connection
// loop would, so the handler gets the request it gets over the socket.
func serverSeamRequest(msg []byte) (*http.Request, error) {
	return http.ReadRequest(bufio.NewReader(bytes.NewReader(msg)))
}

// serverSeam times Handler().ServeHTTP into an httptest.ResponseRecorder:
// the whole serving layer, without a socket.
func serverSeam(h http.Handler) seam {
	return seam{layer: "server", prepare: func(w *workload, q ledgerQuery) func() (spanInfo, error) {
		req, err := serverSeamRequest(message(w, q))
		if err != nil {
			return func() (spanInfo, error) { return spanInfo{}, err }
		}
		rec := httptest.NewRecorder()
		return func() (spanInfo, error) {
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				return spanInfo{}, fmt.Errorf("HTTP %d: %s", rec.Code, strings.TrimSpace(rec.Body.String()))
			}
			body := rec.Body.Bytes()
			return spanInfo{bytes: len(body), cached: bytes.Contains(body, cachedKey)}, nil
		}
	}}
}

// socketSeam times the same request over a loopback connection.
func socketSeam(c *conn) seam {
	return seam{layer: "socket", prepare: func(w *workload, q ledgerQuery) func() (spanInfo, error) {
		msg := message(w, q)
		return func() (spanInfo, error) {
			status, body, err := c.roundTrip(msg)
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("HTTP %d: %s", status, bytes.TrimSpace(body))
			}
			return spanInfo{bytes: len(body), cached: bytes.Contains(body, cachedKey)}, err
		}
	}}
}

// seamCost is the allocation bill of one seam's loop over one op kind.
type seamCost struct {
	calls         int
	mallocs, heap uint64
}

// ledger holds one traced run.
type ledger struct {
	spans  []span
	cost   map[string]seamCost // by span name
	failed int
	first  error
}

// runLedger drives the sample through the seams: for each op kind, seam
// by seam from the bottom, every query of that kind in id order.
func runLedger(w *workload, seams []seam, sample []ledgerQuery) *ledger {
	l := &ledger{cost: map[string]seamCost{}}
	origin := time.Now()
	var before, after runtime.MemStats
	for kind := opKNN; kind < numOps; kind++ {
		var qs []ledgerQuery
		for _, q := range sample {
			if q.kind == kind {
				qs = append(qs, q)
			}
		}
		if len(qs) == 0 {
			continue
		}
		for i, sm := range seams {
			name := sm.layer + "." + opNames[kind]
			parent := ""
			if i+1 < len(seams) {
				parent = seams[i+1].layer + "." + opNames[kind]
			}
			calls := make([]func() (spanInfo, error), len(qs))
			for j, q := range qs {
				calls[j] = sm.prepare(w, q)
			}
			l.spans = slices.Grow(l.spans, len(qs)) // no harness allocation between the two ReadMemStats
			runtime.ReadMemStats(&before)
			for j, call := range calls {
				t0 := time.Now()
				info, err := call()
				t1 := time.Now()
				if err != nil {
					l.failed++
					if l.first == nil {
						l.first = fmt.Errorf("ledger %s id %d: %w", name, qs[j].id, err)
					}
					continue
				}
				l.spans = append(l.spans, span{
					Name: name, ID: qs[j].id, Parent: parent,
					Start: int64(t0.Sub(origin)), End: int64(t1.Sub(origin)),
					Pops: info.pops, Shards: info.shards, Bytes: info.bytes, Cached: info.cached,
				})
			}
			runtime.ReadMemStats(&after)
			l.cost[name] = seamCost{calls: len(calls), mallocs: after.Mallocs - before.Mallocs, heap: after.TotalAlloc - before.TotalAlloc}
		}
	}
	return l
}

// durations returns the sorted span durations, in microseconds, of one
// "<layer>.<op>" that keep returns true for.
func (l *ledger) durations(name string, keep func(span) bool) []float64 {
	var out []float64
	for _, s := range l.spans {
		if s.Name == name && (keep == nil || keep(s)) {
			out = append(out, float64(s.End-s.Start)/1e3)
		}
	}
	sort.Float64s(out)
	return out
}

func (l *ledger) p50(name string) float64 { return obs.Percentile(l.durations(name, nil), 0.50) }

// mean of one span field over a "<layer>.<op>".
func (l *ledger) mean(name string, field func(span) int) float64 {
	sum, n := 0, 0
	for _, s := range l.spans {
		if s.Name == name {
			sum += field(s)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n)
}

// metrics turns the spans into the per-layer metrics of the seams that
// ran. A layer's self time is, query by query, its span minus the span of
// the seam beneath it for the same id, and the metric is the median of
// those differences. A server span answered from the result cache never
// reached the store beneath, so all of it is the server's own.
func (l *ledger) metrics(seams []seam, m metricSet) {
	byID := map[string]map[int]span{}
	for _, s := range l.spans {
		if byID[s.Name] == nil {
			byID[s.Name] = map[int]span{}
		}
		byID[s.Name][s.ID] = s
	}
	for _, op := range opNames {
		var beneath map[int]span
		for _, sm := range seams {
			name := sm.layer + "." + op
			d := l.durations(name, nil)
			if len(d) == 0 {
				continue
			}
			selfs := make([]float64, 0, len(d))
			for id, s := range byID[name] {
				self := s.End - s.Start
				if child, ok := beneath[id]; ok && !(sm.layer == "server" && s.Cached) {
					self -= child.End - child.Start
				}
				selfs = append(selfs, float64(self)/1e3)
			}
			cost := l.cost[name]
			set := func(suffix string, v float64) {
				if key := name + "_" + suffix; hasMetric(perLayer, key) {
					m.put(perLayer, key, v, len(d))
				}
			}
			set("p50_us", obs.Percentile(d, 0.50))
			set("p99_us", obs.Percentile(d, 0.99))
			set("self_us", median(selfs))
			set("allocs_op", float64(cost.mallocs)/float64(cost.calls))
			set("bytes_op", float64(cost.heap)/float64(cost.calls))
			set("pops_op", l.mean(name, func(s span) int { return s.Pops }))
			beneath = byID[name]
		}
	}
}

func hasMetric(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.Name == name {
			return true
		}
	}
	return false
}

// writeTrace writes the spans as JSON lines after one header line.
func (l *ledger) writeTrace(path string, header any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	err = enc.Encode(map[string]any{"header": header})
	for i := 0; i < len(l.spans) && err == nil; i++ {
		err = enc.Encode(l.spans[i])
	}
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// ledgerRun owns what the ledger adds to a served stack: two fresh server
// instances over the served store, one called directly and one behind its
// own listener, so that the server and socket seams each see the sample
// exactly once and from the same cache state.
type ledgerRun struct {
	w          *workload
	seams      []seam // bottom to top
	sample     []ledgerQuery
	ln         *listener
	conn       *conn
	healthz    int
	healthzP50 float64
}

// newLedgerRun assembles the workload's seams. The store seams beneath a
// sharded or remote store run on the replica, which holds the same
// logical network. reads supplies the cacheable requests that pre-warm
// the two fresh result caches (workload.LedgerPrewarm).
func newLedgerRun(w *workload, o runOptions, st *stack, rep *replica, g *graph.Graph, reads *stream) (*ledgerRun, error) {
	lr := &ledgerRun{w: w, sample: ledgerSample(w, o.seed, g, o.sz), healthz: o.sz.healthz}
	switch w.Store {
	case storeMono:
		lr.seams = []seam{coreSeam(st.db.Framework()), storeSeam("road", st.db)}
	case storeSharded:
		lr.seams = []seam{coreSeam(rep.db.Framework()), storeSeam("road", rep.db), storeSeam("shard", st.sharded)}
	case storeFleet:
		if err := rep.addShardSeam(w); err != nil {
			return nil, err
		}
		lr.seams = []seam{coreSeam(rep.db.Framework()), storeSeam("road", rep.db), storeSeam("shard", rep.sharded), storeSeam("remote", st.remote)}
	}
	var err error
	if lr.ln, err = serve(server.New(st.store, server.Options{}).Handler()); err != nil {
		return nil, err
	}
	if lr.conn, err = dial(lr.ln.addr()); err != nil {
		lr.close()
		return nil, err
	}
	top := []seam{serverSeam(server.New(st.store, server.Options{}).Handler()), socketSeam(lr.conn)}
	lr.seams = append(lr.seams, top...)
	for i, warmed := 0, 0; warmed < w.LedgerPrewarm && i < len(reads.ops); i++ {
		o := reads.ops[i]
		if o.kind != opKNN && o.kind != opWithin {
			continue
		}
		warmed++
		for _, sm := range top {
			if _, err := sm.prepare(w, ledgerQuery{kind: o.kind, node: o.node})(); err != nil {
				lr.close()
				return nil, fmt.Errorf("ledger pre-warm: %w", err)
			}
		}
	}
	return lr, nil
}

// run drives the sample through the seams, then prices the empty handler
// over the socket.
func (lr *ledgerRun) run() *ledger {
	l := runLedger(lr.w, lr.seams, lr.sample)
	msg := []byte("GET /healthz" + httpTail)
	lat := make([]float64, 0, lr.healthz)
	for i := 0; i < lr.healthz; i++ {
		t0 := time.Now()
		if status, _, err := lr.conn.roundTrip(msg); err != nil || status != http.StatusOK {
			l.failed++
			continue
		}
		lat = append(lat, micros(time.Since(t0)))
	}
	lr.healthzP50 = median(lat)
	return l
}

func (lr *ledgerRun) close() {
	if lr.conn != nil {
		lr.conn.close()
	}
	lr.ln.stop()
}
