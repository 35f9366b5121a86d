package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/pprof"
	"net/url"
	"os"
	"strconv"
	"sync"
	"time"

	"road"
	"road/internal/obs"
	"road/internal/obs/analytics"
	"road/internal/shard/remote"
)

// Options tunes a Server. The zero value serves with a
// DefaultCacheSize-entry result cache and DefaultMaxIdleSessions pooled
// sessions.
type Options struct {
	// CacheSize bounds the LRU result cache in entries
	// (DefaultCacheSize when 0); negative disables result caching.
	CacheSize int
	// MaxIdleSessions bounds the session free list
	// (DefaultMaxIdleSessions when 0).
	MaxIdleSessions int
	// QueryTimeout bounds every read query (kNN, within, path, batch
	// entries): the request context is wrapped in a deadline, the search
	// aborts cooperatively mid-expansion, and the client receives HTTP
	// 503 with a typed error body (code "deadline_exceeded"). Zero
	// disables the bound.
	QueryTimeout time.Duration
	// SnapshotSave, when set, enables POST /admin/snapshot and
	// snapshot-on-shutdown: it is invoked inside the store's Exclusive —
	// readers drained, maintenance excluded — so the image it persists is
	// consistent at exactly one epoch, and returns the number
	// of bytes written (reported in the snapshot acknowledgement). roadd
	// wires this to an atomic write of its -snapshot file(s), followed by
	// journal rotation.
	SnapshotSave func() (int64, error)
	// SlowQueryThreshold, when positive, makes every read query carry a
	// trace (internal/obs) and logs queries at least this slow — with
	// their per-leg timings — to SlowQueryWriter as one JSON line each.
	SlowQueryThreshold time.Duration
	// SlowQueryWriter receives slow-query lines (os.Stderr when nil and
	// SlowQueryThreshold is set).
	SlowQueryWriter io.Writer
	// QueryLog, when non-nil, receives a sampled obs.QueryRecord for
	// every read query served. The server does not close it.
	QueryLog *obs.QueryLog
	// AuxMetrics registries are rendered after the server's own on GET
	// /metrics. roadd's -shard-hosts mode passes the fleet registry here
	// so the road_remote_* families (per-host RPC latency, errors,
	// hedges, up/down) ride the same scrape.
	AuxMetrics []*obs.Registry
	// WorkloadWindow sizes the in-memory rolling window of query records
	// behind GET /admin/workload (DefaultWorkloadWindow when 0); negative
	// disables the endpoint. The window sees every read query — it is
	// independent of the query log and its sampling.
	WorkloadWindow int
	// Pprof mounts net/http/pprof under /debug/pprof/ on the API mux.
	Pprof bool
}

// DefaultWorkloadWindow is the /admin/workload rolling-window size used
// when Options.WorkloadWindow is 0.
const DefaultWorkloadWindow = 4096

// Server serves one road.Store — a single-index road.DB, a sharded
// road.ShardedDB or a road.RemoteDB over shard hosts, the three
// deployment shapes behind the same interface — over HTTP/JSON. Reads
// (kNN, within, path, batch) run concurrently on pooled sessions;
// maintenance implicitly invalidates the result cache by advancing the
// store epoch. Every store locks itself (road.Store), so the server runs
// one code path for all of them: reads and mutations go straight to the
// store, and a read's answer is cached only if the epoch did not move
// while it ran.
type Server struct {
	b        road.Store
	pool     *SessionPool
	cache    *ResultCache          // nil when disabled
	snapshot func() (int64, error) // nil when persistence is not configured
	timeout  time.Duration         // zero = unbounded queries
	start    time.Time

	met    *metrics        // request counters, latency/cost histograms, /metrics registry
	auxMet []*obs.Registry // extra registries appended to /metrics (fleet RPC metrics)

	slowThresh time.Duration // zero = slow-query logging off
	slowW      io.Writer
	slowMu     sync.Mutex
	qlog       *obs.QueryLog     // nil = query logging off
	window     *analytics.Window // nil = /admin/workload disabled
	homes      homeShardProvider // nil on single-index stores
	pprof      bool
}

// homeShardProvider is the optional road.Store extension sharded stores
// implement; query-log records and the workload model use it to
// attribute each query to its home shard.
type homeShardProvider interface {
	HomeShardOf(road.NodeID) int
}

// fleetStatusProvider is the optional road.Store extension a
// remote-fleet store implements; GET /fleet surfaces it.
type fleetStatusProvider interface {
	FleetStatus() remote.FleetStatus
}

// New wires a serving subsystem around any road.Store: an opened
// single-index road.DB, a road.ShardedDB, a road.RemoteDB, or any other
// implementation.
func New(store road.Store, opts Options) *Server {
	s := &Server{
		b:          store,
		pool:       NewSessionPool(store, opts.MaxIdleSessions),
		snapshot:   opts.SnapshotSave,
		timeout:    opts.QueryTimeout,
		start:      time.Now(),
		slowThresh: opts.SlowQueryThreshold,
		slowW:      opts.SlowQueryWriter,
		qlog:       opts.QueryLog,
		auxMet:     opts.AuxMetrics,
		pprof:      opts.Pprof,
	}
	if s.slowThresh > 0 && s.slowW == nil {
		s.slowW = os.Stderr
	}
	if opts.WorkloadWindow >= 0 {
		n := opts.WorkloadWindow
		if n == 0 {
			n = DefaultWorkloadWindow
		}
		s.window = analytics.NewWindow(n)
	}
	s.homes, _ = store.(homeShardProvider)
	if opts.CacheSize >= 0 {
		s.cache = NewResultCache(opts.CacheSize)
	}
	s.met = newMetrics(s)
	return s
}

// Handler returns the HTTP API:
//
//	GET  /knn?node=N&k=K[&attr=A][&budget=B]     k nearest objects
//	GET  /within?node=N&radius=R[&attr=A][&budget=B]
//	                                             objects within distance R
//	GET  /path?node=N&object=O[&attr=A][&budget=B]
//	                                             detailed route
//	POST /batch                                  [{"knn":{...}},...] on one session
//	POST /maintenance/set-distance               {"edge":E,"dist":D}
//	POST /maintenance/close                      {"edge":E}
//	POST /maintenance/reopen                     {"edge":E}
//	POST /maintenance/add-road                   {"u":U,"v":V,"dist":D}
//	POST /maintenance/insert-object              {"edge":E,"offset":F,"attr":A}
//	POST /maintenance/delete-object              {"object":O}
//	POST /maintenance/set-attr                   {"object":O,"attr":A}
//	GET  /stats                                  serving statistics
//	GET  /metrics                                Prometheus text exposition
//	GET  /fleet                                  shard-host fleet summary (remote deployments)
//	GET  /admin/workload[?top=N]                 live workload model over recent queries
//	GET  /healthz                                liveness probe
//
// The read endpoints (/knn, /within, /path) accept &trace=1, which
// bypasses the result cache and returns the query's per-leg trace
// (phase timings and settled-node counts) in the response; on a remote
// deployment each rpc hop nests the host-side legs under sub. With
// Options.Pprof the /debug/pprof/ endpoints are mounted too.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /knn", s.handleKNN)
	mux.HandleFunc("GET /within", s.handleWithin)
	mux.HandleFunc("GET /path", s.handlePath)
	mux.HandleFunc("POST /batch", s.handleBatch)
	mux.HandleFunc("POST /maintenance/set-distance", s.maintenance(s.opSetDistance))
	mux.HandleFunc("POST /maintenance/close", s.maintenance(s.opClose))
	mux.HandleFunc("POST /maintenance/reopen", s.maintenance(s.opReopen))
	mux.HandleFunc("POST /maintenance/add-road", s.maintenance(s.opAddRoad))
	mux.HandleFunc("POST /maintenance/insert-object", s.maintenance(s.opInsertObject))
	mux.HandleFunc("POST /maintenance/delete-object", s.maintenance(s.opDeleteObject))
	mux.HandleFunc("POST /maintenance/set-attr", s.maintenance(s.opSetAttr))
	mux.HandleFunc("POST /admin/snapshot", s.handleSnapshot)
	mux.HandleFunc("GET /admin/workload", s.handleWorkload)
	mux.HandleFunc("GET /fleet", s.handleFleet)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	if s.pprof {
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return mux
}

// handleWorkload serves the live workload model built over the rolling
// window of recent queries — the same shape roadlog emits offline.
// ?top=N bounds the hot-node and repeat-query lists.
func (s *Server) handleWorkload(w http.ResponseWriter, r *http.Request) {
	if s.window == nil {
		s.writeErr(w, http.StatusNotImplemented, "workload window disabled (-workload-window < 0)")
		return
	}
	var cfg analytics.Config
	if raw := r.URL.Query().Get("top"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n < 1 {
			s.writeErr(w, http.StatusBadRequest, "parameter \"top\" must be a positive integer")
			return
		}
		cfg.TopK = n
	}
	s.writeJSON(w, http.StatusOK, s.window.Model(cfg))
}

// handleFleet summarizes the shard-host fleet: per-host health, RPC
// latency percentiles, hedge and re-adoption counters. 404 on
// deployments without remote shard hosts.
func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	fp, ok := s.b.(fleetStatusProvider)
	if !ok {
		s.writeErr(w, http.StatusNotFound, "not a fleet deployment (no shard hosts)")
		return
	}
	s.writeJSON(w, http.StatusOK, fp.FleetStatus())
}

// TakeSnapshot persists the index through the configured SnapshotSave
// callback with the whole store quiesced (road.Store.Exclusive),
// returning the epoch and journal sequence the image captured and the
// number of snapshot bytes written. It is the engine behind
// /admin/snapshot, roadd's snapshot-on-SIGTERM and the
// -journal-max-bytes auto-snapshot trigger.
func (s *Server) TakeSnapshot() (epoch, seq uint64, bytes int64, err error) {
	if s.snapshot == nil {
		return 0, 0, 0, fmt.Errorf("snapshot persistence not configured (start roadd with -snapshot)")
	}
	err = s.b.Exclusive(func() error {
		epoch, seq = s.b.Epoch(), s.b.JournalSeq()
		var serr error
		bytes, serr = s.snapshot()
		return serr
	})
	return epoch, seq, bytes, err
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	epoch, seq, bytes, err := s.TakeSnapshot()
	if err != nil {
		if s.snapshot == nil {
			s.writeErr(w, http.StatusNotImplemented, "%v", err)
		} else {
			s.writeErr(w, http.StatusInternalServerError, "%v", err)
		}
		return
	}
	s.writeJSON(w, http.StatusOK, SnapshotResponse{
		OK:         true,
		Epoch:      epoch,
		JournalSeq: seq,
		Bytes:      bytes,
		ElapsedUS:  time.Since(start).Microseconds(),
	})
}

// writeJSON encodes v by reflection for the cold endpoints. The body is
// encoded before the status goes out, so a value that cannot be encoded
// (a NaN or infinite float) is answered 500 with the error envelope, not
// with the intended status and an empty body.
func (s *Server) writeJSON(w http.ResponseWriter, code int, v any) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		s.writeErr(w, http.StatusInternalServerError, "encoding response: %v", err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(buf.Bytes())
}

func (s *Server) writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	s.met.errors.Inc()
	s.writeJSON(w, code, ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

// writeQueryErr maps a typed query error to its HTTP status and wire code
// — the error-contract half of the v1 API on the wire.
func (s *Server) writeQueryErr(w http.ResponseWriter, err error) {
	s.met.errors.Inc()
	status, code := queryErrStatus(err)
	s.countTimeout(code)
	s.writeJSON(w, status, ErrorResponse{Error: err.Error(), Code: code})
}

// countTimeout feeds /stats requests.timeouts: only genuine deadline
// expiries — not client disconnects or budget stops — count.
func (s *Server) countTimeout(code string) {
	if code == "deadline_exceeded" {
		s.met.timeouts.Inc()
	}
}

// queryErrStatus classifies a typed query error. A canceled query is
// "deadline_exceeded" only when the deadline actually expired; a client
// that went away mid-search is plain "canceled".
func queryErrStatus(err error) (int, string) {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable, "deadline_exceeded"
	case errors.Is(err, road.ErrCanceled):
		return http.StatusServiceUnavailable, "canceled"
	case errors.Is(err, road.ErrBudgetExhausted):
		return http.StatusServiceUnavailable, "budget_exhausted"
	case errors.Is(err, road.ErrShardUnavailable):
		return http.StatusServiceUnavailable, "shard_unavailable"
	case errors.Is(err, road.ErrNoSuchNode):
		return http.StatusNotFound, "no_such_node"
	case errors.Is(err, road.ErrNoSuchObject):
		return http.StatusNotFound, "no_such_object"
	case errors.Is(err, road.ErrInvalidRequest):
		return http.StatusBadRequest, "invalid_request"
	default:
		return http.StatusUnprocessableEntity, "query_failed"
	}
}

func (s *Server) recordStats(st road.Stats) { s.met.record(st) }

// logQuery stamps one query record and submits it to the sampled query
// log and the /admin/workload rolling window (each nil-safe; the window
// sees every query, the log only its sample).
func (s *Server) logQuery(rec obs.QueryRecord) {
	if s.qlog == nil && s.window == nil {
		return
	}
	rec.TS = time.Now().UTC().Format(time.RFC3339Nano)
	s.window.Add(rec)
	s.qlog.Log(rec)
}

// homeOf resolves a query node's home shard, or -1 when the store
// cannot say (single-index deployments).
func (s *Server) homeOf(node road.NodeID) int {
	if s.homes == nil {
		return -1
	}
	return s.homes.HomeShardOf(node)
}

// traceCtx attaches a query trace to ctx when this request needs one:
// the client asked for it (&trace=1) or slow-query logging is on (every
// query carries a trace so an offender's legs can be logged).
func (s *Server) traceCtx(ctx context.Context, wantTrace bool) (context.Context, *obs.Trace) {
	if !wantTrace && s.slowThresh <= 0 {
		return ctx, nil
	}
	return obs.WithTrace(ctx)
}

// wantTrace reports whether the client asked for the per-leg trace.
func wantTrace(q url.Values) bool { return q.Get("trace") == "1" }

// queryCtx derives the context one read query runs under: the client's
// request context (canceled when the client goes away), bounded by the
// configured per-request timeout.
func (s *Server) queryCtx(r *http.Request) (context.Context, context.CancelFunc) {
	if s.timeout <= 0 {
		return r.Context(), func() {}
	}
	return context.WithTimeout(r.Context(), s.timeout)
}

// queryInt parses a required integer query parameter.
func queryInt(q url.Values, name string) (int64, error) {
	raw := q.Get(name)
	if raw == "" {
		return 0, fmt.Errorf("missing parameter %q", name)
	}
	v, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("parameter %q: %v", name, err)
	}
	return v, nil
}

// queryAttr parses the optional attr parameter (default AnyAttr).
func queryAttr(q url.Values) (int32, error) {
	raw := q.Get("attr")
	if raw == "" {
		return road.AnyAttr, nil
	}
	v, err := strconv.ParseInt(raw, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("parameter \"attr\": %v", err)
	}
	return int32(v), nil
}

// queryBudget parses the optional budget parameter (0 = unlimited).
func queryBudget(q url.Values) (int, error) {
	raw := q.Get("budget")
	if raw == "" {
		return 0, nil
	}
	v, err := strconv.ParseInt(raw, 10, 64)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("parameter \"budget\" must be a non-negative integer")
	}
	return int(v), nil
}

func (s *Server) handleKNN(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	node, err := queryInt(q, "node")
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	k, err := queryInt(q, "k")
	if err != nil || k < 1 {
		s.writeErr(w, http.StatusBadRequest, "parameter \"k\" must be a positive integer")
		return
	}
	attr, err := queryAttr(q)
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	budget, err := queryBudget(q)
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.met.requests[epKNN].Inc()
	req := road.KNNRequest{From: road.NodeID(node), K: int(k), Attr: attr, Budget: budget}
	s.serveQuery(w, r, epKNN, KNNKey(req.From, req.K, attr), budget == 0, wantTrace(q),
		func(ctx context.Context, sess road.Querier) ([]road.Result, road.Stats, error) {
			return sess.KNNContext(ctx, req)
		})
}

func (s *Server) handleWithin(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	node, err := queryInt(q, "node")
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	radius, err := strconv.ParseFloat(q.Get("radius"), 64)
	if err != nil || !(radius > 0) || math.IsInf(radius, 1) {
		s.writeErr(w, http.StatusBadRequest, "parameter \"radius\" must be a positive finite number")
		return
	}
	attr, err := queryAttr(q)
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	budget, err := queryBudget(q)
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.met.requests[epWithin].Inc()
	req := road.WithinRequest{From: road.NodeID(node), Radius: radius, Attr: attr, Budget: budget}
	s.serveQuery(w, r, epWithin, WithinKey(req.From, radius, attr), budget == 0, wantTrace(q),
		func(ctx context.Context, sess road.Querier) ([]road.Result, road.Stats, error) {
			return sess.WithinContext(ctx, req)
		})
}

// serveQuery runs one read query: cache probe at the current epoch,
// pooled-session execution on miss, cache fill. cacheable excludes
// budget-limited answers (their truncation point is caller-specific, so
// they must not be shared), and truncated answers are never cached
// either. A mutation may complete mid-query; the answer is still valid
// (the store ran it before or after the mutation), but it is admitted to
// the cache only when the epoch read before the query is still current
// after it.
//
// The answer is encoded once, on the miss that computes it, into the
// `"results":[…],"stats":{…}` fragment the cache keeps; a hit copies
// that fragment between its own request's head and tail.
//
// Trace-carrying requests (&trace=1) bypass the cache entirely — both
// probe and fill — so every leg in the returned trace reflects work this
// request actually performed.
func (s *Server) serveQuery(w http.ResponseWriter, r *http.Request, ep endpoint, key CacheKey, cacheable, traced bool, run func(context.Context, road.Querier) ([]road.Result, road.Stats, error)) {
	start := time.Now()
	ctx, cancel := s.queryCtx(r)
	defer cancel()
	ctx, tr := s.traceCtx(ctx, traced)
	id := obs.NewRequestID()
	tr.SetID(id)
	useCache := cacheable && s.cache != nil && !traced
	cacheOutcome := "bypass"
	epoch := s.b.Epoch()
	var ans CachedAnswer
	var cached, fill bool
	var queryErr, encErr error
	var st road.Stats
	if useCache {
		cacheOutcome = "miss"
		if ans, cached = s.cache.Get(key, epoch); cached {
			cacheOutcome = "hit"
		}
	}
	if !cached {
		sess := s.pool.Get()
		var res []road.Result
		res, st, queryErr = run(ctx, sess)
		s.pool.Put(sess)
		if queryErr == nil {
			s.recordStats(st)
			ans.results = len(res)
			ans.body, encErr = appendAnswer(make([]byte, 0, 96+100*len(res)), res, st)
			fill = useCache && !st.Truncated && encErr == nil
		}
	}
	elapsed := time.Since(start)
	s.met.latency[ep].Observe(elapsed.Seconds())
	rec := obs.QueryRecord{
		ID:         id,
		Op:         endpointNames[ep],
		Node:       int64(key.Node),
		Home:       s.homeOf(key.Node),
		Attr:       key.Attr,
		Shards:     st.ShardsSearched,
		Pops:       st.NodesPopped,
		DurationUS: elapsed.Microseconds(),
		Cache:      cacheOutcome,
		Truncated:  st.Truncated,
	}
	switch key.Kind {
	case 'k':
		rec.K = key.K
	case 'w':
		rec.Radius = math.Float64frombits(key.RadiusBits)
	}
	if queryErr != nil {
		_, rec.Code = queryErrStatus(queryErr)
		s.logQuery(rec)
		s.writeQueryErr(w, queryErr)
		return
	}
	rec.Results = ans.results
	s.logQuery(rec)
	s.logSlow(id, rec.Op, rec.Node, elapsed, st, tr)
	if fill && s.b.Epoch() == epoch {
		s.cache.Put(key, epoch, ans)
	}
	var legs []obs.Leg
	if traced {
		legs = tr.Legs()
	}
	s.encodeAndWrite(w, func(b []byte) ([]byte, error) {
		if encErr != nil {
			return b, encErr
		}
		b = appendQueryHead(b, key.Node, id, epoch, cached)
		b = append(b, ans.body...)
		return appendQueryTail(b, elapsed.Microseconds(), legs)
	})
}

func (s *Server) handlePath(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	node, err := queryInt(q, "node")
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	obj, err := queryInt(q, "object")
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	attr, err := queryAttr(q)
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	budget, err := queryBudget(q)
	if err != nil {
		s.writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.met.requests[epPath].Inc()
	req := road.PathRequest{From: road.NodeID(node), Object: road.ObjectID(obj), Attr: attr, Budget: budget}
	start := time.Now()
	ctx, cancel := s.queryCtx(r)
	defer cancel()
	traced := wantTrace(q)
	ctx, tr := s.traceCtx(ctx, traced)
	id := obs.NewRequestID()
	tr.SetID(id)
	var resp PathResponse
	epoch := s.b.Epoch()
	sess := s.pool.Get()
	p, st, pathErr := sess.PathToContext(ctx, req)
	s.pool.Put(sess)
	if pathErr == nil {
		s.recordStats(st)
		resp = PathResponse{
			Node:   road.NodeID(node),
			Object: road.ObjectID(obj),
			Epoch:  epoch,
			Dist:   p.Dist,
			Path:   p.Nodes,
			Stats:  statsJSON(st),
		}
	}
	elapsed := time.Since(start)
	s.met.latency[epPath].Observe(elapsed.Seconds())
	rec := obs.QueryRecord{
		ID:         id,
		Op:         endpointNames[epPath],
		Node:       node,
		Home:       s.homeOf(road.NodeID(node)),
		Shards:     st.ShardsSearched,
		Pops:       st.NodesPopped,
		DurationUS: elapsed.Microseconds(),
		Truncated:  st.Truncated,
	}
	if pathErr != nil {
		_, rec.Code = queryErrStatus(pathErr)
		s.logQuery(rec)
		s.writeQueryErr(w, pathErr)
		return
	}
	rec.Results = len(resp.Path)
	s.logQuery(rec)
	s.logSlow(id, rec.Op, node, elapsed, st, tr)
	resp.ID = id
	resp.ElapsedUS = elapsed.Microseconds()
	if traced {
		resp.Trace = tr.Legs()
	}
	s.encodeAndWrite(w, func(b []byte) ([]byte, error) { return appendPathResponse(b, &resp) })
}

// handleBatch answers a JSON array of road.Requests on ONE pooled session,
// stamped with the epoch read before the first entry — the HTTP face of
// road.Store.Query.
// Per-entry failures are reported inline (the batch itself is always 200
// once decoded), so a mixed batch never loses its good answers.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var reqs []road.Request
	if err := json.NewDecoder(r.Body).Decode(&reqs); err != nil {
		s.writeErr(w, http.StatusBadRequest, "decoding request body: %v", err)
		return
	}
	if len(reqs) == 0 {
		s.writeErr(w, http.StatusBadRequest, "empty batch")
		return
	}
	s.met.requests[epBatch].Inc()
	start := time.Now()
	ctx, cancel := s.queryCtx(r)
	defer cancel()
	var totalPops, totalShards int
	resp := BatchResponse{Epoch: s.b.Epoch()}
	sess := s.pool.Get()
	answers := road.RunBatch(ctx, sess, reqs)
	s.pool.Put(sess)
	resp.Responses = make([]BatchItemJSON, len(answers))
	for i, a := range answers {
		item := BatchItemJSON{
			Stats: statsJSON(a.Stats),
		}
		if a.Err != nil {
			s.met.errors.Inc()
			_, code := queryErrStatus(a.Err)
			s.countTimeout(code)
			item.Error = a.Err.Error()
			item.Code = code
		} else if reqs[i].Path != nil {
			item.Path = a.Path
			item.Dist = a.Dist
		} else {
			item.Results = resultsJSON(a.Results)
		}
		if item.Results == nil {
			item.Results = []ResultJSON{}
		}
		s.recordStats(a.Stats)
		totalPops += a.Stats.NodesPopped
		totalShards += a.Stats.ShardsSearched
		resp.Responses[i] = item
	}
	elapsed := time.Since(start)
	s.met.latency[epBatch].Observe(elapsed.Seconds())
	// One record for the whole batch: Node is the entry count (a batch has
	// no single origin), Pops/Shards the summed cost.
	s.logQuery(obs.QueryRecord{
		ID:         obs.NewRequestID(),
		Op:         endpointNames[epBatch],
		Node:       int64(len(reqs)),
		Home:       -1,
		Shards:     totalShards,
		Pops:       totalPops,
		Results:    len(resp.Responses),
		DurationUS: elapsed.Microseconds(),
	})
	resp.ElapsedUS = elapsed.Microseconds()
	s.writeJSON(w, http.StatusOK, resp)
}

// maintenance wraps one mutation op in body decoding and the
// acknowledgement envelope; the store locks itself for the mutation and
// validates the IDs it is given.
func (s *Server) maintenance(op func(*MaintenanceRequest, *MaintenanceResponse) error) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var req MaintenanceRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			s.writeErr(w, http.StatusBadRequest, "decoding request body: %v", err)
			return
		}
		s.met.requests[epMaint].Inc()
		start := time.Now()
		defer func() { s.met.latency[epMaint].Observe(time.Since(start).Seconds()) }()
		// IDs start at 0, so "not applicable" needs an explicit -1 marker;
		// each op overwrites the fields it concerns.
		resp := MaintenanceResponse{Edge: road.NoEdge, Object: -1}
		if err := op(&req, &resp); err != nil {
			s.writeErr(w, http.StatusUnprocessableEntity, "%v", err)
			return
		}
		resp.OK = true
		resp.Epoch = s.b.Epoch()
		s.encodeAndWrite(w, func(b []byte) ([]byte, error) { return appendMaintenanceResponse(b, &resp), nil })
	}
}

func (s *Server) opSetDistance(req *MaintenanceRequest, resp *MaintenanceResponse) error {
	if !(req.Dist > 0) {
		return fmt.Errorf("dist must be positive")
	}
	resp.Edge = req.Edge
	return s.b.SetRoadDistance(req.Edge, req.Dist)
}

func (s *Server) opClose(req *MaintenanceRequest, resp *MaintenanceResponse) error {
	resp.Edge = req.Edge
	return s.b.CloseRoad(req.Edge)
}

func (s *Server) opReopen(req *MaintenanceRequest, resp *MaintenanceResponse) error {
	resp.Edge = req.Edge
	return s.b.ReopenRoad(req.Edge)
}

func (s *Server) opAddRoad(req *MaintenanceRequest, resp *MaintenanceResponse) error {
	if !(req.Dist > 0) {
		return fmt.Errorf("dist must be positive")
	}
	e, err := s.b.AddRoad(req.U, req.V, req.Dist)
	resp.Edge = e
	return err
}

func (s *Server) opInsertObject(req *MaintenanceRequest, resp *MaintenanceResponse) error {
	resp.Edge = req.Edge
	o, err := s.b.AddObject(req.Edge, req.Offset, req.Attr)
	resp.Object = o.ID
	return err
}

func (s *Server) opDeleteObject(req *MaintenanceRequest, resp *MaintenanceResponse) error {
	resp.Object = req.Object
	return s.b.RemoveObject(req.Object)
}

func (s *Server) opSetAttr(req *MaintenanceRequest, resp *MaintenanceResponse) error {
	resp.Object = req.Object
	return s.b.SetObjectAttr(req.Object, req.Attr)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	var resp StatsResponse
	resp.Epoch = s.b.Epoch()
	resp.Network.Nodes = s.b.NumNodes()
	resp.Network.Edges = s.b.NumRoads()
	resp.Network.Objects = s.b.NumObjects()
	resp.Network.IndexKB = s.b.IndexSizeBytes() / 1024
	if sp, ok := s.b.(shardInfoProvider); ok {
		resp.Shards = sp.ShardInfos()
	}
	resp.UptimeSeconds = time.Since(s.start).Seconds()
	resp.Requests.KNN = s.met.requests[epKNN].Value()
	resp.Requests.Within = s.met.requests[epWithin].Value()
	resp.Requests.Path = s.met.requests[epPath].Value()
	resp.Requests.Batch = s.met.requests[epBatch].Value()
	resp.Requests.Maintenance = s.met.requests[epMaint].Value()
	resp.Requests.Errors = s.met.errors.Value()
	resp.Requests.Timeouts = s.met.timeouts.Value()
	resp.Traversal.NodesPopped = int64(s.met.nodesPopped.Value())
	resp.Traversal.RnetsBypassed = int64(s.met.rnetsBypassed.Value())
	resp.Traversal.RnetsDescended = int64(s.met.rnetsDescended.Value())
	resp.Traversal.ShardsSearched = int64(s.met.shardsSearched.Value())
	resp.Traversal.IOReads = int64(s.met.ioReads.Value())
	resp.Traversal.IOFaults = int64(s.met.ioFaults.Value())
	if s.cache != nil {
		resp.Cache = s.cache.Stats()
	}
	resp.Pool = s.pool.Stats()
	s.writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, map[string]any{"ok": true, "epoch": s.b.Epoch()})
}
