package remote

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"road/internal/apierr"
	"road/internal/graph"
	"road/internal/obs"
	"road/internal/shard"
	"road/internal/snapshot"
)

// Per-call timeout tiers. Reads are bounded tightly (queries have their
// own budgets and contexts on top); applies allow for derived-state
// repair on big shards; state exports ship whole identity maps.
const (
	readTimeout   = 15 * time.Second
	applyTimeout  = 60 * time.Second
	stateTimeout  = 120 * time.Second
	healthTimeout = 2 * time.Second
	snapTimeout   = 300 * time.Second
)

// Hedging policy: duplicate a straggler read once its latency passes the
// observed p99, clamped to sane bounds, and only once the histogram has
// enough samples to mean anything.
const (
	hedgeQuantile   = 0.99
	hedgeMinDelay   = time.Millisecond
	hedgeMaxDelay   = 2 * time.Second
	hedgeMinSamples = 64
)

// Read retry policy: transport errors only (op errors are final), with
// short backoff — the health checker handles sustained outages.
var readBackoff = [...]time.Duration{25 * time.Millisecond, 100 * time.Millisecond}

// rpcHistBounds bucket RPC wall times (seconds).
var rpcHistBounds = []float64{
	0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5,
}

// clientMetrics is the road_remote_* family shared by a fleet's clients.
type clientMetrics struct {
	reg       *obs.Registry
	mu        sync.Mutex
	hists     map[string]*obs.Histogram
	errs      map[string]*obs.Counter
	hedges    *obs.Counter
	hedgeWins *obs.Counter
	readopts  *obs.Counter
}

func newClientMetrics(reg *obs.Registry) *clientMetrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &clientMetrics{
		reg:   reg,
		hists: make(map[string]*obs.Histogram),
		errs:  make(map[string]*obs.Counter),
		hedges: reg.Counter("road_remote_hedges_total", "",
			"Hedge requests launched for straggler reads."),
		hedgeWins: reg.Counter("road_remote_hedge_wins_total", "",
			"Hedge requests that answered before the primary."),
		readopts: reg.Counter("road_remote_readopts_total", "",
			"Recovered hosts re-adopted into the fleet."),
	}
}

func hostLabel(host string) string { return fmt.Sprintf("host=%q", host) }

func (m *clientMetrics) rpcHist(host string) *obs.Histogram {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.hists[host]
	if !ok {
		//roadvet:ignore memoized per-host family: registered once per host ever seen, and Registry dedupes by name+labels
		h = m.reg.Histogram("road_remote_rpc_seconds", hostLabel(host),
			"Shard RPC wall time (successful exchanges).", rpcHistBounds)
		m.hists[host] = h
	}
	return h
}

func (m *clientMetrics) errCounter(host string) *obs.Counter {
	m.mu.Lock()
	defer m.mu.Unlock()
	c, ok := m.errs[host]
	if !ok {
		//roadvet:ignore memoized per-host family: registered once per host ever seen, and Registry dedupes by name+labels
		c = m.reg.Counter("road_remote_errors_total", hostLabel(host),
			"Shard RPC transport failures.")
		m.errs[host] = c
	}
	return c
}

// HostClient is the router-side handle onto one shard host: a pooled
// HTTP client with per-call timeouts, bounded retry on idempotent reads,
// hedged duplicates for straggler reads, and the down-marker the fleet's
// health checker flips.
type HostClient struct {
	addr string // host:port, as dialed (trace/metric identity)
	base string // http://addr
	hc   *http.Client
	hist *obs.Histogram
	errs *obs.Counter
	m    *clientMetrics
	down atomic.Bool
}

// NewHostClient builds a client for one host address ("host:port").
func NewHostClient(addr string, m *clientMetrics) *HostClient {
	if m == nil {
		m = newClientMetrics(nil)
	}
	return &HostClient{
		addr: addr,
		base: "http://" + addr,
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 32,
			IdleConnTimeout:     90 * time.Second,
		}},
		hist: m.rpcHist(addr),
		errs: m.errCounter(addr),
		m:    m,
	}
}

// Addr returns the host address the client dials.
func (c *HostClient) Addr() string { return c.addr }

// Down reports whether the health checker has marked the host down.
func (c *HostClient) Down() bool { return c.down.Load() }

func (c *HostClient) unavailable(err error) error {
	return fmt.Errorf("%w: host %s: %v", apierr.ErrShardUnavailable, c.addr, err)
}

type callOpts struct {
	timeout time.Duration
	// read marks idempotent calls: eligible for retry and hedging.
	read bool
	// force bypasses the down-marker (health probes, recovery state
	// fetches — the paths that decide whether the host is back).
	force bool
}

// roundTrip is one HTTP exchange: no retry, no hedging, no down check.
// A transport-level failure (network error, non-200, undecodable body)
// returns an error; an op error inside the envelope does not.
func (c *HostClient) roundTrip(ctx context.Context, method, path string, body []byte, timeout time.Duration) (envelope, time.Duration, error) {
	rctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(rctx, method, c.base+path, rd)
	if err != nil {
		return envelope{}, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if tr := obs.FromContext(ctx); tr != nil {
		id := tr.ID()
		if id == "" {
			id = "1"
		}
		req.Header.Set(TraceHeader, id)
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return envelope{}, time.Since(start), err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	dur := time.Since(start)
	if err != nil {
		return envelope{}, dur, err
	}
	if resp.StatusCode != http.StatusOK {
		return envelope{}, dur, fmt.Errorf("%s %s: HTTP %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return envelope{}, dur, fmt.Errorf("%s %s: decoding envelope: %w", method, path, err)
	}
	return env, dur, nil
}

// hedgedTrip runs one exchange with a hedged duplicate: if the primary
// has not answered after the host's observed p99, a second identical
// request launches and the first answer wins (the loser is canceled via
// the shared context when hedgedTrip returns).
func (c *HostClient) hedgedTrip(ctx context.Context, method, path string, body []byte, timeout time.Duration) (envelope, time.Duration, error) {
	delay, ok := c.hedgeDelay()
	if !ok {
		return c.roundTrip(ctx, method, path, body, timeout)
	}
	hctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type result struct {
		env   envelope
		dur   time.Duration
		err   error
		hedge bool
	}
	ch := make(chan result, 2)
	launch := func(hedge bool) {
		go func() {
			env, dur, err := c.roundTrip(hctx, method, path, body, timeout)
			ch <- result{env, dur, err, hedge}
		}()
	}
	launch(false)
	timer := time.NewTimer(delay)
	defer timer.Stop()
	inflight := 1
	hedged := false
	var firstErr result
	for {
		select {
		case res := <-ch:
			if res.err == nil {
				if res.hedge {
					c.m.hedgeWins.Inc()
				}
				return res.env, res.dur, nil
			}
			inflight--
			if firstErr.err == nil {
				firstErr = res
			}
			if inflight == 0 {
				return firstErr.env, firstErr.dur, firstErr.err
			}
		case <-timer.C:
			if !hedged {
				hedged = true
				inflight++
				c.m.hedges.Inc()
				launch(true)
			}
		}
	}
}

// hedgeDelay derives the hedge trigger from the host's RPC latency
// histogram: the p99, clamped to [1ms, 2s], once at least 64 successful
// exchanges have been observed.
func (c *HostClient) hedgeDelay() (time.Duration, bool) {
	if c.hist.Count() < hedgeMinSamples {
		return 0, false
	}
	d := time.Duration(c.hist.Quantile(hedgeQuantile) * float64(time.Second))
	if d < hedgeMinDelay {
		d = hedgeMinDelay
	}
	if d > hedgeMaxDelay {
		d = hedgeMaxDelay
	}
	return d, true
}

// call is the full client policy: fail fast when the host is marked
// down, hedge and retry idempotent reads on transport errors, record
// latency and error metrics, and wrap terminal transport failures in
// apierr.ErrShardUnavailable.
func (c *HostClient) call(ctx context.Context, method, path string, body []byte, opt callOpts) (envelope, time.Duration, error) {
	// The search layers drop never-canceled contexts from core.Limits so
	// the in-process hot loop skips polling; the per-call timeout below
	// still needs a parent.
	if ctx == nil {
		//roadvet:ignore nil means an unlimited core.Limits query: there is no caller context to sever, only a per-call timeout to anchor
		ctx = context.Background()
	}
	if !opt.force && c.down.Load() {
		return envelope{}, 0, c.unavailable(fmt.Errorf("marked down"))
	}
	attempts := 1
	if opt.read {
		attempts = 1 + len(readBackoff)
	}
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return envelope{}, 0, fmt.Errorf("%w: %w", apierr.ErrCanceled, ctx.Err())
			case <-time.After(readBackoff[attempt-1]):
			}
		}
		var env envelope
		var dur time.Duration
		var err error
		if opt.read {
			env, dur, err = c.hedgedTrip(ctx, method, path, body, opt.timeout)
		} else {
			env, dur, err = c.roundTrip(ctx, method, path, body, opt.timeout)
		}
		if err == nil {
			c.hist.Observe(dur.Seconds())
			return env, dur, nil
		}
		c.errs.Inc()
		lastErr = err
		// The caller's own cancellation is not the host's fault: surface
		// it as a cancellation, not an unavailable host, and stop.
		if ctx.Err() != nil {
			return envelope{}, dur, fmt.Errorf("%w: %w", apierr.ErrCanceled, ctx.Err())
		}
	}
	return envelope{}, 0, c.unavailable(lastErr)
}

// rpcInfo carries a call's timing split (and, when the call was traced,
// the host-side legs) for trace stitching.
type rpcInfo struct {
	wallUS    int64
	computeUS int64
	legs      []obs.Leg
}

func info(dur time.Duration, env envelope) rpcInfo {
	return rpcInfo{wallUS: dur.Microseconds(), computeUS: env.ComputeUS, legs: env.Legs}
}

// decodeEnvelope unmarshals the typed response (when present) and
// decodes the op error (when present). Both may be set: budget and
// cancellation errors ship their valid partial result.
func decodeEnvelope(env envelope, resp any) error {
	if env.Resp != nil && resp != nil {
		if err := json.Unmarshal(env.Resp, resp); err != nil {
			return err
		}
	}
	if env.Err != "" {
		return decodeErr(env.Err, env.Msg)
	}
	return nil
}

// Search runs one framework search on shard id.
func (c *HostClient) Search(ctx context.Context, id int, req shard.SearchReq) (shard.SearchResp, rpcInfo, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return shard.SearchResp{}, rpcInfo{}, err
	}
	env, dur, err := c.call(ctx, http.MethodPost, fmt.Sprintf("/shard/%d/search", id), body, callOpts{timeout: readTimeout, read: true})
	if err != nil {
		return shard.SearchResp{}, info(dur, env), err
	}
	var resp shard.SearchResp
	return resp, info(dur, env), decodeEnvelope(env, &resp)
}

// Leg runs one route leg on shard id (see shard.Searcher.Leg).
func (c *HostClient) Leg(ctx context.Context, id int, req shard.LegReq) (shard.LegResp, rpcInfo, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return shard.LegResp{}, rpcInfo{}, err
	}
	env, dur, err := c.call(ctx, http.MethodPost, fmt.Sprintf("/shard/%d/leg", id), body, callOpts{timeout: readTimeout, read: true})
	if err != nil {
		return shard.LegResp{}, info(dur, env), err
	}
	var resp shard.LegResp
	derr := decodeEnvelope(env, &resp)
	decLegResp(&resp)
	return resp, info(dur, env), derr
}

// Apply ships one journal-encoded op to shard id. Not idempotent: no
// retry, no hedging — a transport failure leaves the op's fate unknown
// until the health loop re-adopts the host and reconciles.
func (c *HostClient) Apply(ctx context.Context, id int, op snapshot.Op) (shard.ApplyReply, error) {
	body, err := json.Marshal(op)
	if err != nil {
		return shard.ApplyReply{}, err
	}
	env, _, err := c.call(ctx, http.MethodPost, fmt.Sprintf("/shard/%d/apply", id), body, callOpts{timeout: applyTimeout})
	if err != nil {
		return shard.ApplyReply{}, err
	}
	var rep shard.ApplyReply
	if err := decodeEnvelope(env, &rep); err != nil {
		return shard.ApplyReply{}, err
	}
	return rep, nil
}

// Object fetches one object of shard id by shard-local ID.
func (c *HostClient) Object(ctx context.Context, id int, lo graph.ObjectID) (graph.Object, bool, error) {
	env, _, err := c.call(ctx, http.MethodGet, fmt.Sprintf("/shard/%d/object/%d", id, lo), nil, callOpts{timeout: readTimeout, read: true})
	if err != nil {
		return graph.Object{}, false, err
	}
	var resp objectResponse
	if err := decodeEnvelope(env, &resp); err != nil {
		return graph.Object{}, false, err
	}
	return resp.Object, resp.OK, nil
}

// State fetches shard id's exported state (force: it is the recovery
// path's first call while the host is still marked down).
func (c *HostClient) State(ctx context.Context, id int) (*shard.ShardState, error) {
	env, _, err := c.call(ctx, http.MethodGet, fmt.Sprintf("/state/%d", id), nil, callOpts{timeout: stateTimeout, force: true})
	if err != nil {
		return nil, err
	}
	st := &shard.ShardState{}
	if err := decodeEnvelope(env, st); err != nil {
		return nil, err
	}
	return st, nil
}

// Health probes the host directly (no retry, no hedging, no metrics —
// probe latencies must not feed the hedge quantile) and reports the
// shards it serves.
func (c *HostClient) Health(ctx context.Context) (healthResponse, error) {
	rctx, cancel := context.WithTimeout(ctx, healthTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(rctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return healthResponse{}, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return healthResponse{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return healthResponse{}, fmt.Errorf("healthz: HTTP %d", resp.StatusCode)
	}
	var hr healthResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		return healthResponse{}, err
	}
	return hr, nil
}

// Snapshot asks the host to snapshot every shard it serves and rotate
// the journals.
func (c *HostClient) Snapshot(ctx context.Context) error {
	env, _, err := c.call(ctx, http.MethodPost, "/admin/snapshot", nil, callOpts{timeout: snapTimeout})
	if err != nil {
		return err
	}
	return decodeEnvelope(env, nil)
}
