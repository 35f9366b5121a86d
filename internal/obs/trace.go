package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// A LegName identifies one timed phase of a query. The Leg* constants
// below are the complete vocabulary: dashboards, the query-log analyzer
// and cross-process joins all key on these strings, so a new phase means
// a new constant here — roadvet's obsnames analyzer rejects ad-hoc
// literals elsewhere.
type LegName string

// The trace-leg vocabulary.
const (
	// LegSearch is the single-index (unsharded) search.
	LegSearch LegName = "search"
	// LegHomeFast is the sharded fast path: the watched home-shard
	// search under the home shard's read lock.
	LegHomeFast LegName = "home_fast"
	// LegHomeLocked is an escalated query's home re-run under the
	// whole-router read view, taken only when the home shard's epoch
	// moved since the fast path.
	LegHomeLocked LegName = "home_locked"
	// LegHomeWatched is the watched search of each home shard of a query
	// node that is itself a border (several home shards).
	LegHomeWatched LegName = "home_watched"
	// LegGateway is the cross-shard Dijkstra over border tables.
	LegGateway LegName = "gateway"
	// LegEnter is one foreign shard's entry search.
	LegEnter LegName = "enter"
	// LegPathLeg is one shard-local segment of path assembly.
	LegPathLeg LegName = "path_leg"
	// LegRPC is one client-side RPC hop to a shard host.
	LegRPC LegName = "rpc"
	// LegHostQueue is host-side time between accept and search start.
	LegHostQueue LegName = "host_queue"
	// LegHostSearch is a host-side shard search.
	LegHostSearch LegName = "host_search"
	// LegHostLeg is a host-side path-leg computation.
	LegHostLeg LegName = "host_leg"
	// LegHostJournal is a host-side journal append.
	LegHostJournal LegName = "host_journal"
	// LegHostApply is a host-side op apply.
	LegHostApply LegName = "host_apply"
)

// A Leg is one timed phase of a query: the single-index search, the
// sharded fast path, an escalated home re-run, the gateway Dijkstra
// over border tables, or one per-shard entry/path leg. Legs are
// recorded in completion order.
type Leg struct {
	// Name identifies the phase, from the LegName vocabulary above.
	Name LegName `json:"name"`
	// Shard is the shard the leg ran on, or -1 for phases that are not
	// shard-local (the single-index search, the gateway run).
	Shard int `json:"shard"`
	// DurationUS is the leg's wall time in microseconds.
	DurationUS int64 `json:"duration_us"`
	// Pops is the number of heap pops (settled nodes) the leg cost.
	Pops int `json:"pops"`
	// Host names the shard host an RPC leg talked to; empty for
	// in-process legs.
	Host string `json:"host,omitempty"`
	// WireUS is the part of an RPC leg's duration NOT spent computing on
	// the host — serialization, network and queueing — so cross-process
	// latency is attributable separately from shard compute time.
	WireUS int64 `json:"wire_us,omitempty"`
	// Sub holds legs recorded inside this one on another process: a
	// shard host returns its own timing legs with each traced RPC and
	// the client nests them here, under the rpc hop that carried them.
	Sub []Leg `json:"sub,omitempty"`
}

// A Trace accumulates per-leg timings for one query. It is carried
// through the search layers via context (WithTrace / FromContext); a
// nil *Trace is valid and records nothing, so call sites need no nil
// checks.
type Trace struct {
	mu   sync.Mutex
	id   string
	legs []Leg
}

type traceKey struct{}

// WithTrace returns a context carrying a fresh Trace, and the trace.
func WithTrace(ctx context.Context) (context.Context, *Trace) {
	t := &Trace{}
	return context.WithValue(ctx, traceKey{}, t), t
}

// FromContext returns the Trace carried by ctx, or nil.
func FromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// noopDone is returned from StartLeg on a nil trace so the disabled
// path allocates nothing.
var noopDone = func(int) {}

// StartLeg starts timing a leg and returns a function that finishes
// it with the leg's pop count. On a nil trace it is a no-op.
func (t *Trace) StartLeg(name LegName, shard int) func(pops int) {
	if t == nil {
		return noopDone
	}
	start := time.Now()
	return func(pops int) {
		leg := Leg{
			Name:       name,
			Shard:      shard,
			DurationUS: time.Since(start).Microseconds(),
			Pops:       pops,
		}
		t.mu.Lock()
		t.legs = append(t.legs, leg)
		t.mu.Unlock()
	}
}

// Add records a fully-formed leg — the remote shard client uses it to
// attach RPC-hop legs (host, wire time) it timed itself. Safe on nil.
func (t *Trace) Add(leg Leg) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.legs = append(t.legs, leg)
	t.mu.Unlock()
}

// SetID attaches a request ID to the trace so cross-process legs and
// log lines can be joined back to it. Safe on nil.
func (t *Trace) SetID(id string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.id = id
	t.mu.Unlock()
}

// ID returns the trace's request ID, or "" if none was set. Safe on nil.
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.id
}

// Legs returns a copy of the legs recorded so far. Safe on nil.
func (t *Trace) Legs() []Leg {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Leg, len(t.legs))
	copy(out, t.legs)
	return out
}

// Request IDs are a random per-process prefix plus a counter: unique
// across a fleet without coordination, cheap enough to stamp on every
// query (no syscall or allocation beyond the formatted string).
var (
	ridPrefix = func() string {
		var b [4]byte
		rand.Read(b[:])
		return hex.EncodeToString(b[:])
	}()
	ridSeq atomic.Uint64
)

// NewRequestID returns a fleet-unique request ID like "3fa9c1d2-000042":
// the prefix, a dash and the counter in hex, zero-padded to six digits.
func NewRequestID() string {
	var digits [16]byte
	seq := strconv.AppendUint(digits[:0], ridSeq.Add(1), 16)
	var b [32]byte
	id := append(b[:0], ridPrefix...)
	id = append(id, '-')
	for i := len(seq); i < 6; i++ {
		id = append(id, '0')
	}
	return string(append(id, seq...))
}
