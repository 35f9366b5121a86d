// Package remote moves shard compute out of process. A Host owns a
// subset of a sharded deployment's shards — full local shards with
// frameworks, journals and snapshots — and exposes their query/mutation/
// maintenance surface over HTTP/JSON. A Fleet is the router side: it
// discovers which host serves which shard, adopts each shard's exported
// state into a router of mirror shards (shard.AssembleRemote), and backs
// every mirror with a RemoteShard whose calls are RPCs. The existing
// Session/Router machinery runs unmodified over either deployment shape;
// only compute crosses the wire.
//
// Wire conventions:
//
//   - Every RPC answers 200 with an envelope {resp, err, msg, compute_us}.
//     Partial-result errors (budget exhaustion, cancellation) carry BOTH
//     the valid prefix and an error code, mirroring the in-process
//     contract. Non-200 statuses mean the exchange itself failed (unknown
//     shard, undecodable body) and are treated as transport errors.
//   - JSON cannot carry ±Inf, so the wire encodes +Inf distances as -1
//     (distances are non-negative, making -1 unambiguous). Translation
//     happens ONLY in this package: shard-package types always hold real
//     infinities in process.
package remote

import (
	"encoding/json"
	"errors"
	"math"

	"road/internal/apierr"
	"road/internal/graph"
	"road/internal/obs"
	"road/internal/shard"
	"road/internal/snapshot"
)

// TraceHeader is the request header that carries trace context across
// the wire. Its value is the request ID (or "1" for an anonymous
// trace); presence alone tells the host to time its legs.
const TraceHeader = "X-Road-Trace"

// envelope is the uniform RPC response wrapper.
type envelope struct {
	Resp json.RawMessage `json:"resp,omitempty"`
	Err  string          `json:"err,omitempty"`
	Msg  string          `json:"msg,omitempty"`
	// ComputeUS is the host-side time spent inside the shard call, so the
	// client can attribute wire time (total − compute) separately.
	ComputeUS int64 `json:"compute_us,omitempty"`
	// Legs is the host-side timing breakdown of a traced call (queue
	// wait, search compute, journal append …); the client nests it under
	// the rpc hop's Sub so &trace=1 shows the cross-process tree.
	Legs []obs.Leg `json:"legs,omitempty"`
}

// healthResponse is GET /healthz: the shards this host serves and their
// journal sequences, plus the build version for fleet diagnostics.
type healthResponse struct {
	Shards  []int          `json:"shards"`
	Seqs    map[int]uint64 `json:"seqs,omitempty"`
	Version string         `json:"version,omitempty"`
}

// objectResponse is GET /shard/{id}/object/{lo}.
type objectResponse struct {
	Object graph.Object `json:"object"`
	OK     bool         `json:"ok"`
}

// --- Typed error codes ---
//
// The host encodes an op or query error as a stable code plus its
// message; the client decodes the code back to the SAME apierr sentinel,
// so errors.Is works identically across the process boundary.

var wireCodes = []struct {
	err  error
	code string
}{
	{apierr.ErrCanceled, "canceled"},
	{apierr.ErrBudgetExhausted, "budget_exhausted"},
	{apierr.ErrInvalidRequest, "invalid_request"},
	{apierr.ErrNoSuchNode, "no_such_node"},
	{apierr.ErrNoSuchEdge, "no_such_edge"},
	{apierr.ErrNoSuchObject, "no_such_object"},
	{apierr.ErrEdgeClosed, "edge_closed"},
	{apierr.ErrEdgeNotClosed, "edge_not_closed"},
	{apierr.ErrAttrMismatch, "attr_mismatch"},
	{apierr.ErrUnreachable, "unreachable"},
	{apierr.ErrCrossShardRoad, "cross_shard_road"},
	{apierr.ErrShardUnavailable, "shard_unavailable"},
	{shard.ErrIntegrity, "integrity"},
	{snapshot.ErrUnknownOp, "unknown_op"},
}

// codeOther marks errors with no sentinel identity; they decode to a
// plain error carrying the host's message.
const codeOther = "error"

func encodeErr(err error) (code, msg string) {
	for _, wc := range wireCodes {
		if errors.Is(err, wc.err) {
			return wc.code, err.Error()
		}
	}
	return codeOther, err.Error()
}

// wireError is a decoded remote error: the host's full message with the
// sentinel's identity restored for errors.Is.
type wireError struct {
	sentinel error
	msg      string
}

func (e *wireError) Error() string { return e.msg }
func (e *wireError) Unwrap() error { return e.sentinel }

func decodeErr(code, msg string) error {
	for _, wc := range wireCodes {
		if code == wc.code {
			return &wireError{sentinel: wc.err, msg: msg}
		}
	}
	return errors.New(msg)
}

// --- ±Inf translation ---

// wireInf encodes +Inf on the wire.
const wireInf = -1

func encDist(v float64) float64 {
	if math.IsInf(v, 1) {
		return wireInf
	}
	return v
}

func decDist(v float64) float64 {
	if v < 0 {
		return math.Inf(1)
	}
	return v
}

func encDists(d []float64) {
	for i, v := range d {
		d[i] = encDist(v)
	}
}

func decDists(d []float64) {
	for i, v := range d {
		d[i] = decDist(v)
	}
}

// encLegResp / decLegResp translate the two fields of a leg result that
// may be infinite. The host encodes in place (both are response-owned).
func encLegResp(r *shard.LegResp) {
	r.Dist = encDist(r.Dist)
	encDists(r.Dists)
}

func decLegResp(r *shard.LegResp) {
	r.Dist = decDist(r.Dist)
	decDists(r.Dists)
}
