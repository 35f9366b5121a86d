// Package server is roadd's serving subsystem: an HTTP/JSON API over any
// road.Store — a single-index road.DB, a sharded road.ShardedDB or a
// road.RemoteDB over out-of-process shard hosts. Read queries (kNN,
// range, path, batch) run concurrently with each other on pooled
// sessions (road.Session, or road.RouterSession on the two router-backed
// stores). Every store locks itself against its maintenance operations
// (edge weight updates, road closures, object churn) — a road.DB with
// one store-wide reader/writer lock, road.ShardedDB and road.RemoteDB per
// shard, so that a mutation stalls only readers of the shard it touches —
// and the server runs the same code over all of them.
// Query answers are memoized, already encoded, in an LRU cache that the
// maintenance epoch invalidates wholesale: a hit copies the cached
// `"results":[…],"stats":{…}` bytes into its response instead of
// re-encoding the answer. The hot responses (/knn, /within, /path,
// /maintenance/*) are written by append encoders (encode.go) whose bytes
// equal encoding/json's; the cold endpoints use encoding/json. /stats
// surfaces aggregate traversal statistics, cache and session-pool
// behaviour.
package server

import (
	"road"
	"road/internal/obs"
	"road/internal/shard"
)

// Wire types shared by the roadd handlers, the roadquery -json output and
// the benchmark's clients, so every tool in the repo speaks one encoding.

// ResultJSON is one query answer on the wire.
type ResultJSON struct {
	Object road.ObjectID `json:"object"`
	Edge   road.EdgeID   `json:"edge"`
	Attr   int32         `json:"attr"`
	Offset float64       `json:"offset"` // distance from the edge's U endpoint
	Dist   float64       `json:"dist"`   // network distance from the query node
}

// StatsJSON is the per-query cost report on the wire.
type StatsJSON struct {
	NodesPopped    int  `json:"nodes_popped"`
	RnetsBypassed  int  `json:"rnets_bypassed"`
	RnetsDescended int  `json:"rnets_descended"`
	ShardsSearched int  `json:"shards_searched,omitempty"`
	Truncated      bool `json:"truncated,omitempty"`
}

// QueryResponse answers /knn and /within. ID is the server-assigned
// request ID — the join key against the query log and any slow-query
// line. Trace is present only when the request asked for it (&trace=1):
// the query's per-leg breakdown — which phases and shards it visited,
// and what each cost; on remote deployments each rpc leg nests the
// host-side legs under sub.
type QueryResponse struct {
	Node      road.NodeID  `json:"node"`
	ID        string       `json:"id,omitempty"`
	Epoch     uint64       `json:"epoch"`
	Cached    bool         `json:"cached"`
	Results   []ResultJSON `json:"results"`
	Stats     StatsJSON    `json:"stats"`
	ElapsedUS int64        `json:"elapsed_us"`
	Trace     []obs.Leg    `json:"trace,omitempty"`
}

// PathResponse answers /path. Trace is present only when the request
// asked for it (&trace=1).
type PathResponse struct {
	Node      road.NodeID   `json:"node"`
	ID        string        `json:"id,omitempty"`
	Object    road.ObjectID `json:"object"`
	Epoch     uint64        `json:"epoch"`
	Dist      float64       `json:"dist"`
	Path      []road.NodeID `json:"path"`
	Stats     StatsJSON     `json:"stats"`
	ElapsedUS int64         `json:"elapsed_us"`
	Trace     []obs.Leg     `json:"trace,omitempty"`
}

// BatchResponse answers POST /batch: one entry per request, all computed
// on one session at one epoch.
type BatchResponse struct {
	Epoch     uint64          `json:"epoch"`
	Responses []BatchItemJSON `json:"responses"`
	ElapsedUS int64           `json:"elapsed_us"`
}

// BatchItemJSON is one batch answer. Exactly one of Results / Path /
// Error is meaningful; Code carries the typed error class (the same
// classification single-query endpoints report via HTTP status).
type BatchItemJSON struct {
	Results []ResultJSON  `json:"results,omitempty"`
	Path    []road.NodeID `json:"path,omitempty"`
	Dist    float64       `json:"dist,omitempty"`
	Stats   StatsJSON     `json:"stats"`
	Error   string        `json:"error,omitempty"`
	Code    string        `json:"code,omitempty"`
}

// MaintenanceRequest is the body of every POST /maintenance/* call; each
// route reads the fields it needs.
type MaintenanceRequest struct {
	Edge   road.EdgeID   `json:"edge,omitempty"`
	U      road.NodeID   `json:"u,omitempty"`
	V      road.NodeID   `json:"v,omitempty"`
	Dist   float64       `json:"dist,omitempty"`
	Offset float64       `json:"offset,omitempty"`
	Attr   int32         `json:"attr,omitempty"`
	Object road.ObjectID `json:"object,omitempty"`
}

// MaintenanceResponse acknowledges a mutation with the epoch it produced
// and the IDs the op concerned. Edge/Object echo the request's target —
// or carry the newly assigned ID for add-road and insert-object — and are
// always emitted: IDs start at 0, so omitempty would swallow the very
// first edge or object a client creates.
type MaintenanceResponse struct {
	OK     bool          `json:"ok"`
	Epoch  uint64        `json:"epoch"`
	Edge   road.EdgeID   `json:"edge"`
	Object road.ObjectID `json:"object"`
}

// ErrorResponse is the uniform error envelope. Code, when present,
// classifies typed query failures machine-readably: "deadline_exceeded",
// "canceled" (client went away mid-search), "budget_exhausted",
// "no_such_node", "no_such_object", "invalid_request",
// "shard_unavailable" (a remote shard host is down) or "query_failed".
type ErrorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// SnapshotResponse acknowledges /admin/snapshot: the snapshot was written
// at exactly this epoch and journal sequence (readers were excluded while
// it was taken, so the image is epoch-consistent), and Bytes is the total
// size of the snapshot file(s) written — summed across shards on a
// sharded deployment.
type SnapshotResponse struct {
	OK         bool   `json:"ok"`
	Epoch      uint64 `json:"epoch"`
	JournalSeq uint64 `json:"journal_seq"`
	Bytes      int64  `json:"bytes"`
	ElapsedUS  int64  `json:"elapsed_us"`
}

// StatsResponse answers /stats: a snapshot of the serving subsystem.
type StatsResponse struct {
	Epoch         uint64  `json:"epoch"`
	UptimeSeconds float64 `json:"uptime_seconds"`

	Network struct {
		Nodes   int   `json:"nodes"`
		Edges   int   `json:"edges"`
		Objects int   `json:"objects"`
		IndexKB int64 `json:"index_kb"`
	} `json:"network"`

	Requests struct {
		KNN         uint64 `json:"knn"`
		Within      uint64 `json:"within"`
		Path        uint64 `json:"path"`
		Batch       uint64 `json:"batch"`
		Maintenance uint64 `json:"maintenance"`
		Errors      uint64 `json:"errors"`
		Timeouts    uint64 `json:"timeouts"`
	} `json:"requests"`

	// Traversal aggregates core.QueryStats over every uncached query served.
	Traversal struct {
		NodesPopped    int64 `json:"nodes_popped"`
		RnetsBypassed  int64 `json:"rnets_bypassed"` // shortcut hops taken
		RnetsDescended int64 `json:"rnets_descended"`
		ShardsSearched int64 `json:"shards_searched"`
	} `json:"traversal"`

	Cache CacheStats `json:"cache"`
	Pool  PoolStats  `json:"pool"`

	// Shards reports per-shard size, epoch and load when serving a
	// sharded database (absent on a single-index deployment).
	Shards []shard.Info `json:"shards,omitempty"`
}

func resultsJSON(res []road.Result) []ResultJSON {
	out := make([]ResultJSON, len(res))
	for i, r := range res {
		out[i] = resultJSON(r)
	}
	return out
}

func resultJSON(r road.Result) ResultJSON {
	return ResultJSON{
		Object: r.Object.ID,
		Edge:   r.Object.Edge,
		Attr:   r.Object.Attr,
		Offset: r.Object.DU,
		Dist:   r.Dist,
	}
}

func statsJSON(st road.Stats) StatsJSON {
	return StatsJSON{
		NodesPopped:    st.NodesPopped,
		RnetsBypassed:  st.RnetsBypassed,
		RnetsDescended: st.RnetsDescended,
		ShardsSearched: st.ShardsSearched,
		Truncated:      st.Truncated,
	}
}

// shardInfoProvider is the optional road.Store extension a sharded store
// implements; /stats surfaces its per-shard load section.
type shardInfoProvider interface {
	ShardInfos() []shard.Info
}

// EncodeResults converts query answers to their wire form (used by
// roadquery -json so CLI and server output stay byte-compatible).
func EncodeResults(res []road.Result) []ResultJSON { return resultsJSON(res) }

// EncodeStats converts per-query stats to their wire form.
func EncodeStats(st road.Stats) StatsJSON { return statsJSON(st) }
