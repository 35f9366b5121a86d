package shard

import (
	"road/internal/graph"
	"road/internal/snapshot"
)

// A RemoteShard is the router's handle onto one out-of-process shard: the
// mutation/maintenance surface that complements the per-session Searcher.
// The Shard struct it backs is a MIRROR — it keeps the identity maps,
// borders, border distance table and nearest-border array router-side
// (queries and op encoding read them constantly), and only compute
// crosses the process boundary. Implementations (internal/shard/remote)
// must return apierr-typed errors: op failures decoded from the host,
// transport failures wrapped in apierr.ErrShardUnavailable.
type RemoteShard interface {
	// NewSearcher returns a per-session query handle. Must be cheap (no
	// I/O): it is called under the shard's read lock.
	NewSearcher() Searcher
	// Apply ships one journal-encoded op to the host, which write-ahead
	// logs and applies it. The reply carries what the router's mirror
	// needs to stay exact.
	Apply(op snapshot.Op) (ApplyReply, error)
	// Object fetches one object by shard-local ID (for attribute checks
	// and read-backs; the mirror tracks identities, not object payloads).
	Object(lo graph.ObjectID) (graph.Object, bool, error)
	// Host names the host serving this shard (for traces and errors).
	Host() string
}

// ApplyReply is the host's answer to one applied op: the host-assigned
// local IDs and side effects the router's mirror must record, plus the
// derived-state repair recipe and the freshness header the router caches.
type ApplyReply struct {
	// LocalEdge is the host-assigned local edge ID (OpAddRoad).
	LocalEdge graph.EdgeID `json:"local_edge,omitempty"`
	// LocalObj is the host-assigned local object ID (OpInsertObject).
	LocalObj graph.ObjectID `json:"local_obj,omitempty"`
	// Doomed lists the GLOBAL IDs of objects dropped with a closed edge
	// (OpClose): the mirror has no object→edge association of its own.
	Doomed []graph.ObjectID `json:"doomed,omitempty"`
	// Derived repairs the mirror's btable/borderDist after a network
	// mutation; nil for object churn (and borderless shards).
	Derived *DerivedUpdate `json:"derived,omitempty"`

	Epoch        uint64 `json:"epoch"`
	Seq          uint64 `json:"seq"`
	IndexBytes   int64  `json:"index_bytes"`
	JournalBytes int64  `json:"journal_bytes"`
}

// DerivedUpdate kinds.
const (
	// DerivedDecrease ships the two endpoint-distance arrays of a weight
	// decrease: the mirror repairs every btable arc and borderDist entry
	// with the same exact arithmetic the host ran (§5.2 decrease case) —
	// no recomputation, and the host computed the arrays anyway.
	DerivedDecrease = "decrease"
	// DerivedRows ships recomputed border-table rows (weight increase:
	// only the filtered-stale rows), plus the whole nearest-border array
	// when it was rebuilt.
	DerivedRows = "rows"
)

// DerivedUpdate is the wire form of one incremental border-table repair,
// mirroring maintain.go's filter-and-refresh outcomes. Distances may be
// +Inf (unreachable); the wire layer encodes +Inf as -1.
type DerivedUpdate struct {
	Kind string `json:"kind"`
	// W, DU, DV: the decrease recipe — new edge weight and the two
	// endpoint-distance arrays (indexed by local node).
	W  float64   `json:"w,omitempty"`
	DU []float64 `json:"du,omitempty"`
	DV []float64 `json:"dv,omitempty"`
	// Rows: recomputed border-table rows (global border IDs).
	Rows []BorderRow `json:"rows,omitempty"`
	// BorderDist, when non-nil, replaces the nearest-border array.
	BorderDist []float64 `json:"border_dist,omitempty"`
}

// BorderRow is one border's recomputed distance-table row.
type BorderRow struct {
	Border graph.NodeID `json:"border"`
	Arcs   []BorderArc  `json:"arcs"`
}

// applyDerivedUpdate repairs a mirror shard's derived routing state from
// the host's recipe. Must run while readers of this shard are excluded
// (the mutation path's write lock, like maintainDerived).
func (s *Shard) applyDerivedUpdate(u *DerivedUpdate) {
	if u == nil {
		return
	}
	switch u.Kind {
	case DerivedDecrease:
		s.applyDecrease(u.DU, u.DV, u.W)
	case DerivedRows:
		for _, row := range u.Rows {
			s.btable[row.Border] = row.Arcs
		}
		if u.BorderDist != nil {
			s.borderDist = u.BorderDist
		}
	}
}

// RemoteEpoch, RemoteSeq, RemoteJournalBytes expose the freshness header
// cached from the last ApplyReply / adopted state (mirror shards only).
func (s *Shard) RemoteSeq() uint64         { return s.rseq.Load() }
func (s *Shard) RemoteJournalBytes() int64 { return s.rjbytes.Load() }
