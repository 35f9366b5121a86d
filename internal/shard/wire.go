package shard

import (
	"fmt"

	"road/internal/graph"
	"road/internal/snapshot"
)

// A RemoteShard is the router's handle onto one out-of-process shard: the
// mutation/maintenance surface that complements the per-session Searcher.
// The Shard struct it backs is a MIRROR — it keeps the identity maps,
// borders and border distance table router-side (queries and op
// encoding read them constantly), and only compute crosses the process
// boundary. Implementations (internal/shard/remote)
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
// derived-state repair outcome and the freshness header the router caches.
type ApplyReply struct {
	// LocalEdge is the host-assigned local edge ID (OpAddRoad).
	LocalEdge graph.EdgeID `json:"local_edge,omitempty"`
	// LocalObj is the host-assigned local object ID (OpInsertObject).
	LocalObj graph.ObjectID `json:"local_obj,omitempty"`
	// Doomed lists the GLOBAL IDs of objects dropped with a closed edge
	// (OpClose): the mirror has no object→edge association of its own.
	Doomed []graph.ObjectID `json:"doomed,omitempty"`
	// Derived is the repair outcome the mirror patches its btable with
	// after a network mutation; nil when the repair changed nothing
	// (always for object churn and shards with fewer than two borders).
	Derived *DerivedUpdate `json:"derived,omitempty"`

	Epoch        uint64 `json:"epoch"`
	Seq          uint64 `json:"seq"`
	IndexBytes   int64  `json:"index_bytes"`
	JournalBytes int64  `json:"journal_bytes"`
}

// DerivedPatch is the only DerivedUpdate kind: the repair's outcome. A
// mirror rejects any other kind (an older host's recipe, say) with
// ErrIntegrity rather than skip it and serve from a stale mirror.
const DerivedPatch = "patch"

// DerivedUpdate is the wire form of one incremental derived-state repair
// (maintain.go): its OUTCOME, not a recipe. Rows are the btable rows the
// repair changed, to replace whole; the mirror stores them as given and
// runs no arithmetic. Arcs are finite by construction.
type DerivedUpdate struct {
	Kind string      `json:"kind"`
	Rows []BorderRow `json:"rows,omitempty"`
}

// BorderRow is one border's recomputed distance-table row.
type BorderRow struct {
	Border graph.NodeID `json:"border"`
	Arcs   []BorderArc  `json:"arcs"`
}

// applyDerivedUpdate patches a mirror shard's derived routing state with
// a host's repair outcome. A kind the mirror cannot read is an
// ErrIntegrity error and leaves the mirror untouched. Must run while
// readers of this shard are excluded (the mutation path's write lock,
// like maintainDerived).
func (s *Shard) applyDerivedUpdate(u *DerivedUpdate) error {
	if u == nil {
		return nil
	}
	if u.Kind != DerivedPatch {
		return fmt.Errorf("%w: shard %d: host sent a %q derived-state update, this router applies only %q (upgrade hosts and routers together)",
			ErrIntegrity, s.ID, u.Kind, DerivedPatch)
	}
	for _, row := range u.Rows {
		s.btable[row.Border] = row.Arcs
	}
	return nil
}

// RemoteEpoch, RemoteSeq, RemoteJournalBytes expose the freshness header
// cached from the last ApplyReply / adopted state (mirror shards only).
func (s *Shard) RemoteSeq() uint64         { return s.rseq.Load() }
func (s *Shard) RemoteJournalBytes() int64 { return s.rjbytes.Load() }
