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

// ShardState is one shard's complete identity and derived routing state
// as exported by its host — everything a router needs to build (or
// re-adopt) the shard's mirror. Its distances are all finite (border
// table arcs exist only between connected borders), so it crosses the
// wire as plain JSON.
type ShardState struct {
	ID ID `json:"id"`
	// Deployment header, copied from the host's manifest so the router
	// can cross-check that host and router serve the same deployment.
	Shards   int            `json:"shards"`
	Seed     int64          `json:"seed"`
	NumNodes int            `json:"num_nodes"` // global node count
	NextObj  graph.ObjectID `json:"next_obj"`  // manifest floor; adoption bumps past live objects
	Isolated []IsolatedNode `json:"isolated,omitempty"`

	// Identity maps and local topology (the mirror's inputs).
	GlobalNode []graph.NodeID      `json:"global_node"`
	GlobalEdge []graph.EdgeID      `json:"global_edge"`
	Coords     [][2]float64        `json:"coords"` // per local node
	Edges      []StateEdge         `json:"edges"`  // per local edge
	Objects    [][2]graph.ObjectID `json:"objects"`

	// Derived routing state (adopted verbatim: the host maintains it).
	Borders []graph.NodeID               `json:"borders"`
	BTable  map[graph.NodeID][]BorderArc `json:"btable"`

	// Freshness header: the shard's maintenance epoch, its journal
	// sequence/size, the snapshot fingerprint, and the index size.
	Epoch        uint64 `json:"epoch"`
	Seq          uint64 `json:"seq"`
	Fingerprint  string `json:"fingerprint,omitempty"`
	IndexBytes   int64  `json:"index_bytes"`
	JournalBytes int64  `json:"journal_bytes"`
}

// StateEdge is one shard-local edge in an exported ShardState.
type StateEdge struct {
	U       graph.NodeID `json:"u"`
	V       graph.NodeID `json:"v"`
	W       float64      `json:"w"`
	Removed bool         `json:"removed,omitempty"`
}

// ExportState exports a full local shard's identity and derived state
// for router adoption. The caller (a shard host) holds the shard's read
// exclusion and fills the deployment and journal header fields.
func (s *Shard) ExportState() *ShardState {
	lg := s.F.Graph()
	sm := s.IdentityManifest()
	st := &ShardState{
		ID:         s.ID,
		GlobalNode: sm.GlobalNode,
		GlobalEdge: sm.GlobalEdge,
		Objects:    sm.Objects,
		Borders:    append([]graph.NodeID(nil), s.borders...),
		BTable:     make(map[graph.NodeID][]BorderArc, len(s.btable)),
		Epoch:      s.F.Epoch(),
		IndexBytes: s.F.IndexSizeBytes(),
	}
	st.Coords = make([][2]float64, lg.NumNodes())
	for i := range st.Coords {
		p := lg.Coord(graph.NodeID(i))
		st.Coords[i] = [2]float64{p.X, p.Y}
	}
	st.Edges = make([]StateEdge, lg.NumEdges())
	for i := range st.Edges {
		ed := lg.Edge(graph.EdgeID(i))
		st.Edges[i] = StateEdge{U: ed.U, V: ed.V, W: ed.Weight, Removed: ed.Removed}
	}
	for b, arcs := range s.btable {
		st.BTable[b] = append([]BorderArc(nil), arcs...)
	}
	return st
}

// adoptDerived installs an exported state's border table and freshness
// header into a mirror shard whose border set the state matches.
func (s *Shard) adoptDerived(st *ShardState) {
	s.btable = make(map[graph.NodeID][]BorderArc, len(st.BTable))
	for b, arcs := range st.BTable {
		s.btable[b] = append([]BorderArc(nil), arcs...)
	}
	s.repoch.Store(st.Epoch)
	s.rbytes.Store(st.IndexBytes)
	s.rseq.Store(st.Seq)
	s.rjbytes.Store(st.JournalBytes)
}
