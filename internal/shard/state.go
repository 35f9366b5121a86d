package shard

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"road/internal/core"
	"road/internal/geom"
	"road/internal/graph"
)

// ManifestVersion is the current sharded-deployment manifest format.
const ManifestVersion = 1

// The on-disk layout of a sharded deployment, shared by the router-side
// store that saves it and the shard hosts that boot off it: under a
// snapshot prefix the manifest and, per shard, a snapshot and (hosts
// only) an identity sidecar; under a journal prefix one journal per shard.

// ManifestPath names the deployment manifest under a snapshot prefix.
func ManifestPath(prefix string) string { return prefix + ".manifest" }

// SnapshotPath names shard i's snapshot under a snapshot prefix.
func SnapshotPath(prefix string, i ID) string { return fmt.Sprintf("%s.%d", prefix, i) }

// SidecarPath names shard i's identity sidecar under a snapshot prefix.
func SidecarPath(prefix string, i ID) string { return SnapshotPath(prefix, i) + ".ids" }

// JournalPath names shard i's write-ahead journal under a journal prefix.
func JournalPath(prefix string, i ID) string { return fmt.Sprintf("%s.%d", prefix, i) }

// Manifest is the global-identity side of a sharded deployment's
// persistent state. Each shard's framework is persisted as an ordinary
// snapshot in shard-LOCAL coordinates; the manifest records how local
// IDs map back to the one global namespace clients speak, so a reopened
// router answers with the same node, edge and object IDs it served
// before the restart. Derived routing state (borders, border distance
// tables, watch sets) is deliberately absent: it is recomputed from the
// loaded shards, which cannot drift from a stale copy.
type Manifest struct {
	Version  int   `json:"version"`
	Shards   int   `json:"shards"`
	Seed     int64 `json:"seed"`
	NumNodes int   `json:"num_nodes"`
	NumEdges int   `json:"num_edges"`

	// NextObj continues the global object ID sequence, including gaps
	// left by deletions.
	NextObj graph.ObjectID `json:"next_obj"`

	// Isolated preserves the coordinates of global nodes that belong to
	// no shard (intersections without roads): no shard snapshot carries
	// them, and the global mirror must still allocate their IDs.
	Isolated []IsolatedNode `json:"isolated,omitempty"`

	PerShard []ShardManifest `json:"per_shard"`
}

// IsolatedNode is a shard-less global node.
type IsolatedNode struct {
	ID graph.NodeID `json:"id"`
	X  float64      `json:"x"`
	Y  float64      `json:"y"`
}

// ShardManifest maps one shard's local ID spaces to the global ones.
type ShardManifest struct {
	GlobalNode []graph.NodeID `json:"global_node"` // local node -> global
	GlobalEdge []graph.EdgeID `json:"global_edge"` // local edge -> global
	// Objects pairs (local ID, global ID), sorted by local ID.
	Objects [][2]graph.ObjectID `json:"objects"`
}

// Manifest exports the router's global-identity state. Call it under the
// same exclusion as a snapshot save, so the two are consistent.
func (r *Router) Manifest() *Manifest {
	m := &Manifest{
		Version:  ManifestVersion,
		Shards:   len(r.shards),
		Seed:     r.seed,
		NumNodes: r.g.NumNodes(),
		NumEdges: r.g.NumEdges(),
		NextObj:  r.nextObj,
	}
	for n := 0; n < r.g.NumNodes(); n++ {
		if len(r.shardsOf[n]) == 0 {
			p := r.g.Coord(graph.NodeID(n))
			m.Isolated = append(m.Isolated, IsolatedNode{ID: graph.NodeID(n), X: p.X, Y: p.Y})
		}
	}
	for _, s := range r.shards {
		m.PerShard = append(m.PerShard, *s.IdentityManifest())
	}
	return m
}

// Reassemble reconstructs a Router from per-shard frameworks (loaded
// from their snapshots) and the manifest saved alongside them. Derived
// routing state is recomputed, and a framework saved without shortcut
// waypoints is upgraded to store them (route legs expand them); the caller
// replays any per-shard journals afterwards via ApplyOp and finishes with
// RefreshAll.
func Reassemble(frameworks []*core.Framework, m *Manifest) (*Router, error) {
	if err := m.check(); err != nil {
		return nil, err
	}
	if len(frameworks) != m.Shards {
		return nil, fmt.Errorf("shard: manifest names %d shards, got %d frameworks", m.Shards, len(frameworks))
	}
	shards := make([]*Shard, m.Shards)
	topos := make([]localTopo, m.Shards)
	for i, f := range frameworks {
		s, err := newLocalShard(i, &m.PerShard[i], f)
		if err != nil {
			return nil, err
		}
		shards[i], topos[i] = s, f.Graph()
	}
	r, err := assembleRouter(m, shards, topos)
	if err != nil {
		return nil, err
	}
	for _, s := range r.shards {
		s.pinBorders()
	}
	return r, nil
}

// check validates a manifest's header: its version and shard count.
func (m *Manifest) check() error {
	if m.Version != ManifestVersion {
		return fmt.Errorf("shard: manifest version %d not supported (this build reads %d)", m.Version, ManifestVersion)
	}
	if len(m.PerShard) != m.Shards {
		return fmt.Errorf("shard: manifest names %d shards but lists %d", m.Shards, len(m.PerShard))
	}
	return nil
}

// --- The one assembler ---
//
// Every router and every host shard is built from shard identity records
// (ShardManifest: the local-to-global node, edge and object maps) the
// same way. newShardIdentity validates one record against its shard's
// local topology and builds the shard's translation maps; assembleRouter
// builds a router around a full set of them.

// localTopo is a shard's local node and edge view: a framework's graph,
// or the coordinates and edge list of a host's exported state.
type localTopo interface {
	NumNodes() int
	NumEdges() int
	Coord(graph.NodeID) geom.Point
	Edge(graph.EdgeID) graph.Edge
}

// stateTopo reads a host state's local topology.
type stateTopo struct{ st *ShardState }

func (t stateTopo) NumNodes() int { return len(t.st.Coords) }
func (t stateTopo) NumEdges() int { return len(t.st.Edges) }

func (t stateTopo) Coord(n graph.NodeID) geom.Point {
	return geom.Point{X: t.st.Coords[n][0], Y: t.st.Coords[n][1]}
}

func (t stateTopo) Edge(e graph.EdgeID) graph.Edge {
	se := t.st.Edges[e]
	return graph.Edge{U: se.U, V: se.V, Weight: se.W, Removed: se.Removed}
}

// newShardIdentity validates shard id's identity record against its
// local topology and builds the shard's translation maps. It checks what
// one shard can: map lengths, a strictly ascending node map, local edge
// endpoints inside the node map, and distinct non-negative object IDs.
// Global ID ranges and cross-shard ownership are assembleRouter's.
func newShardIdentity(id ID, sm *ShardManifest, lt localTopo) (*Shard, error) {
	if len(sm.GlobalNode) != lt.NumNodes() || len(sm.GlobalEdge) != lt.NumEdges() {
		return nil, fmt.Errorf("shard %d: identity maps %d nodes and %d edges, local graph has %d and %d",
			id, len(sm.GlobalNode), len(sm.GlobalEdge), lt.NumNodes(), lt.NumEdges())
	}
	s := &Shard{
		ID:         id,
		globalNode: slices.Clone(sm.GlobalNode),
		localNode:  make(map[graph.NodeID]graph.NodeID, len(sm.GlobalNode)),
		globalEdge: slices.Clone(sm.GlobalEdge),
		localEdge:  make(map[graph.EdgeID]graph.EdgeID, len(sm.GlobalEdge)),
		localObj:   make(map[graph.ObjectID]graph.ObjectID, len(sm.Objects)),
	}
	for li, gn := range s.globalNode {
		if li > 0 && gn <= s.globalNode[li-1] {
			return nil, fmt.Errorf("%w: shard %d node map not strictly ascending at local %d", ErrIntegrity, id, li)
		}
		s.localNode[gn] = graph.NodeID(li)
	}
	numNodes := graph.NodeID(len(s.globalNode))
	for li, ge := range s.globalEdge {
		if ed := lt.Edge(graph.EdgeID(li)); ed.U < 0 || ed.U >= numNodes || ed.V < 0 || ed.V >= numNodes {
			return nil, fmt.Errorf("%w: shard %d local edge %d joins nodes (%d,%d) outside its %d nodes",
				ErrIntegrity, id, li, ed.U, ed.V, numNodes)
		}
		s.localEdge[ge] = graph.EdgeID(li)
	}
	for _, pair := range sm.Objects {
		lo, gid := pair[0], pair[1]
		_, dup := s.localObj[gid]
		if lo < 0 || gid < 0 || dup || int(lo) < len(s.globalObj) && s.globalObj[lo] >= 0 {
			return nil, fmt.Errorf("%w: shard %d object pair (local %d, global %d) negative or mapped twice", ErrIntegrity, id, lo, gid)
		}
		s.addObject(lo, gid)
	}
	return s, nil
}

// newLocalShard builds a full local shard from a framework loaded from
// its snapshot and the identity record saved with it. A framework saved
// without shortcut waypoints is upgraded to store them.
func newLocalShard(id ID, sm *ShardManifest, f *core.Framework) (*Shard, error) {
	if f.Objects().Len() != len(sm.Objects) {
		return nil, fmt.Errorf("shard %d: identity maps %d objects, snapshot has %d", id, len(sm.Objects), f.Objects().Len())
	}
	for _, pair := range sm.Objects {
		if _, ok := f.Objects().Get(pair[0]); !ok {
			return nil, fmt.Errorf("shard %d: identity object %d (global %d) missing from snapshot", id, pair[0], pair[1])
		}
	}
	s, err := newShardIdentity(id, sm, f.Graph())
	if err != nil {
		return nil, err
	}
	f.EnableWaypoints() // shard sets saved before routes rode the index
	s.F = f
	return s, nil
}

// assembleRouter builds a router around a deployment's full shard set:
// it rebuilds the global graph mirror from the shards' local topology
// (plus hdr's isolated nodes), fills edge ownership and object
// locations, derives the object-ID watermark (hdr's floor, bumped past
// live objects) and installs every shard's border set. Every global ID
// must lie in hdr's ranges, every node must be placed and every edge and
// object owned exactly once.
func assembleRouter(hdr *Manifest, shards []*Shard, topos []localTopo) (*Router, error) {
	// Nodes may be shared but edges may not: hdr must count at most the
	// nodes the shards place and exactly the edges they own, so distinct
	// in-range edge IDs leave none unowned. Checked first, the counts also
	// cannot size the mirror from a corrupt header.
	placed, owned := len(hdr.Isolated), 0
	for _, s := range shards {
		placed, owned = placed+len(s.globalNode), owned+len(s.globalEdge)
	}
	if hdr.NumNodes < 0 || hdr.NumNodes > placed || hdr.NumEdges != owned {
		return nil, fmt.Errorf("shard: header counts %d nodes and %d edges, shards place %d and own %d",
			hdr.NumNodes, hdr.NumEdges, placed, owned)
	}

	coords := make([]geom.Point, hdr.NumNodes)
	seen := make([]bool, hdr.NumNodes)
	for i, s := range shards {
		for li, gn := range s.globalNode {
			if gn < 0 || int(gn) >= hdr.NumNodes {
				return nil, fmt.Errorf("shard %d: global node %d out of range", i, gn)
			}
			coords[gn] = topos[i].Coord(graph.NodeID(li))
			seen[gn] = true
		}
	}
	for _, iso := range hdr.Isolated {
		if iso.ID < 0 || int(iso.ID) >= hdr.NumNodes {
			return nil, fmt.Errorf("shard: isolated node %d out of range", iso.ID)
		}
		coords[iso.ID] = geom.Point{X: iso.X, Y: iso.Y}
		seen[iso.ID] = true
	}
	if n := slices.Index(seen, false); n >= 0 {
		return nil, fmt.Errorf("shard: global node %d appears in no shard and is not listed as isolated", n)
	}

	r := &Router{
		shards:    shards,
		shardMu:   make([]sync.RWMutex, len(shards)),
		edgeShard: make([]ID, hdr.NumEdges),
		objLoc:    make(map[graph.ObjectID]ID),
		nextObj:   hdr.NextObj,
		seed:      hdr.Seed,
		klPasses:  -1,
	}
	edges := make([]graph.Edge, hdr.NumEdges) // global endpoints
	seenE := make([]bool, hdr.NumEdges)
	for i, s := range shards {
		for li, ge := range s.globalEdge {
			if ge < 0 || int(ge) >= hdr.NumEdges {
				return nil, fmt.Errorf("shard %d: global edge %d out of range", i, ge)
			}
			if seenE[ge] {
				return nil, fmt.Errorf("shard %d: global edge %d claimed twice", i, ge)
			}
			seenE[ge] = true
			ed := topos[i].Edge(graph.EdgeID(li))
			ed.U, ed.V = s.globalNode[ed.U], s.globalNode[ed.V]
			edges[ge] = ed
			r.edgeShard[ge] = i
		}
		if err := r.locateObjects(s); err != nil {
			return nil, err
		}
	}

	r.g = graph.New(hdr.NumNodes, hdr.NumEdges)
	for _, p := range coords {
		r.g.AddNode(p)
	}
	for ge, ed := range edges {
		if _, err := r.g.AddEdge(ed.U, ed.V, ed.Weight); err != nil {
			return nil, fmt.Errorf("shard: rebuilding global edge %d: %w", ge, err)
		}
		if ed.Removed {
			r.g.RemoveEdge(graph.EdgeID(ge))
		}
	}
	r.deriveBorders()
	return r, nil
}

// locateObjects records s's live objects in the router's location table
// and bumps the object-ID watermark past them — the one place a router
// derives the watermark from shard state. An object located in another
// shard is an integrity failure, and leaves the table untouched.
func (r *Router) locateObjects(s *Shard) error {
	for gid := range s.localObj {
		if owner, ok := r.objLoc[gid]; ok && owner != s.ID {
			return fmt.Errorf("%w: global object %d claimed by shards %d and %d", ErrIntegrity, gid, owner, s.ID)
		}
	}
	for gid := range s.localObj {
		r.objLoc[gid] = s.ID
		r.nextObj = max(r.nextObj, gid+1)
	}
	return nil
}

// shardBorders derives every shard's border set from the shards' node
// lists (each ascending): a node is a border of each shard it appears in
// when it appears in more than one. Node sets never change, so the
// derivation holds across any number of journal replays.
func shardBorders(nodes [][]graph.NodeID) [][]graph.NodeID {
	count := make(map[graph.NodeID]int)
	for _, gn := range slices.Concat(nodes...) {
		count[gn]++
	}
	out := make([][]graph.NodeID, len(nodes))
	for i, ns := range nodes {
		for _, gn := range ns {
			if count[gn] > 1 {
				out[i] = append(out[i], gn)
			}
		}
	}
	return out
}

// --- Out-of-process deployments ---
//
// A shard host owns a subset of the shards: it loads the SAME manifest
// the router wrote (the global header and every shard's static node list
// — needed to derive borders), its shards' snapshots, per-shard identity
// sidecars (the growing edge/object maps, which go stale in the
// manifest), and its shards' journals. The router, instead of loading
// frameworks, adopts each remote shard's exported ShardState (wire.go)
// into a mirror Shard: identity maps plus derived routing state, no
// framework.

// identity is the state's identity record, sharing the state's slices.
func (st *ShardState) identity() *ShardManifest {
	return &ShardManifest{GlobalNode: st.GlobalNode, GlobalEdge: st.GlobalEdge, Objects: st.Objects}
}

// IdentityManifest exports the shard's live identity maps in the
// manifest's per-shard form — the sidecar a shard host persists next to
// each snapshot, because the deployment manifest's edge and object maps
// go stale as the host applies journaled mutations (its node map never
// does). The caller holds the shard's read exclusion.
func (s *Shard) IdentityManifest() *ShardManifest {
	sm := &ShardManifest{
		GlobalNode: append([]graph.NodeID(nil), s.globalNode...),
		GlobalEdge: append([]graph.EdgeID(nil), s.globalEdge...),
	}
	for gid, lo := range s.localObj {
		sm.Objects = append(sm.Objects, [2]graph.ObjectID{lo, gid})
	}
	sort.Slice(sm.Objects, func(i, j int) bool { return sm.Objects[i][0] < sm.Objects[j][0] })
	return sm
}

// AssembleHostShards reconstructs full local Shards for the subset of a
// deployment a host owns: frameworks loaded from their snapshots keyed
// by shard ID, identity maps from the per-shard sidecars (which, unlike
// the manifest, track post-snapshot edge/object growth), and borders
// derived from the manifest's static node lists. A framework saved
// without shortcut waypoints is upgraded to store them, as in Reassemble.
// Derived routing state is NOT built here — the host replays journals
// first (ReplayApply) and then calls RefreshDerived per shard.
func AssembleHostShards(m *Manifest, frameworks map[ID]*core.Framework, idents map[ID]*ShardManifest) (map[ID]*Shard, error) {
	if err := m.check(); err != nil {
		return nil, err
	}
	nodes := make([][]graph.NodeID, m.Shards)
	for i := range m.PerShard {
		nodes[i] = m.PerShard[i].GlobalNode
	}
	borders := shardBorders(nodes)
	out := make(map[ID]*Shard, len(frameworks))
	for id, f := range frameworks {
		if id < 0 || id >= m.Shards {
			return nil, fmt.Errorf("shard: host owns shard %d outside deployment of %d", id, m.Shards)
		}
		sm := idents[id]
		if sm == nil {
			sm = &m.PerShard[id]
		}
		// The node set is static: the sidecar and manifest must agree on it.
		if !slices.Equal(sm.GlobalNode, nodes[id]) {
			return nil, fmt.Errorf("shard %d: identity node map diverges from manifest", id)
		}
		s, err := newLocalShard(id, sm, f)
		if err != nil {
			return nil, err
		}
		s.borders = borders[id]
		s.indexBorders()
		f.PinBorders(s.localBorders) // before replay: a pre-pin set is upgraded here
		out[id] = s
	}
	return out, nil
}

// AssembleRemote builds a Router whose shards are all mirrors of
// out-of-process shards: states are the hosts' exported ShardStates
// (indexed by shard ID) and remotes the matching RemoteShard handles.
// The router is assembled from the states' identity records and local
// topology the same way Reassemble assembles it from snapshots, and each
// mirror adopts its state's derived routing state verbatim.
func AssembleRemote(states []*ShardState, remotes []RemoteShard) (*Router, error) {
	if len(states) == 0 || slices.Contains(states, nil) {
		return nil, fmt.Errorf("shard: missing shard states (%d given)", len(states))
	}
	if len(remotes) != len(states) {
		return nil, fmt.Errorf("shard: %d states but %d remote handles", len(states), len(remotes))
	}
	head := states[0]
	if head.Shards != len(states) {
		return nil, fmt.Errorf("shard: deployment names %d shards, got %d states", head.Shards, len(states))
	}
	hdr := &Manifest{Shards: head.Shards, Seed: head.Seed, NumNodes: head.NumNodes, NextObj: head.NextObj, Isolated: head.Isolated}
	shards := make([]*Shard, len(states))
	topos := make([]localTopo, len(states))
	for i, st := range states {
		if st.ID != i {
			return nil, fmt.Errorf("shard: state %d carries ID %d", i, st.ID)
		}
		if st.Shards != head.Shards || st.Seed != head.Seed || st.NumNodes != head.NumNodes {
			return nil, fmt.Errorf("%w: shard %d disagrees on the deployment header (shards/seed/nodes %d/%d/%d vs %d/%d/%d)",
				ErrIntegrity, i, st.Shards, st.Seed, st.NumNodes, head.Shards, head.Seed, head.NumNodes)
		}
		topos[i] = stateTopo{st}
		s, err := newShardIdentity(i, st.identity(), topos[i])
		if err != nil {
			return nil, err
		}
		shards[i] = s
		hdr.NumEdges += len(st.GlobalEdge)
	}
	r, err := assembleRouter(hdr, shards, topos)
	if err != nil {
		return nil, err
	}
	for i, s := range r.shards {
		// The hosts' border sets must match what the node lists imply: a
		// mismatch means host and router disagree on the partition itself.
		if !slices.Equal(states[i].Borders, s.borders) {
			return nil, fmt.Errorf("%w: shard %d reports %d borders that diverge from the %d its node list implies",
				ErrIntegrity, i, len(states[i].Borders), len(s.borders))
		}
		s.remote = remotes[i]
		s.adoptDerived(states[i])
	}
	return r, nil
}

// Readopt reconciles a mirror shard with a recovered host's exported
// state: the host may have applied mutations whose acknowledgements the
// router never saw (it journals before replying), so the host's state is
// allowed to be AHEAD of the mirror — never behind, and never divergent.
// The state's identity record passes the same validation as at assembly
// before the mirror changes. The shard's index lives on the host, whose
// boot (AssembleHostShards) already upgraded a snapshot saved without
// shortcut waypoints, so there is nothing to upgrade here. Runs under
// Router.Exclusive.
func (r *Router) Readopt(id ID, st *ShardState) error {
	s := r.shards[id]
	if s.F != nil {
		return fmt.Errorf("shard %d: readopt of an in-process shard", id)
	}
	if st.Seq < s.rseq.Load() {
		return fmt.Errorf("%w: shard %d host came back at journal seq %d, router has acked %d (stale snapshot?)",
			ErrIntegrity, id, st.Seq, s.rseq.Load())
	}
	// The node set (hence the border set) is fixed for the deployment's
	// lifetime, and the mirror's edge map must be a prefix of the host's:
	// lost-ack AddRoads can only append.
	if !slices.Equal(st.GlobalNode, s.globalNode) {
		return fmt.Errorf("%w: shard %d host node map diverges from the mirror's", ErrIntegrity, id)
	}
	if !slices.Equal(st.Borders, s.borders) {
		return fmt.Errorf("%w: shard %d host border set diverges from the mirror's", ErrIntegrity, id)
	}
	if len(st.GlobalEdge) < len(s.globalEdge) || !slices.Equal(st.GlobalEdge[:len(s.globalEdge)], s.globalEdge) {
		return fmt.Errorf("%w: shard %d host edge map (%d edges) does not extend the mirror's (%d)",
			ErrIntegrity, id, len(st.GlobalEdge), len(s.globalEdge))
	}
	fresh, err := newShardIdentity(id, st.identity(), stateTopo{st})
	if err != nil {
		return err
	}
	r.mutateMeta(func() {
		// Objects: the host's live set replaces the mirror's, adopting
		// lost-ack inserts and dropping what the host no longer has.
		if err = r.locateObjects(fresh); err != nil {
			return
		}
		for gid := range s.localObj {
			if _, ok := fresh.localObj[gid]; !ok {
				delete(r.objLoc, gid)
			}
		}
		for li, ge := range st.GlobalEdge {
			se := st.Edges[li]
			// A lost-ack road is grafted onto the global mirror; an ID
			// the router has meanwhile handed to another shard is fatal.
			if li >= len(s.globalEdge) {
				if int(ge) != r.g.NumEdges() {
					err = fmt.Errorf("%w: shard %d lost-ack road landed on global edge %d, router is at %d",
						ErrIntegrity, id, ge, r.g.NumEdges())
					return
				}
				if _, addErr := r.g.AddEdge(s.globalNode[se.U], s.globalNode[se.V], se.W); addErr != nil {
					err = fmt.Errorf("%w: shard %d grafting lost-ack edge %d: %v", ErrIntegrity, id, ge, addErr)
					return
				}
				r.edgeShard = append(r.edgeShard, id)
			}
			// Re-sync weight and open/closed state: ops the router acked
			// are already reflected, lost-ack ones are not.
			med := r.g.Edge(ge)
			if med.Removed != se.Removed {
				if se.Removed {
					r.g.RemoveEdge(ge)
				} else {
					r.g.RestoreEdge(ge)
				}
			}
			if !se.Removed && med.Weight != se.W {
				r.g.SetWeight(ge, se.W)
			}
		}
	})
	if err != nil {
		return err
	}
	s.globalEdge, s.localEdge = fresh.globalEdge, fresh.localEdge
	s.globalObj, s.localObj = fresh.globalObj, fresh.localObj
	s.adoptDerived(st)
	return nil
}
