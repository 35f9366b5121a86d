package shard

import (
	"fmt"
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
	if m.Version != ManifestVersion {
		return nil, fmt.Errorf("shard: manifest version %d not supported (this build reads %d)", m.Version, ManifestVersion)
	}
	if len(frameworks) != m.Shards || len(m.PerShard) != m.Shards {
		return nil, fmt.Errorf("shard: manifest names %d shards, got %d frameworks and %d shard manifests",
			m.Shards, len(frameworks), len(m.PerShard))
	}

	// Rebuild the global mirror: coordinates from the shards (plus the
	// isolated list), then every edge at its exact global ID.
	coords := make([]geom.Point, m.NumNodes)
	seen := make([]bool, m.NumNodes)
	for i, f := range frameworks {
		sm := &m.PerShard[i]
		lg := f.Graph()
		if len(sm.GlobalNode) != lg.NumNodes() {
			return nil, fmt.Errorf("shard %d: manifest maps %d nodes, snapshot has %d", i, len(sm.GlobalNode), lg.NumNodes())
		}
		if len(sm.GlobalEdge) != lg.NumEdges() {
			return nil, fmt.Errorf("shard %d: manifest maps %d edges, snapshot has %d", i, len(sm.GlobalEdge), lg.NumEdges())
		}
		for li, gn := range sm.GlobalNode {
			if int(gn) < 0 || int(gn) >= m.NumNodes {
				return nil, fmt.Errorf("shard %d: global node %d out of range", i, gn)
			}
			coords[gn] = lg.Coord(graph.NodeID(li))
			seen[gn] = true
		}
	}
	for _, iso := range m.Isolated {
		if int(iso.ID) < 0 || int(iso.ID) >= m.NumNodes {
			return nil, fmt.Errorf("shard: isolated node %d out of range", iso.ID)
		}
		coords[iso.ID] = geom.Point{X: iso.X, Y: iso.Y}
		seen[iso.ID] = true
	}
	for n, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("shard: global node %d appears in no shard and is not listed as isolated", n)
		}
	}

	type edgeRec struct {
		shard   ID
		local   graph.EdgeID
		u, v    graph.NodeID // global
		weight  float64
		removed bool
	}
	edges := make([]edgeRec, m.NumEdges)
	seenE := make([]bool, m.NumEdges)
	for i, f := range frameworks {
		sm := &m.PerShard[i]
		lg := f.Graph()
		for li, ge := range sm.GlobalEdge {
			if int(ge) < 0 || int(ge) >= m.NumEdges {
				return nil, fmt.Errorf("shard %d: global edge %d out of range", i, ge)
			}
			if seenE[ge] {
				return nil, fmt.Errorf("shard %d: global edge %d claimed twice", i, ge)
			}
			seenE[ge] = true
			ed := lg.Edge(graph.EdgeID(li))
			edges[ge] = edgeRec{
				shard:   i,
				local:   graph.EdgeID(li),
				u:       sm.GlobalNode[ed.U],
				v:       sm.GlobalNode[ed.V],
				weight:  ed.Weight,
				removed: ed.Removed,
			}
		}
	}
	for e, ok := range seenE {
		if !ok {
			return nil, fmt.Errorf("shard: global edge %d owned by no shard", e)
		}
	}

	g := graph.New(m.NumNodes, m.NumEdges)
	for _, p := range coords {
		g.AddNode(p)
	}
	for ge, rec := range edges {
		id, err := g.AddEdge(rec.u, rec.v, rec.weight)
		if err != nil {
			return nil, fmt.Errorf("shard: rebuilding global edge %d: %w", ge, err)
		}
		if int(id) != ge {
			return nil, fmt.Errorf("shard: global edge %d rebuilt as %d", ge, id)
		}
		if rec.removed {
			g.RemoveEdge(id)
		}
	}

	r := &Router{
		g:         g,
		shards:    make([]*Shard, m.Shards),
		shardMu:   make([]sync.RWMutex, m.Shards),
		edgeShard: make([]ID, m.NumEdges),
		objLoc:    make(map[graph.ObjectID]ID),
		nextObj:   m.NextObj,
		seed:      m.Seed,
		klPasses:  -1,
	}
	for ge, rec := range edges {
		r.edgeShard[ge] = rec.shard
	}
	for i, f := range frameworks {
		sm := &m.PerShard[i]
		f.EnableWaypoints() // shard sets saved before routes rode the index
		s := &Shard{
			ID:         i,
			F:          f,
			globalNode: append([]graph.NodeID(nil), sm.GlobalNode...),
			localNode:  make(map[graph.NodeID]graph.NodeID, len(sm.GlobalNode)),
			globalEdge: append([]graph.EdgeID(nil), sm.GlobalEdge...),
			localEdge:  make(map[graph.EdgeID]graph.EdgeID, len(sm.GlobalEdge)),
			localObj:   make(map[graph.ObjectID]graph.ObjectID, len(sm.Objects)),
		}
		for li, gn := range sm.GlobalNode {
			s.localNode[gn] = graph.NodeID(li)
		}
		for li, ge := range sm.GlobalEdge {
			s.localEdge[ge] = graph.EdgeID(li)
		}
		if f.Objects().Len() != len(sm.Objects) {
			return nil, fmt.Errorf("shard %d: manifest maps %d objects, snapshot has %d", i, len(sm.Objects), f.Objects().Len())
		}
		for _, pair := range sm.Objects {
			lo, gid := pair[0], pair[1]
			if _, ok := f.Objects().Get(lo); !ok {
				return nil, fmt.Errorf("shard %d: manifest object %d (global %d) missing from snapshot", i, lo, gid)
			}
			if _, dup := r.objLoc[gid]; dup {
				return nil, fmt.Errorf("shard %d: global object %d claimed twice in manifest", i, gid)
			}
			s.setGlobalObj(lo, gid)
			s.localObj[gid] = lo
			r.objLoc[gid] = i
			if gid >= r.nextObj {
				r.nextObj = gid + 1
			}
		}
		r.shards[i] = s
	}
	r.wireTopology()
	return r, nil
}

// --- Out-of-process deployments ---
//
// A shard host owns a subset of the shards: it loads the SAME manifest
// the router wrote (the global header and every shard's static node list
// — needed to derive borders), its shards' snapshots, per-shard identity
// sidecars (the growing edge/object maps, which go stale in the
// manifest), and its shards' journals. The router, instead of loading
// frameworks, adopts each remote shard's exported ShardState into a
// mirror Shard: identity maps plus derived routing state, no framework.

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
	st := &ShardState{
		ID:         s.ID,
		GlobalNode: append([]graph.NodeID(nil), s.globalNode...),
		GlobalEdge: append([]graph.EdgeID(nil), s.globalEdge...),
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
	for gid, lo := range s.localObj {
		st.Objects = append(st.Objects, [2]graph.ObjectID{lo, gid})
	}
	sort.Slice(st.Objects, func(i, j int) bool { return st.Objects[i][0] < st.Objects[j][0] })
	for b, arcs := range s.btable {
		st.BTable[b] = append([]BorderArc(nil), arcs...)
	}
	return st
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

// manifestBorders derives every shard's border set from the manifest's
// static per-shard node lists: a node is a border of each shard it
// appears in when it appears in more than one. Node sets never change,
// so the manifest stays authoritative for borders across any number of
// journal replays.
func manifestBorders(m *Manifest) map[graph.NodeID]int {
	count := make(map[graph.NodeID]int)
	for i := range m.PerShard {
		for _, gn := range m.PerShard[i].GlobalNode {
			count[gn]++
		}
	}
	return count
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
	if m.Version != ManifestVersion {
		return nil, fmt.Errorf("shard: manifest version %d not supported (this build reads %d)", m.Version, ManifestVersion)
	}
	if len(m.PerShard) != m.Shards {
		return nil, fmt.Errorf("shard: manifest names %d shards but lists %d", m.Shards, len(m.PerShard))
	}
	count := manifestBorders(m)
	out := make(map[ID]*Shard, len(frameworks))
	for id, f := range frameworks {
		if id < 0 || id >= m.Shards {
			return nil, fmt.Errorf("shard: host owns shard %d outside deployment of %d", id, m.Shards)
		}
		sm := idents[id]
		if sm == nil {
			sm = &m.PerShard[id]
		}
		lg := f.Graph()
		if len(sm.GlobalNode) != lg.NumNodes() {
			return nil, fmt.Errorf("shard %d: identity maps %d nodes, snapshot has %d", id, len(sm.GlobalNode), lg.NumNodes())
		}
		if len(sm.GlobalEdge) != lg.NumEdges() {
			return nil, fmt.Errorf("shard %d: identity maps %d edges, snapshot has %d", id, len(sm.GlobalEdge), lg.NumEdges())
		}
		// The node set is static: the sidecar and manifest must agree on it.
		for li, gn := range m.PerShard[id].GlobalNode {
			if sm.GlobalNode[li] != gn {
				return nil, fmt.Errorf("shard %d: identity node map diverges from manifest at local %d (%d vs %d)", id, li, sm.GlobalNode[li], gn)
			}
		}
		f.EnableWaypoints() // shard sets saved before routes rode the index
		s := &Shard{
			ID:         id,
			F:          f,
			globalNode: append([]graph.NodeID(nil), sm.GlobalNode...),
			localNode:  make(map[graph.NodeID]graph.NodeID, len(sm.GlobalNode)),
			globalEdge: append([]graph.EdgeID(nil), sm.GlobalEdge...),
			localEdge:  make(map[graph.EdgeID]graph.EdgeID, len(sm.GlobalEdge)),
			localObj:   make(map[graph.ObjectID]graph.ObjectID, len(sm.Objects)),
		}
		for li, gn := range sm.GlobalNode {
			s.localNode[gn] = graph.NodeID(li)
			if count[gn] > 1 {
				s.borders = append(s.borders, gn) // ascending: globalNode is sorted
			}
		}
		s.indexBorders()
		f.PinBorders(s.localBorders) // before replay: a pre-pin set is upgraded here
		for li, ge := range sm.GlobalEdge {
			s.localEdge[ge] = graph.EdgeID(li)
		}
		if f.Objects().Len() != len(sm.Objects) {
			return nil, fmt.Errorf("shard %d: identity maps %d objects, snapshot has %d", id, len(sm.Objects), f.Objects().Len())
		}
		for _, pair := range sm.Objects {
			lo, gid := pair[0], pair[1]
			if _, ok := f.Objects().Get(lo); !ok {
				return nil, fmt.Errorf("shard %d: identity object %d (global %d) missing from snapshot", id, lo, gid)
			}
			s.setGlobalObj(lo, gid)
			s.localObj[gid] = lo
		}
		out[id] = s
	}
	return out, nil
}

// AssembleRemote builds a Router whose shards are all mirrors of
// out-of-process shards: states are the hosts' exported ShardStates
// (indexed by shard ID) and remotes the matching RemoteShard handles.
// The global graph mirror is rebuilt from the states' local topology the
// same way Reassemble rebuilds it from snapshots, and each mirror adopts
// its state's identity maps and derived routing state verbatim.
func AssembleRemote(states []*ShardState, remotes []RemoteShard) (*Router, error) {
	if len(states) == 0 {
		return nil, fmt.Errorf("shard: no shard states to assemble")
	}
	if len(remotes) != len(states) {
		return nil, fmt.Errorf("shard: %d states but %d remote handles", len(states), len(remotes))
	}
	head := states[0]
	if head.Shards != len(states) {
		return nil, fmt.Errorf("shard: deployment names %d shards, got %d states", head.Shards, len(states))
	}
	numEdges := 0
	for i, st := range states {
		if st.ID != i {
			return nil, fmt.Errorf("shard: state %d carries ID %d", i, st.ID)
		}
		if st.Shards != head.Shards || st.Seed != head.Seed || st.NumNodes != head.NumNodes {
			return nil, fmt.Errorf("%w: shard %d disagrees on the deployment header (shards/seed/nodes %d/%d/%d vs %d/%d/%d)",
				ErrIntegrity, i, st.Shards, st.Seed, st.NumNodes, head.Shards, head.Seed, head.NumNodes)
		}
		if len(st.GlobalNode) != len(st.Coords) {
			return nil, fmt.Errorf("shard %d: %d nodes but %d coordinates", i, len(st.GlobalNode), len(st.Coords))
		}
		if len(st.GlobalEdge) != len(st.Edges) {
			return nil, fmt.Errorf("shard %d: %d edge IDs but %d edges", i, len(st.GlobalEdge), len(st.Edges))
		}
		numEdges += len(st.GlobalEdge)
	}

	// Rebuild the global mirror (same validation pattern as Reassemble).
	coords := make([]geom.Point, head.NumNodes)
	seen := make([]bool, head.NumNodes)
	for i, st := range states {
		for li, gn := range st.GlobalNode {
			if int(gn) < 0 || int(gn) >= head.NumNodes {
				return nil, fmt.Errorf("shard %d: global node %d out of range", i, gn)
			}
			coords[gn] = geom.Point{X: st.Coords[li][0], Y: st.Coords[li][1]}
			seen[gn] = true
		}
	}
	for _, iso := range head.Isolated {
		if int(iso.ID) < 0 || int(iso.ID) >= head.NumNodes {
			return nil, fmt.Errorf("shard: isolated node %d out of range", iso.ID)
		}
		coords[iso.ID] = geom.Point{X: iso.X, Y: iso.Y}
		seen[iso.ID] = true
	}
	for n, ok := range seen {
		if !ok {
			return nil, fmt.Errorf("shard: global node %d appears in no shard and is not listed as isolated", n)
		}
	}

	type edgeRec struct {
		shard   ID
		u, v    graph.NodeID // global
		weight  float64
		removed bool
	}
	edges := make([]edgeRec, numEdges)
	seenE := make([]bool, numEdges)
	for i, st := range states {
		for li, ge := range st.GlobalEdge {
			if int(ge) < 0 || int(ge) >= numEdges {
				return nil, fmt.Errorf("shard %d: global edge %d out of range", i, ge)
			}
			if seenE[ge] {
				return nil, fmt.Errorf("shard %d: global edge %d claimed twice", i, ge)
			}
			seenE[ge] = true
			se := st.Edges[li]
			edges[ge] = edgeRec{
				shard:   i,
				u:       st.GlobalNode[se.U],
				v:       st.GlobalNode[se.V],
				weight:  se.W,
				removed: se.Removed,
			}
		}
	}
	for e, ok := range seenE {
		if !ok {
			return nil, fmt.Errorf("shard: global edge %d owned by no shard", e)
		}
	}

	g := graph.New(head.NumNodes, numEdges)
	for _, p := range coords {
		g.AddNode(p)
	}
	for ge, rec := range edges {
		id, err := g.AddEdge(rec.u, rec.v, rec.weight)
		if err != nil {
			return nil, fmt.Errorf("shard: rebuilding global edge %d: %w", ge, err)
		}
		if int(id) != ge {
			return nil, fmt.Errorf("shard: global edge %d rebuilt as %d", ge, id)
		}
		if rec.removed {
			g.RemoveEdge(id)
		}
	}

	r := &Router{
		g:         g,
		shards:    make([]*Shard, len(states)),
		shardMu:   make([]sync.RWMutex, len(states)),
		edgeShard: make([]ID, numEdges),
		objLoc:    make(map[graph.ObjectID]ID),
		nextObj:   head.NextObj,
		seed:      head.Seed,
		klPasses:  -1,
	}
	for ge, rec := range edges {
		r.edgeShard[ge] = rec.shard
	}
	for i, st := range states {
		s := &Shard{
			ID:         i,
			remote:     remotes[i],
			globalNode: append([]graph.NodeID(nil), st.GlobalNode...),
			localNode:  make(map[graph.NodeID]graph.NodeID, len(st.GlobalNode)),
			globalEdge: append([]graph.EdgeID(nil), st.GlobalEdge...),
			localEdge:  make(map[graph.EdgeID]graph.EdgeID, len(st.GlobalEdge)),
			localObj:   make(map[graph.ObjectID]graph.ObjectID, len(st.Objects)),
		}
		for li, gn := range st.GlobalNode {
			s.localNode[gn] = graph.NodeID(li)
		}
		for li, ge := range st.GlobalEdge {
			s.localEdge[ge] = graph.EdgeID(li)
		}
		for _, pair := range st.Objects {
			lo, gid := pair[0], pair[1]
			if owner, dup := r.objLoc[gid]; dup {
				return nil, fmt.Errorf("%w: global object %d claimed by shards %d and %d", ErrIntegrity, gid, owner, i)
			}
			s.setGlobalObj(lo, gid)
			s.localObj[gid] = lo
			r.objLoc[gid] = i
			if gid >= r.nextObj {
				r.nextObj = gid + 1
			}
		}
		s.adoptDerived(st)
		r.shards[i] = s
	}
	r.computeShardsOf()
	// The hosts' border sets must match what the node lists imply: a
	// mismatch means host and router disagree on the partition itself.
	for _, s := range r.shards {
		var want []graph.NodeID
		for _, gn := range s.globalNode {
			if len(r.shardsOf[gn]) > 1 {
				want = append(want, gn)
			}
		}
		if len(want) != len(s.borders) {
			return nil, fmt.Errorf("%w: shard %d reports %d borders, topology implies %d", ErrIntegrity, s.ID, len(s.borders), len(want))
		}
		for i := range want {
			if want[i] != s.borders[i] {
				return nil, fmt.Errorf("%w: shard %d border set diverges at %d (%d vs %d)", ErrIntegrity, s.ID, i, s.borders[i], want[i])
			}
		}
	}
	return r, nil
}

// adoptDerived installs an exported state's derived routing state and
// freshness header into a mirror shard.
func (s *Shard) adoptDerived(st *ShardState) {
	s.borders = append([]graph.NodeID(nil), st.Borders...)
	s.indexBorders()
	s.btable = make(map[graph.NodeID][]BorderArc, len(st.BTable))
	for b, arcs := range st.BTable {
		s.btable[b] = append([]BorderArc(nil), arcs...)
	}
	s.repoch.Store(st.Epoch)
	s.rbytes.Store(st.IndexBytes)
	s.rseq.Store(st.Seq)
	s.rjbytes.Store(st.JournalBytes)
}

// Readopt reconciles a mirror shard with a recovered host's exported
// state: the host may have applied mutations whose acknowledgements the
// router never saw (it journals before replying), so the host's state is
// allowed to be AHEAD of the mirror — never behind, and never divergent.
// The shard's index lives on the host, whose boot (AssembleHostShards)
// already upgraded a snapshot saved without shortcut waypoints, so there
// is nothing to upgrade here. Runs under Router.Exclusive.
func (r *Router) Readopt(id ID, st *ShardState) error {
	s := r.shards[id]
	if s.F != nil {
		return fmt.Errorf("shard %d: readopt of an in-process shard", id)
	}
	if st.Seq < s.rseq.Load() {
		return fmt.Errorf("%w: shard %d host came back at journal seq %d, router has acked %d (stale snapshot?)",
			ErrIntegrity, id, st.Seq, s.rseq.Load())
	}
	// The node set is fixed for the deployment's lifetime.
	if len(st.GlobalNode) != len(s.globalNode) {
		return fmt.Errorf("%w: shard %d host reports %d nodes, mirror has %d", ErrIntegrity, id, len(st.GlobalNode), len(s.globalNode))
	}
	for i := range st.GlobalNode {
		if st.GlobalNode[i] != s.globalNode[i] {
			return fmt.Errorf("%w: shard %d node map diverges at local %d", ErrIntegrity, id, i)
		}
	}
	if len(st.Borders) != len(s.borders) {
		return fmt.Errorf("%w: shard %d host reports %d borders, mirror has %d", ErrIntegrity, id, len(st.Borders), len(s.borders))
	}
	for i := range st.Borders {
		if st.Borders[i] != s.borders[i] {
			return fmt.Errorf("%w: shard %d border set diverges at %d", ErrIntegrity, id, i)
		}
	}
	// Edges: the mirror's map must be a prefix of the host's (lost-ack
	// AddRoads can only append). New global edges are grafted onto the
	// global mirror; an ID the router has meanwhile handed to another
	// shard is fatal.
	if len(st.GlobalEdge) < len(s.globalEdge) {
		return fmt.Errorf("%w: shard %d host reports %d edges, mirror has %d", ErrIntegrity, id, len(st.GlobalEdge), len(s.globalEdge))
	}
	if len(st.Edges) != len(st.GlobalEdge) {
		return fmt.Errorf("shard %d: %d edge IDs but %d edges", id, len(st.GlobalEdge), len(st.Edges))
	}
	for li := range s.globalEdge {
		if st.GlobalEdge[li] != s.globalEdge[li] {
			return fmt.Errorf("%w: shard %d edge map diverges at local %d", ErrIntegrity, id, li)
		}
	}
	var err error
	r.mutateMeta(func() {
		for li := len(s.globalEdge); li < len(st.GlobalEdge); li++ {
			ge := st.GlobalEdge[li]
			se := st.Edges[li]
			if int(ge) != r.g.NumEdges() {
				err = fmt.Errorf("%w: shard %d lost-ack road landed on global edge %d, router is at %d",
					ErrIntegrity, id, ge, r.g.NumEdges())
				return
			}
			got, addErr := r.g.AddEdge(s.globalNode[se.U], s.globalNode[se.V], se.W)
			if addErr != nil {
				err = fmt.Errorf("%w: shard %d grafting lost-ack edge %d: %v", ErrIntegrity, id, ge, addErr)
				return
			}
			if got != ge {
				err = fmt.Errorf("%w: shard %d lost-ack edge %d grafted as %d", ErrIntegrity, id, ge, got)
				return
			}
			s.localEdge[ge] = graph.EdgeID(li)
			s.globalEdge = append(s.globalEdge, ge)
			r.edgeShard = append(r.edgeShard, id)
		}
		// Re-sync every edge's weight and open/closed state: ops the
		// router acked are already reflected, lost-ack ones are not.
		for li, ge := range s.globalEdge {
			se := st.Edges[li]
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
		// Objects: rebuild the mirror's maps from the host's live set,
		// dropping mirror entries the host no longer has and adopting
		// lost-ack inserts (checking cross-shard uniqueness).
		for gid := range s.localObj {
			delete(r.objLoc, gid)
		}
		s.localObj = make(map[graph.ObjectID]graph.ObjectID, len(st.Objects))
		s.globalObj = s.globalObj[:0]
		for _, pair := range st.Objects {
			lo, gid := pair[0], pair[1]
			if owner, dup := r.objLoc[gid]; dup {
				err = fmt.Errorf("%w: shard %d host holds global object %d owned by shard %d", ErrIntegrity, id, gid, owner)
				return
			}
			s.setGlobalObj(lo, gid)
			s.localObj[gid] = lo
			r.objLoc[gid] = id
			if gid >= r.nextObj {
				r.nextObj = gid + 1
			}
		}
	})
	if err != nil {
		return err
	}
	s.adoptDerived(st)
	return nil
}
