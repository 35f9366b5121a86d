package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"road/internal/core"
	"road/internal/graph"
	"road/internal/snapshot"
)

// cloneFrameworks round-trips every shard framework of r through a
// snapshot, as a restart would, so an assembler under test owns its
// frameworks and cannot disturb r's.
func cloneFrameworks(t testing.TB, r *Router) []*core.Framework {
	t.Helper()
	out := make([]*core.Framework, len(r.shards))
	for i, s := range r.shards {
		var buf bytes.Buffer
		if err := snapshot.Save(s.F, 0, &buf); err != nil {
			t.Fatal(err)
		}
		f, _, err := snapshot.Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = f
	}
	return out
}

// exportStates exports every shard of an in-process router the way a
// shard host serves /state: the shard's own state plus the deployment
// header copied from the manifest.
func exportStates(r *Router) []*ShardState {
	m := r.Manifest()
	out := make([]*ShardState, len(r.shards))
	for i, s := range r.shards {
		st := s.ExportState()
		st.Shards, st.Seed, st.NumNodes, st.NextObj, st.Isolated = m.Shards, m.Seed, m.NumNodes, m.NextObj, m.Isolated
		out[i] = st
	}
	return out
}

// TestAssemblyRejections pins every malformed input the three assemblers
// refuse: each case must fail, and the cases that are integrity failures
// must stay recognizable as ErrIntegrity.
func TestAssemblyRejections(t *testing.T) {
	_, r, _ := buildPair(t, 8, 260, 40, 4)
	m0 := r.Manifest()
	for i := range 2 {
		if len(m0.PerShard[i].Objects) == 0 {
			t.Fatalf("fixture shard %d holds no objects", i)
		}
	}
	last := func(s []graph.NodeID) *graph.NodeID { return &s[len(s)-1] }

	manifestCases := []struct {
		name      string
		integrity bool
		mutate    func(m *Manifest, fws *[]*core.Framework)
	}{
		{"version", false, func(m *Manifest, _ *[]*core.Framework) { m.Version++ }},
		{"shard count", false, func(m *Manifest, _ *[]*core.Framework) { m.Shards-- }},
		{"missing framework", false, func(_ *Manifest, fws *[]*core.Framework) { *fws = (*fws)[:3] }},
		{"missing shard manifest", false, func(m *Manifest, _ *[]*core.Framework) { m.PerShard = m.PerShard[:3] }},
		{"node out of range", false, func(m *Manifest, _ *[]*core.Framework) {
			*last(m.PerShard[0].GlobalNode) = graph.NodeID(m.NumNodes + 5)
		}},
		{"negative node", false, func(m *Manifest, _ *[]*core.Framework) { m.PerShard[1].GlobalNode[0] = -1 }},
		{"edge out of range", false, func(m *Manifest, _ *[]*core.Framework) {
			ge := m.PerShard[0].GlobalEdge
			ge[len(ge)-1] = graph.EdgeID(m.NumEdges + 5)
		}},
		{"edge claimed twice", false, func(m *Manifest, _ *[]*core.Framework) {
			m.PerShard[1].GlobalEdge[0] = m.PerShard[0].GlobalEdge[0]
		}},
		{"edge owned by no shard", false, func(m *Manifest, _ *[]*core.Framework) { m.NumEdges++ }},
		{"node in no shard", false, func(m *Manifest, _ *[]*core.Framework) { m.NumNodes++ }},
		{"isolated out of range", false, func(m *Manifest, _ *[]*core.Framework) {
			m.Isolated = append(m.Isolated, IsolatedNode{ID: graph.NodeID(m.NumNodes + 3)})
		}},
		{"object claimed twice", false, func(m *Manifest, _ *[]*core.Framework) {
			m.PerShard[1].Objects[0][1] = m.PerShard[0].Objects[0][1]
		}},
		{"object missing from snapshot", false, func(m *Manifest, _ *[]*core.Framework) {
			m.PerShard[0].Objects[0][0] = 9999
		}},
		{"node count", false, func(m *Manifest, _ *[]*core.Framework) {
			sm := &m.PerShard[2]
			sm.GlobalNode = sm.GlobalNode[:len(sm.GlobalNode)-1]
		}},
		{"edge count", false, func(m *Manifest, _ *[]*core.Framework) {
			sm := &m.PerShard[2]
			sm.GlobalEdge = sm.GlobalEdge[:len(sm.GlobalEdge)-1]
		}},
		{"object count", false, func(m *Manifest, _ *[]*core.Framework) {
			sm := &m.PerShard[0]
			sm.Objects = sm.Objects[:len(sm.Objects)-1]
		}},
	}
	for _, tc := range manifestCases {
		m, fws := r.Manifest(), cloneFrameworks(t, r)
		tc.mutate(m, &fws)
		_, err := Reassemble(fws, m)
		checkRejection(t, "Reassemble: "+tc.name, err, tc.integrity)
	}

	stateCases := []struct {
		name      string
		integrity bool
		mutate    func(sts *[]*ShardState, rems *[]RemoteShard)
	}{
		{"no states", false, func(sts *[]*ShardState, rems *[]RemoteShard) { *sts, *rems = nil, nil }},
		{"missing handle", false, func(_ *[]*ShardState, rems *[]RemoteShard) { *rems = (*rems)[:3] }},
		{"shard count", false, func(sts *[]*ShardState, _ *[]RemoteShard) {
			for _, st := range *sts {
				st.Shards++
			}
		}},
		{"state ID", false, func(sts *[]*ShardState, _ *[]RemoteShard) { (*sts)[1].ID = 2 }},
		{"header seed", true, func(sts *[]*ShardState, _ *[]RemoteShard) { (*sts)[2].Seed++ }},
		{"header nodes", true, func(sts *[]*ShardState, _ *[]RemoteShard) { (*sts)[3].NumNodes++ }},
		{"node in no shard", false, func(sts *[]*ShardState, _ *[]RemoteShard) {
			for _, st := range *sts {
				st.NumNodes++
			}
		}},
		{"node out of range", false, func(sts *[]*ShardState, _ *[]RemoteShard) {
			st := (*sts)[0]
			*last(st.GlobalNode) = graph.NodeID(st.NumNodes + 5)
		}},
		{"isolated out of range", false, func(sts *[]*ShardState, _ *[]RemoteShard) {
			st := (*sts)[0]
			st.Isolated = append(st.Isolated, IsolatedNode{ID: graph.NodeID(st.NumNodes + 3)})
		}},
		{"edge out of range", false, func(sts *[]*ShardState, _ *[]RemoteShard) {
			ge := (*sts)[0].GlobalEdge
			ge[len(ge)-1] = graph.EdgeID(m0.NumEdges + 5)
		}},
		{"edge claimed twice", false, func(sts *[]*ShardState, _ *[]RemoteShard) {
			(*sts)[1].GlobalEdge[0] = (*sts)[0].GlobalEdge[0]
		}},
		{"object claimed twice", true, func(sts *[]*ShardState, _ *[]RemoteShard) {
			(*sts)[1].Objects[0][1] = (*sts)[0].Objects[0][1]
		}},
		{"coordinate count", false, func(sts *[]*ShardState, _ *[]RemoteShard) {
			st := (*sts)[2]
			st.Coords = st.Coords[:len(st.Coords)-1]
		}},
		{"edge list count", false, func(sts *[]*ShardState, _ *[]RemoteShard) {
			st := (*sts)[2]
			st.Edges = st.Edges[:len(st.Edges)-1]
		}},
		{"border set short", true, func(sts *[]*ShardState, _ *[]RemoteShard) {
			st := (*sts)[0]
			st.Borders = st.Borders[1:]
		}},
		{"border set diverges", true, func(sts *[]*ShardState, _ *[]RemoteShard) {
			st := (*sts)[0]
			for _, gn := range st.GlobalNode {
				if !slices.Contains(st.Borders, gn) {
					st.Borders[0] = gn
					return
				}
			}
			t.Fatal("fixture shard 0 has no interior node")
		}},
	}
	for _, tc := range stateCases {
		sts := exportStates(r)
		rems := make([]RemoteShard, len(sts))
		tc.mutate(&sts, &rems)
		_, err := AssembleRemote(sts, rems)
		checkRejection(t, "AssembleRemote: "+tc.name, err, tc.integrity)
	}

	hostCases := []struct {
		name      string
		integrity bool
		mutate    func(m *Manifest, fws map[ID]*core.Framework, idents map[ID]*ShardManifest)
	}{
		{"version", false, func(m *Manifest, _ map[ID]*core.Framework, _ map[ID]*ShardManifest) { m.Version++ }},
		{"missing shard manifest", false, func(m *Manifest, _ map[ID]*core.Framework, _ map[ID]*ShardManifest) {
			m.PerShard = m.PerShard[:3]
		}},
		{"shard outside deployment", false, func(_ *Manifest, fws map[ID]*core.Framework, _ map[ID]*ShardManifest) {
			fws[7] = fws[0]
		}},
		{"negative shard", false, func(_ *Manifest, fws map[ID]*core.Framework, _ map[ID]*ShardManifest) {
			fws[-1] = fws[0]
		}},
		{"sidecar node map diverges", false, func(m *Manifest, _ map[ID]*core.Framework, idents map[ID]*ShardManifest) {
			gn := idents[2].GlobalNode
			gn[len(gn)-1]++
		}},
		{"node count", false, func(_ *Manifest, _ map[ID]*core.Framework, idents map[ID]*ShardManifest) {
			sm := idents[0]
			sm.GlobalNode = sm.GlobalNode[:len(sm.GlobalNode)-1]
		}},
		{"manifest node count", false, func(m *Manifest, _ map[ID]*core.Framework, idents map[ID]*ShardManifest) {
			delete(idents, 0)
			sm := &m.PerShard[0]
			sm.GlobalNode = sm.GlobalNode[:len(sm.GlobalNode)-1]
		}},
		{"edge count", false, func(_ *Manifest, _ map[ID]*core.Framework, idents map[ID]*ShardManifest) {
			sm := idents[2]
			sm.GlobalEdge = sm.GlobalEdge[:len(sm.GlobalEdge)-1]
		}},
		{"object count", false, func(_ *Manifest, _ map[ID]*core.Framework, idents map[ID]*ShardManifest) {
			sm := idents[0]
			sm.Objects = sm.Objects[:len(sm.Objects)-1]
		}},
		{"object missing from snapshot", false, func(_ *Manifest, _ map[ID]*core.Framework, idents map[ID]*ShardManifest) {
			idents[0].Objects[0][0] = 9999
		}},
	}
	for _, tc := range hostCases {
		m, all := r.Manifest(), cloneFrameworks(t, r)
		fws := map[ID]*core.Framework{0: all[0], 2: all[2]}
		idents := map[ID]*ShardManifest{0: r.shards[0].IdentityManifest(), 2: r.shards[2].IdentityManifest()}
		tc.mutate(m, fws, idents)
		_, err := AssembleHostShards(m, fws, idents)
		checkRejection(t, "AssembleHostShards: "+tc.name, err, tc.integrity)
	}
}

func checkRejection(t *testing.T, label string, err error, integrity bool) {
	t.Helper()
	switch {
	case err == nil:
		t.Errorf("%s: accepted", label)
	case integrity && !errors.Is(err, ErrIntegrity):
		t.Errorf("%s: %v, want ErrIntegrity", label, err)
	}
}

// TestMalformedHostStateRejected: a host state whose local topology or
// object map points outside its own ID spaces is refused with
// ErrIntegrity — at assembly and at re-adoption — instead of panicking
// the router on an out-of-range index.
func TestMalformedHostStateRejected(t *testing.T) {
	_, r, _ := buildPair(t, 8, 260, 40, 4)
	cases := []struct {
		name   string
		mutate func(st *ShardState)
	}{
		{"edge endpoint past the node map", func(st *ShardState) { st.Edges[0].U = graph.NodeID(len(st.GlobalNode) + 5) }},
		{"negative edge endpoint", func(st *ShardState) { st.Edges[0].V = -1 }},
		{"negative local object", func(st *ShardState) { st.Objects[0][0] = -3 }},
		{"node map out of order", func(st *ShardState) {
			st.GlobalNode[0], st.GlobalNode[1] = st.GlobalNode[1], st.GlobalNode[0]
		}},
	}
	for _, tc := range cases {
		sts := exportStates(r)
		tc.mutate(sts[0])
		_, err := AssembleRemote(sts, make([]RemoteShard, len(sts)))
		if !errors.Is(err, ErrIntegrity) {
			t.Errorf("AssembleRemote: %s: err = %v, want ErrIntegrity", tc.name, err)
		}
	}

	mirror, err := AssembleRemote(exportStates(r), make([]RemoteShard, len(r.shards)))
	if err != nil {
		t.Fatal(err)
	}
	numEdges, numObjects := mirror.g.NumEdges(), len(mirror.objLoc)
	readopts := []struct {
		name   string
		mutate func(st *ShardState)
	}{
		{"grafted edge endpoint past the node map", func(st *ShardState) {
			st.GlobalEdge = append(st.GlobalEdge, graph.EdgeID(numEdges))
			st.Edges = append(st.Edges, StateEdge{U: graph.NodeID(len(st.GlobalNode) + 5), V: 0, W: 1})
		}},
		{"negative local object", func(st *ShardState) { st.Objects[0][0] = -3 }},
	}
	for _, tc := range readopts {
		st := exportStates(r)[0]
		tc.mutate(st)
		if err := mirror.Readopt(0, st); !errors.Is(err, ErrIntegrity) {
			t.Errorf("Readopt: %s: err = %v, want ErrIntegrity", tc.name, err)
		}
		if mirror.g.NumEdges() != numEdges || len(mirror.objLoc) != numObjects {
			t.Errorf("Readopt: %s: rejected state still changed the mirror (%d edges, %d objects; want %d, %d)",
				tc.name, mirror.g.NumEdges(), len(mirror.objLoc), numEdges, numObjects)
		}
	}
}

// TestAssemblersAgree: a router built by Build and mutated, the router
// Reassemble makes of its frameworks and manifest, and the mirror router
// AssembleRemote makes of its exported states hold the same identity,
// borders, ownership tables, ID watermark and global mirror.
func TestAssemblersAgree(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CA network")
	}
	r, _, _, _ := caRouter(t)
	rng := rand.New(rand.NewSource(3))
	apply := func(sid ID, op snapshot.Op, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if err := r.ApplyOp(sid, op, true); err != nil {
			t.Fatal(err)
		}
	}
	var inserted []graph.ObjectID
	for range 12 {
		ge := graph.EdgeID(rng.Intn(r.g.NumEdges()))
		inserted = append(inserted, r.NextObjectID())
		sid, op, err := r.EncodeInsertObject(ge, r.g.Edge(ge).Weight/2, 1)
		apply(sid, op, err)
	}
	// Delete the newest object too: the ID watermark must not fall back.
	for _, gid := range []graph.ObjectID{0, 17, inserted[3], inserted[len(inserted)-1]} {
		sid, op, err := r.EncodeDeleteObject(gid)
		apply(sid, op, err)
	}
	s := r.shards[1]
	u, v := s.globalNode[0], s.globalNode[len(s.globalNode)-1]
	sid, op, err := r.EncodeAddRoad(u, v, 3.5)
	apply(sid, op, err)
	sid, op, err = r.EncodeSetDistance(5, 0.25)
	apply(sid, op, err)
	sid, op, err = r.EncodeClose(9)
	apply(sid, op, err)

	re, err := Reassemble(cloneFrameworks(t, r), r.Manifest())
	if err != nil {
		t.Fatal(err)
	}
	assertSameAssembly(t, "Reassemble", r, re)
	mirror, err := AssembleRemote(exportStates(r), make([]RemoteShard, len(r.shards)))
	if err != nil {
		t.Fatal(err)
	}
	assertSameAssembly(t, "AssembleRemote", r, mirror)
}

func assertSameAssembly(t *testing.T, label string, want, got *Router) {
	t.Helper()
	if len(got.shards) != len(want.shards) {
		t.Fatalf("%s: %d shards, want %d", label, len(got.shards), len(want.shards))
	}
	liveObjs := func(s []graph.ObjectID) []graph.ObjectID {
		for len(s) > 0 && s[len(s)-1] < 0 {
			s = s[:len(s)-1]
		}
		return s
	}
	for i, ws := range want.shards {
		gs := got.shards[i]
		switch {
		case !slices.Equal(gs.globalNode, ws.globalNode) || !maps.Equal(gs.localNode, ws.localNode):
			t.Errorf("%s: shard %d node maps differ", label, i)
		case !slices.Equal(gs.globalEdge, ws.globalEdge) || !maps.Equal(gs.localEdge, ws.localEdge):
			t.Errorf("%s: shard %d edge maps differ", label, i)
		case !slices.Equal(liveObjs(gs.globalObj), liveObjs(ws.globalObj)) || !maps.Equal(gs.localObj, ws.localObj):
			t.Errorf("%s: shard %d object maps differ", label, i)
		case !slices.Equal(gs.borders, ws.borders) || !slices.Equal(gs.localBorders, ws.localBorders):
			t.Errorf("%s: shard %d borders differ: %v vs %v", label, i, gs.borders, ws.borders)
		}
	}
	if !slices.Equal(got.edgeShard, want.edgeShard) {
		t.Errorf("%s: edge ownership differs", label)
	}
	if !maps.Equal(got.objLoc, want.objLoc) {
		t.Errorf("%s: object locations differ (%d vs %d objects)", label, len(got.objLoc), len(want.objLoc))
	}
	if got.nextObj != want.nextObj {
		t.Errorf("%s: next object ID %d, want %d", label, got.nextObj, want.nextObj)
	}
	if got.g.NumNodes() != want.g.NumNodes() || got.g.NumEdges() != want.g.NumEdges() {
		t.Fatalf("%s: global mirror has %d nodes/%d edges, want %d/%d",
			label, got.g.NumNodes(), got.g.NumEdges(), want.g.NumNodes(), want.g.NumEdges())
	}
	for n := range want.g.NumNodes() {
		if got.g.Coord(graph.NodeID(n)) != want.g.Coord(graph.NodeID(n)) {
			t.Fatalf("%s: global node %d at %v, want %v", label, n, got.g.Coord(graph.NodeID(n)), want.g.Coord(graph.NodeID(n)))
		}
	}
	for e := range want.g.NumEdges() {
		if ge, we := got.g.Edge(graph.EdgeID(e)), want.g.Edge(graph.EdgeID(e)); ge != we {
			t.Fatalf("%s: global edge %d is %+v, want %+v", label, e, ge, we)
		}
	}
}

// TestStateWireLayout pins the bytes a host's /state and identity sidecar
// put on the wire and on disk: key set, key order and encodings.
func TestStateWireLayout(t *testing.T) {
	st := &ShardState{
		ID: 1, Shards: 2, Seed: 7, NumNodes: 5, NextObj: 9,
		Isolated:   []IsolatedNode{{ID: 4, X: 1, Y: 2}},
		GlobalNode: []graph.NodeID{0, 2, 3},
		GlobalEdge: []graph.EdgeID{1, 4},
		Coords:     [][2]float64{{0, 0}, {1, 0.5}, {2, 1}},
		Edges:      []StateEdge{{U: 0, V: 1, W: 1.5}, {U: 1, V: 2, W: 2, Removed: true}},
		Objects:    [][2]graph.ObjectID{{0, 3}, {2, 8}},
		Borders:    []graph.NodeID{2},
		BTable:     map[graph.NodeID][]BorderArc{2: {{To: 3, Dist: 1.25}}},
		Epoch:      11, Seq: 12, Fingerprint: "00000000000000ff", IndexBytes: 13, JournalBytes: 14,
	}
	const wantState = `{"id":1,"shards":2,"seed":7,"num_nodes":5,"next_obj":9,"isolated":[{"id":4,"x":1,"y":2}],` +
		`"global_node":[0,2,3],"global_edge":[1,4],"coords":[[0,0],[1,0.5],[2,1]],` +
		`"edges":[{"u":0,"v":1,"w":1.5},{"u":1,"v":2,"w":2,"removed":true}],"objects":[[0,3],[2,8]],` +
		`"borders":[2],"btable":{"2":[{"To":3,"Dist":1.25}]},"epoch":11,"seq":12,` +
		`"fingerprint":"00000000000000ff","index_bytes":13,"journal_bytes":14}`
	if got, err := json.Marshal(st); err != nil || string(got) != wantState {
		t.Fatalf("state encodes as\n%s (%v)\nwant\n%s", got, err, wantState)
	}
	sm := &ShardManifest{GlobalNode: st.GlobalNode, GlobalEdge: st.GlobalEdge, Objects: st.Objects}
	const wantSidecar = `{"global_node":[0,2,3],"global_edge":[1,4],"objects":[[0,3],[2,8]]}`
	if got, err := json.Marshal(sm); err != nil || string(got) != wantSidecar {
		t.Fatalf("sidecar encodes as %s (%v), want %s", got, err, wantSidecar)
	}

	// An exported state carries every key of that layout, in that order.
	_, r, _ := buildPair(t, 8, 260, 40, 4)
	exp := exportStates(r)[0]
	exp.Isolated = st.Isolated
	exp.Fingerprint = st.Fingerprint
	raw, err := json.Marshal(exp)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := topLevelKeys(t, raw), topLevelKeys(t, []byte(wantState)); !slices.Equal(got, want) {
		t.Fatalf("exported state keys %v, want %v", got, want)
	}
}

// topLevelKeys lists a JSON object's keys in encoding order.
func topLevelKeys(t *testing.T, raw []byte) []string {
	t.Helper()
	var keys []string
	dec := json.NewDecoder(bytes.NewReader(raw))
	if _, err := dec.Token(); err != nil {
		t.Fatal(err)
	}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		keys = append(keys, tok.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatal(err)
		}
	}
	return keys
}

// maxFuzzLocalObj caps the local object IDs FuzzAssembleStates feeds the
// assembler. A local ID sizes the mirror's dense object table
// (Shard.globalObj), which a host legitimately drives up with churn, so
// past this cap a mutated digit would measure allocation, not validation.
const maxFuzzLocalObj = 1 << 20

// FuzzAssembleStates throws mutated exported-state sets at the router's
// state intake: whatever a host (or a corrupted reply) sends, AssembleRemote
// returns a router or an error, and never panics.
func FuzzAssembleStates(f *testing.F) {
	_, r, _ := buildPair(f, 3, 40, 6, 2)
	seed, err := json.Marshal(exportStates(r))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, data []byte) {
		var states []*ShardState
		if json.Unmarshal(data, &states) != nil {
			return
		}
		tooLarge := func(p [2]graph.ObjectID) bool { return p[0] > maxFuzzLocalObj }
		for _, st := range states {
			if st != nil && slices.ContainsFunc(st.Objects, tooLarge) {
				return
			}
		}
		r, err := AssembleRemote(states, make([]RemoteShard, len(states)))
		if (r == nil) == (err == nil) {
			t.Fatalf("AssembleRemote returned router %v and error %v", r != nil, err)
		}
	})
}
