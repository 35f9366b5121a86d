package shard

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"road/internal/core"
	"road/internal/graph"
	"road/internal/snapshot"
)

// snapshotDerived deep-copies a shard's border table.
func snapshotDerived(s *Shard) map[graph.NodeID][]BorderArc {
	bt := make(map[graph.NodeID][]BorderArc, len(s.btable))
	for b, arcs := range s.btable {
		bt[b] = append([]BorderArc(nil), arcs...)
	}
	return bt
}

// oracleBTable is the border table by the textbook method, independent
// of the shard index that both the repair and rebuildBTable run on: one
// plain Dijkstra over the shard's live local graph from each border,
// target-pruned to the borders.
func oracleBTable(s *Shard) map[graph.NodeID][]BorderArc {
	bt := make(map[graph.NodeID][]BorderArc, len(s.borders))
	if len(s.borders) < 2 {
		return bt
	}
	gs := graph.NewSearch(s.F.Graph())
	for i, a := range s.borders {
		gs.Run(s.localBorders[i], graph.Options{Targets: s.localBorders})
		var arcs []BorderArc
		for j, to := range s.borders {
			if d := gs.Dist(s.localBorders[j]); i != j && !isInf(d) {
				arcs = append(arcs, BorderArc{To: to, Dist: d})
			}
		}
		bt[a] = arcs
	}
	return bt
}

// assertDerivedEqual compares a maintained border table bt with the
// oracle's for s, within the FP tolerance of differently associated sums
// (filter candidates sum prefix + w + suffix; a Dijkstra sums strictly
// along the path).
func assertDerivedEqual(t *testing.T, label string, s *Shard, bt map[graph.NodeID][]BorderArc) {
	t.Helper()
	const eps = 1e-9
	close := func(a, b float64) bool {
		return math.Abs(a-b) <= eps*math.Max(1, math.Max(a, b))
	}
	want := oracleBTable(s)
	if len(bt) != len(want) {
		t.Fatalf("%s: shard %d: maintained btable has %d rows, oracle %d", label, s.ID, len(bt), len(want))
	}
	for b, wantRow := range want {
		got := bt[b]
		if len(got) != len(wantRow) {
			t.Fatalf("%s: shard %d: border %d row has %d arcs, oracle %d (%v vs %v)",
				label, s.ID, b, len(got), len(wantRow), got, wantRow)
		}
		for i := range wantRow {
			if got[i].To != wantRow[i].To || !close(got[i].Dist, wantRow[i].Dist) {
				t.Fatalf("%s: shard %d: border %d arc %d = %+v, oracle %+v",
					label, s.ID, b, i, got[i], wantRow[i])
			}
		}
	}
}

// randomNetOp draws one network mutation for the router's current state:
// re-weights (up and down), closures, reopenings and road additions, in
// journal-op form addressed to the owning shard.
func randomNetOp(r *Router, rng *rand.Rand) (ID, snapshot.Op, bool) {
	switch rng.Intn(4) {
	case 0: // re-weight
		ge := graph.EdgeID(rng.Intn(r.g.NumEdges()))
		if r.g.Edge(ge).Removed {
			return 0, snapshot.Op{}, false
		}
		s, _ := r.OwnerOfEdge(ge)
		w := 0.05 + rng.Float64()*4
		return s.ID, snapshot.Op{Kind: snapshot.OpSetDistance, Edge: s.localEdge[ge], Value: w}, true
	case 1: // close
		ge := graph.EdgeID(rng.Intn(r.g.NumEdges()))
		if r.g.Edge(ge).Removed {
			return 0, snapshot.Op{}, false
		}
		s, _ := r.OwnerOfEdge(ge)
		return s.ID, snapshot.Op{Kind: snapshot.OpClose, Edge: s.localEdge[ge]}, true
	case 2: // reopen
		ge := graph.EdgeID(rng.Intn(r.g.NumEdges()))
		if !r.g.Edge(ge).Removed {
			return 0, snapshot.Op{}, false
		}
		s, _ := r.OwnerOfEdge(ge)
		return s.ID, snapshot.Op{Kind: snapshot.OpReopen, Edge: s.localEdge[ge]}, true
	default: // add a road between two nodes of one shard
		sid := ID(rng.Intn(len(r.shards)))
		s := r.shards[sid]
		n := s.F.Graph().NumNodes()
		u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if u == v {
			return 0, snapshot.Op{}, false
		}
		return sid, snapshot.Op{
			Kind:  snapshot.OpAddRoad,
			U:     u,
			V:     v,
			Value: 0.1 + rng.Float64()*2,
			Edge:  r.NextEdgeID(),
		}, true
	}
}

// TestFilterRefreshExact is the exactness property test of the §5.2
// filter-and-refresh maintenance: after EVERY mutation of a random
// stream, the incrementally-maintained btable of the touched shard must
// equal the plain-Dijkstra oracle's, and so must a from-scratch
// refreshDerived rebuild at the end.
func TestFilterRefreshExact(t *testing.T) {
	for _, seed := range []int64{1, 8, 23} {
		_, r, _ := buildPair(t, seed, 260, 40, 4)
		rng := rand.New(rand.NewSource(seed * 7))
		applied := 0
		for i := 0; i < 120 && applied < 60; i++ {
			sid, op, ok := randomNetOp(r, rng)
			if !ok {
				continue
			}
			if err := r.ApplyOp(sid, op, true); err != nil {
				// Per-op failures (already-closed edge, rejected road) are
				// part of the workload; derived state must still be sound.
				continue
			}
			applied++
			s := r.shards[sid]
			assertDerivedEqual(t, "after op", s, s.btable)
		}
		if applied < 20 {
			t.Fatalf("seed %d: only %d mutations applied", seed, applied)
		}
		// Final sweep: every shard, not just touched ones, maintained and
		// rebuilt.
		for _, s := range r.shards {
			assertDerivedEqual(t, "final", s, s.btable)
			s.refreshDerived(true)
			assertDerivedEqual(t, "rebuild", s, s.btable)
		}
	}
	t.Run("CA-K4", testFilterRefreshCA)
}

// repairOp applies one op to a full local shard the way Router.ApplyOp
// does for its shard-side half — framework and identity maps, re-warm,
// incremental repair — and reports whether the btable skip applied.
func repairOp(t *testing.T, s *Shard, op snapshot.Op) (skipped bool) {
	t.Helper()
	res, err := s.applyLocal(op)
	if err != nil {
		t.Fatalf("shard %d: %v: %v", s.ID, op, err)
	}
	s.F.WarmTrees()
	skipped = res.chg.overlayKept
	s.maintainDerived(res.chg)
	return skipped
}

// testFilterRefreshCA is TestFilterRefreshExact's CA row: CA split four
// ways under the benchmark writers' network mix — set-distance ×1.2 and
// back, close/reopen pairs — checked against a rebuild after every op.
// The stream must take both the btable skip and the full repair.
func testFilterRefreshCA(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CA network")
	}
	r, _, _, _ := caRouter(t)
	rng := rand.New(rand.NewSource(40))
	pairs := 200
	if raceEnabled {
		pairs = 20
	}
	var skipped, repaired int
	for i := 0; i < pairs; i++ {
		s := r.shards[rng.Intn(len(r.shards))]
		g := s.F.Graph()
		le := graph.EdgeID(rng.Intn(g.NumEdges()))
		if g.Edge(le).Removed {
			continue
		}
		ops := [2]snapshot.Op{{Kind: snapshot.OpClose, Edge: le}, {Kind: snapshot.OpReopen, Edge: le}}
		if rng.Intn(100) < 85 {
			w := g.Weight(le)
			ops = [2]snapshot.Op{{Kind: snapshot.OpSetDistance, Edge: le, Value: w * 1.2}, {Kind: snapshot.OpSetDistance, Edge: le, Value: w}}
		}
		for _, op := range ops {
			if repairOp(t, s, op) {
				skipped++
			} else if op.Kind == snapshot.OpSetDistance {
				repaired++
			}
			assertDerivedEqual(t, "CA", s, s.btable)
		}
	}
	t.Logf("set-distance ops: %d skipped the btable repair, %d ran it", skipped, repaired)
	if skipped == 0 || repaired == 0 {
		t.Fatalf("stream missed a path: %d skipped, %d repaired", skipped, repaired)
	}
}

// TestRepairAllocs pins the incremental repair — alone, not the framework
// apply — of warm set-distance restore pairs at a constant number of
// allocations that does not grow with the shard: the border searches,
// and the border-table splice run in reused scratch.
func TestRepairAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the pin only holds on plain builds")
	}
	// ReadMemStats counts mallocs process-wide, and a garbage collection
	// inside the measured window shows up as a few that are not the
	// repair's (about one run in ten failed with 5); collect only
	// between tests.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, nodes := range []int{260, 2400} {
		_, r, _ := buildPair(t, 8, nodes, 40, 4)
		s := r.shards[0]
		g := s.F.Graph()
		rng := rand.New(rand.NewSource(3))
		edges := make([]graph.EdgeID, 20)
		for i := range edges {
			edges[i] = graph.EdgeID(rng.Intn(g.NumEdges()))
		}
		var mallocs uint64
		var before, after runtime.MemStats
		for pass := 0; pass < 2; pass++ { // the first pass warms the scratch
			mallocs = 0
			for _, le := range edges {
				w := g.Weight(le)
				for _, v := range [2]float64{w * 1.2, w} {
					res, err := s.applyLocal(snapshot.Op{Kind: snapshot.OpSetDistance, Edge: le, Value: v})
					if err != nil {
						t.Fatal(err)
					}
					s.F.WarmTrees()
					runtime.ReadMemStats(&before)
					s.maintainDerived(res.chg)
					runtime.ReadMemStats(&after)
					mallocs += after.Mallocs - before.Mallocs
				}
			}
		}
		if mallocs != 0 {
			t.Fatalf("%d-node network: %d warm restore pairs' repairs allocated %d times; want 0", nodes, len(edges), mallocs)
		}
	}
}

// TestMirrorDerivedUpdateExact is TestFilterRefreshExact for the other
// consumer of the repair: a router-side mirror that patches its border
// table with the changed rows a shard host ships must hold, after every
// mutation, the table the plain-Dijkstra oracle computes on the host
// shard.
func TestMirrorDerivedUpdateExact(t *testing.T) {
	_, r, _ := buildPair(t, 8, 260, 40, 4)
	rng := rand.New(rand.NewSource(56))
	withRows := 0
	for _, s := range r.shards {
		mirror := &Shard{ID: s.ID, borders: s.borders, localNode: s.localNode, btable: snapshotDerived(s)}
		for i := 0; i < 40; i++ {
			le := graph.EdgeID(rng.Intn(s.F.Graph().NumEdges()))
			op := snapshot.Op{Kind: snapshot.OpSetDistance, Edge: le, Value: 0.05 + rng.Float64()*4}
			switch {
			case s.F.Graph().Edge(le).Removed:
				op = snapshot.Op{Kind: snapshot.OpReopen, Edge: le}
			case rng.Intn(4) == 0:
				op = snapshot.Op{Kind: snapshot.OpClose, Edge: le}
			}
			rep, err := s.HostApply(op)
			if err != nil {
				continue // a rejected op changes nothing on either side
			}
			if rep.Derived != nil && len(rep.Derived.Rows) > 0 {
				withRows++
			}
			if err := mirror.applyDerivedUpdate(rep.Derived); err != nil {
				t.Fatal(err)
			}
			assertDerivedEqual(t, "mirror", s, mirror.btable)
		}
	}
	if withRows == 0 {
		t.Fatal("mutation stream shipped no changed rows")
	}
}

// staleHost is a RemoteShard over an in-process shard whose apply replies
// carry a derived-state update of the given kind, as a host from another
// release would send.
type staleHost struct {
	s    *Shard
	kind string
}

func (h *staleHost) NewSearcher() Searcher { return h.s.NewLocalSearcher() }
func (h *staleHost) Host() string          { return "stale" }

func (h *staleHost) Apply(op snapshot.Op) (ApplyReply, error) {
	rep, err := h.s.HostApply(op)
	rep.Derived = &DerivedUpdate{Kind: h.kind, Rows: []BorderRow{{Border: h.s.borders[0]}}}
	return rep, err
}

func (h *staleHost) Object(lo graph.ObjectID) (graph.Object, bool, error) {
	o, ok := h.s.F.Objects().Get(lo)
	return o, ok, nil
}

// TestMirrorRejectsUnknownRecipe: a mirror that receives a derived-state
// update it cannot read — here an older host's "decrease" recipe — fails
// the op with ErrIntegrity and leaves its state untouched, instead of
// skipping the update and serving from a stale mirror.
func TestMirrorRejectsUnknownRecipe(t *testing.T) {
	_, local, _ := buildPair(t, 8, 260, 40, 4)
	states := make([]*ShardState, len(local.shards))
	remotes := make([]RemoteShard, len(local.shards))
	m := local.Manifest()
	for i, s := range local.shards {
		st := s.ExportState()
		st.Shards, st.Seed, st.NumNodes, st.NextObj, st.Isolated = m.Shards, m.Seed, m.NumNodes, m.NextObj, m.Isolated
		states[i] = st
		remotes[i] = &staleHost{s: s, kind: "decrease"}
	}
	r, err := AssembleRemote(states, remotes)
	if err != nil {
		t.Fatal(err)
	}
	mirror := r.shards[0]
	b := mirror.borders[0]
	before := append([]BorderArc(nil), mirror.btable[b]...)
	err = r.ApplyOp(0, snapshot.Op{Kind: snapshot.OpSetDistance, Edge: 0, Value: 7}, true)
	if !errors.Is(err, ErrIntegrity) {
		t.Fatalf("mirror applied an unreadable recipe: err = %v, want ErrIntegrity", err)
	}
	if len(before) == 0 || !slices.Equal(mirror.btable[b], before) {
		t.Fatalf("rejected update still patched the mirror: border %d row %v -> %v", b, before, mirror.btable[b])
	}
}

// TestPerShardLockConcurrency hammers the router with concurrent
// cross-shard queries WHILE mutations stream through Router.Mutate — the
// -race acceptance target for per-shard write locking. Results are
// checked for internal soundness (sorted distances); exactness under
// mutation is TestFilterRefreshExact's and the equivalence suites' job.
func TestPerShardLockConcurrency(t *testing.T) {
	_, r, _ := buildPair(t, 31, 240, 50, 4)
	diam := r.g.EstimateDiameter()

	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			rs := r.NewSession()
			for i := 0; i < 300; i++ {
				n := graph.NodeID(rng.Intn(r.g.NumNodes()))
				var res []core.Result
				switch rng.Intn(3) {
				case 0:
					res, _ = rs.KNN(n, 1+rng.Intn(6), 0)
				case 1:
					res, _ = rs.Within(n, diam*0.08, 0)
				default:
					o := graph.ObjectID(rng.Intn(50))
					if _, ok := r.Object(o); ok {
						rs.PathTo(n, o)
					}
				}
				for j := 1; j < len(res); j++ {
					if res[j].Dist < res[j-1].Dist {
						t.Errorf("unsorted result under concurrent mutation: %g after %g", res[j].Dist, res[j-1].Dist)
						return
					}
				}
			}
		}(int64(w))
	}

	// Mutation stream through the locked path, concurrent with readers.
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 150; i++ {
		sid, op, ok := randomNetOp(r, rng)
		if !ok {
			continue
		}
		r.Mutate(
			func() (ID, snapshot.Op, error) { return sid, op, nil },
			func(id ID, op snapshot.Op) error { return r.ApplyOp(id, op, true) },
		)
	}
	wg.Wait()

	// The maintained tables must still be exact after the storm.
	for _, s := range r.shards {
		assertDerivedEqual(t, "post-storm", s, s.btable)
	}
}
