package shard

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"road/internal/core"
	"road/internal/graph"
	"road/internal/snapshot"
)

// snapshotDerived deep-copies a shard's derived routing state so it can
// be compared against a from-scratch rebuild.
func snapshotDerived(s *Shard) (map[graph.NodeID][]BorderArc, []float64) {
	bt := make(map[graph.NodeID][]BorderArc, len(s.btable))
	for b, arcs := range s.btable {
		bt[b] = append([]BorderArc(nil), arcs...)
	}
	return bt, append([]float64(nil), s.borderDist...)
}

// assertDerivedEqual compares incrementally-maintained derived state with
// a from-scratch rebuild, within the FP tolerance of differently
// associated sums (filter candidates sum prefix + w + suffix; a rebuild
// sums strictly along the path).
func assertDerivedEqual(t *testing.T, label string, s *Shard, bt map[graph.NodeID][]BorderArc, bd []float64) {
	t.Helper()
	const eps = 1e-9
	close := func(a, b float64) bool {
		if math.IsInf(a, 1) || math.IsInf(b, 1) {
			return math.IsInf(a, 1) && math.IsInf(b, 1)
		}
		return math.Abs(a-b) <= eps*math.Max(1, math.Max(a, b))
	}
	if len(bt) != len(s.btable) {
		t.Fatalf("%s: shard %d: maintained btable has %d rows, rebuild %d", label, s.ID, len(bt), len(s.btable))
	}
	for b, want := range s.btable {
		got := bt[b]
		if len(got) != len(want) {
			t.Fatalf("%s: shard %d: border %d row has %d arcs, rebuild %d (%v vs %v)",
				label, s.ID, b, len(got), len(want), got, want)
		}
		for i := range want {
			if got[i].To != want[i].To || !close(got[i].Dist, want[i].Dist) {
				t.Fatalf("%s: shard %d: border %d arc %d = %+v, rebuild %+v",
					label, s.ID, b, i, got[i], want[i])
			}
		}
	}
	for i := range bd {
		if !close(bd[i], s.borderDist[i]) {
			t.Fatalf("%s: shard %d: borderDist[%d] = %g, rebuild %g", label, s.ID, i, bd[i], s.borderDist[i])
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
// stream, the incrementally-maintained btable and borderDist of the
// touched shard must equal a from-scratch refreshDerived rebuild.
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
			bt, bd := snapshotDerived(s)
			s.refreshDerived(true)
			assertDerivedEqual(t, "after op", s, bt, bd)
			// Put the maintained state back so later increments build on
			// their own output, not the rebuild's (catches drift
			// compounding across a long mutation stream).
			s.btable, s.borderDist = bt, bd
		}
		if applied < 20 {
			t.Fatalf("seed %d: only %d mutations applied", seed, applied)
		}
		// Final sweep: every shard, not just touched ones.
		for _, s := range r.shards {
			bt, bd := snapshotDerived(s)
			s.refreshDerived(true)
			assertDerivedEqual(t, "final", s, bt, bd)
		}
	}
}

// TestMirrorDerivedUpdateExact is TestFilterRefreshExact for the other
// consumer of the repair: a router-side mirror that applies the
// DerivedUpdate recipes a shard host emits — the decrease arithmetic and
// the increase case's recomputed rows — must hold, after every mutation,
// the btable and borderDist a from-scratch rebuild of the host shard
// produces.
func TestMirrorDerivedUpdateExact(t *testing.T) {
	_, r, _ := buildPair(t, 8, 260, 40, 4)
	rng := rand.New(rand.NewSource(56))
	kinds := map[string]int{}
	for _, s := range r.shards {
		bt, bd := snapshotDerived(s)
		mirror := &Shard{ID: s.ID, borders: s.borders, localNode: s.localNode, btable: bt, borderDist: bd}
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
			if rep.Derived != nil {
				kinds[rep.Derived.Kind]++
			}
			mirror.applyDerivedUpdate(rep.Derived)
			hbt, hbd := snapshotDerived(s)
			s.refreshDerived(true)
			assertDerivedEqual(t, "mirror", s, mirror.btable, mirror.borderDist)
			// The host keeps building on its own maintained state.
			s.btable, s.borderDist = hbt, hbd
		}
	}
	if kinds[DerivedDecrease] == 0 || kinds[DerivedRows] == 0 {
		t.Fatalf("mutation stream did not exercise both recipes: %v", kinds)
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
		bt, bd := snapshotDerived(s)
		s.refreshDerived(true)
		assertDerivedEqual(t, "post-storm", s, bt, bd)
	}
}
