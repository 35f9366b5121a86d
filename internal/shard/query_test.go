package shard

import (
	"context"
	"testing"

	"road/internal/core"
	"road/internal/dataset"
	"road/internal/graph"
	"road/internal/snapshot"
)

// homeCounter wraps a shard's Searcher and counts the searches seeded at
// exactly the query node (local ID from) at distance 0: the home
// searches. Border re-entries are seeded at borders, which a single-home
// query node is not.
type homeCounter struct {
	Searcher
	from  graph.NodeID
	homes int
}

func (c *homeCounter) Search(ctx context.Context, req SearchReq) (SearchResp, error) {
	if len(req.Seeds) == 1 && req.Seeds[0] == (core.Seed{Node: c.from}) {
		c.homes++
	}
	return c.Searcher.Search(ctx, req)
}

// countHomes wraps every shard searcher of rs in a homeCounter.
func countHomes(rs *Session) []*homeCounter {
	out := make([]*homeCounter, len(rs.q))
	for h := range rs.q {
		out[h] = &homeCounter{Searcher: rs.q[h]}
		rs.q[h] = out[h]
	}
	return out
}

// nearestBorder gives every local node's distance (and path) to the
// shard's nearest border: one multi-source plain Dijkstra from all
// borders over the shard's local graph, independent of the shard index.
func nearestBorder(s *Shard) *graph.Search {
	gs := graph.NewSearch(s.F.Graph())
	seeds := make([]graph.Seed, len(s.localBorders))
	for i, b := range s.localBorders {
		seeds[i] = graph.Seed{Node: b}
	}
	gs.RunSeeded(seeds, graph.Options{})
	return gs
}

// TestWatchedHomeSearchDecides pins the single-home decision rule on CA
// K=4 at three object densities. For every single-home node of the
// sample, the router's kNN and range answers equal the mono answers; a
// query escalates exactly when a border lies strictly below the home
// shard's kth result (kNN) or within the radius (range), by a
// nearest-border distance the test computes itself; and the home shard
// is searched from the query node exactly once, escalated or not.
func TestWatchedHomeSearchDecides(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CA network")
	}
	g := dataset.MustGenerate(dataset.Scaled(dataset.CA(), benchScale))
	nodes := dataset.RandomNodes(g, 512, 7)
	if raceEnabled {
		nodes = nodes[:64]
	}
	for _, objects := range []int{2000, 200, 50} {
		set := dataset.PlaceUniform(g, objects, 1, 0, 1, 2, 3)
		gr, gm := g.Clone(), g.Clone()
		r, err := Build(gr, set.Clone(gr), Options{Shards: 4, Seed: 1, Core: core.Config{BufferPages: -1}})
		if err != nil {
			t.Fatal(err)
		}
		mono, err := core.Build(gm, set.Clone(gm), core.Config{BufferPages: -1})
		if err != nil {
			t.Fatal(err)
		}
		ms := mono.NewSession()
		rs := r.NewSession()
		counters := countHomes(rs)
		nb := make([]*graph.Search, len(r.shards))
		local := make([]*core.Session, len(r.shards))
		for i, s := range r.shards {
			nb[i], local[i] = nearestBorder(s), s.F.NewSession()
		}

		single, escalated, final := 0, 0, 0
		check := func(label string, h ID, wantEsc bool, query func()) {
			t.Helper()
			sh := r.shards[h]
			before := sh.escalations.Load()
			counters[h].homes = 0
			query()
			if esc := sh.escalations.Load() > before; esc != wantEsc {
				t.Fatalf("%d objects, %s: escalated = %v, nearest border says %v", objects, label, esc, wantEsc)
			}
			if counters[h].homes != 1 {
				t.Fatalf("%d objects, %s: %d home searches, want 1", objects, label, counters[h].homes)
			}
			if wantEsc {
				escalated++
			} else {
				final++
			}
		}
		for _, q := range nodes {
			if len(r.shardsOf[q]) != 1 {
				continue
			}
			single++
			h := r.shardsOf[q][0]
			lf := r.shards[h].localNode[q]
			counters[h].from = lf
			for _, k := range []int{10, 20} {
				home, _ := local[h].KNN(core.Query{Node: lf}, k)
				check("knn", h, nb[h].Dist(lf) < kthOf(home, k), func() {
					want, _ := ms.KNN(core.Query{Node: q}, k)
					got, _ := rs.KNN(q, k, 0)
					sameResults(t, "knn", want, got)
				})
			}
			for _, radius := range []float64{10, 30, 60} {
				check("within", h, nb[h].Dist(lf) <= radius, func() {
					want, _ := ms.Range(core.Query{Node: q}, radius)
					got, _ := rs.Within(q, radius, 0)
					sameResults(t, "within", want, got)
				})
			}
		}
		t.Logf("%d objects: %d single-home nodes, %d queries escalated, %d final", objects, single, escalated, final)
		if escalated == 0 || final == 0 {
			t.Fatalf("%d objects: sample missed a branch: %d escalated, %d final", objects, escalated, final)
		}
	}
}

// TestHomeRerunAfterEpochChange drives the two query phases by hand and
// mutates the home shard between them: the locked phase must notice the
// moved epoch, re-run the home search once, and answer for the new
// network and object set — here, an edge closed on the query node's
// nearest-border path and an object inserted at the query node.
func TestHomeRerunAfterEpochChange(t *testing.T) {
	mono, r, _ := buildPair(t, 8, 260, 40, 4)
	ms := mono.NewSession()
	rs := r.NewSession()
	counters := countHomes(rs)
	const k = 3

	// A single-home node whose kNN escalates and whose nearest-border
	// path is at least two edges long, so the closed edge is not one the
	// inserted object sits on.
	var (
		q, lf graph.NodeID
		h     ID
		path  []graph.EdgeID
		run   homeRun
	)
	for n := graph.NodeID(0); ; n++ {
		if int(n) == r.g.NumNodes() {
			t.Fatal("no single-home node escalates with a two-edge nearest-border path")
		}
		if len(r.shardsOf[n]) != 1 {
			continue
		}
		q, h = n, r.shardsOf[n][0]
		lf = r.shards[h].localNode[q]
		if path = nearestBorder(r.shards[h]).PathEdges(lf); len(path) < 2 {
			continue
		}
		counters[h].from, counters[h].homes = lf, 0
		var final bool
		if run, final = rs.homeFast(h, q, SearchReq{K: k}, core.Limits{}); !final {
			break
		}
	}
	s := r.shards[h]
	lg := s.F.Graph()

	// insertAtQuery places a new object at the query node, on both sides.
	insertAtQuery := func() {
		t.Helper()
		var le graph.EdgeID = -1
		for _, half := range lg.Neighbors(lf) {
			if !lg.Edge(half.Edge).Removed {
				le = half.Edge
				break
			}
		}
		if le < 0 {
			t.Fatal("query node has no live edge")
		}
		du := 0.0
		if lg.Edge(le).U != lf {
			du = lg.Weight(le)
		}
		o, err := mono.InsertObject(s.globalEdge[le], du, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.ApplyOp(h, snapshot.Op{Kind: snapshot.OpInsertObject, Edge: le, Value: du, Object: o.ID}, true); err != nil {
			t.Fatal(err)
		}
	}
	// locked runs a locked phase under the whole-router read view.
	locked := func(phase func() ([]core.Result, core.QueryStats, error)) []core.Result {
		t.Helper()
		r.rlockAll()
		res, _, err := phase()
		r.runlockAll()
		if err != nil {
			t.Fatal(err)
		}
		if counters[h].homes != 2 {
			t.Fatalf("%d home searches across both phases, want 2 (the locked phase must re-run)", counters[h].homes)
		}
		return res
	}

	// kNN: close the path's first edge (at the border end), insert.
	closed := path[0]
	if _, err := mono.DeleteEdge(s.globalEdge[closed]); err != nil {
		t.Fatal(err)
	}
	if err := r.ApplyOp(h, opClose(closed), true); err != nil {
		t.Fatal(err)
	}
	insertAtQuery()
	got := locked(func() ([]core.Result, core.QueryStats, error) {
		return rs.knnHomeLocked(h, q, k, 0, core.Limits{}, run)
	})
	want, _ := ms.KNN(core.Query{Node: q}, k)
	sameResults(t, "knn after epoch change", want, got)

	// Range: a radius past the nearest border, so the fast run escalates;
	// then reopen the edge and insert again.
	radius := 2 * nearestBorder(s).Dist(lf)
	counters[h].homes = 0
	run, final := rs.homeFast(h, q, SearchReq{Radius: radius}, core.Limits{})
	if final {
		t.Fatalf("range fast run at radius %g settled no border", radius)
	}
	if _, err := mono.RestoreEdge(s.globalEdge[closed]); err != nil {
		t.Fatal(err)
	}
	if err := r.ApplyOp(h, opReopen(closed), true); err != nil {
		t.Fatal(err)
	}
	insertAtQuery()
	got = locked(func() ([]core.Result, core.QueryStats, error) {
		return rs.withinHomeLocked(h, q, radius, 0, core.Limits{}, run)
	})
	want, _ = ms.Range(core.Query{Node: q}, radius)
	sameResults(t, "within after epoch change", want, got)
}
