package road

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"road/internal/core"
	"road/internal/graph"
	"road/internal/shard"
)

// TestRouteLegsMatchDijkstra holds every shape of a sharded route leg —
// border distances (capped and uncapped), a node target, and an object
// target from one seed and from many — to a plain graph.Search Dijkstra
// on the shard's live local graph. Each leg runs through an in-process
// searcher and through a loopback host's, on a few-thousand-node network,
// between rounds of weight changes, closures, reopenings and object
// churn applied to both deployments alike.
func TestRouteLegsMatchDijkstra(t *testing.T) {
	const seed, nodes, objects, shards = 19, 2400, 160, 4
	_, sdb := shardedPair(t, seed, nodes, objects, shards)
	rdb, _ := remoteFrom(t, sdb)
	rng := rand.New(rand.NewSource(seed))

	check := func(phase string) {
		for i := 0; i < shards; i++ {
			sh := sdb.Router().Shard(i)
			lg := sh.F.Graph()
			oracle := graph.NewSearch(lg)
			borders := make([]graph.NodeID, 0, len(sh.Borders()))
			for _, b := range sh.Borders() {
				lb, _ := sh.LocalNode(b)
				borders = append(borders, lb)
			}
			objs := sh.F.Objects().All()
			if len(objs) == 0 {
				t.Fatalf("%s: shard %d holds no objects; the fixture is broken", phase, i)
			}
			searchers := []struct {
				name string
				q    shard.Searcher
			}{
				{"local", sh.NewLocalSearcher()},
				{"host", rdb.Router().Shard(i).Remote().NewSearcher()},
			}
			for j := 0; j < 5; j++ {
				src := graph.NodeID(rng.Intn(lg.NumNodes()))
				one := []core.Seed{{Node: src}}
				many := []core.Seed{one[0]}
				for len(many) < 4 {
					many = append(many, core.Seed{Node: graph.NodeID(rng.Intn(lg.NumNodes())), Dist: 2 * rng.Float64()})
				}
				to := graph.NodeID(rng.Intn(lg.NumNodes()))
				obj := objs[rng.Intn(len(objs))]
				label := fmt.Sprintf("%s shard%d q%d", phase, i, j)

				oracle.RunSeeded(one, graph.Options{})
				wantBorders := make([]float64, len(borders))
				var finite []float64
				for k, b := range borders {
					wantBorders[k] = oracle.Dist(b)
					if !math.IsInf(wantBorders[k], 1) {
						finite = append(finite, wantBorders[k])
					}
				}
				borderCap := 1.0
				if len(finite) > 0 {
					borderCap = finite[rng.Intn(len(finite))]
				}
				wantNode := oracle.Dist(to)
				wantObj := objectDist(lg, oracle, obj)
				oracle.RunSeeded(many, graph.Options{})
				wantMany := objectDist(lg, oracle, obj)

				for _, sq := range searchers {
					l := label + " " + sq.name
					resp := runLeg(t, l+" borders", sq.q, shard.LegReq{Seeds: one, Targets: borders, PathTo: graph.NoNode, Object: -1})
					for k, want := range wantBorders {
						assertLegDist(t, fmt.Sprintf("%s borders[%d]", l, k), want, resp.Dists[k])
					}
					resp = runLeg(t, l+" capped borders", sq.q, shard.LegReq{Seeds: one, Targets: borders, Cap: borderCap, PathTo: graph.NoNode, Object: -1})
					for k, want := range wantBorders {
						got := resp.Dists[k]
						switch {
						case want <= borderCap*(1-1e-9):
							assertLegDist(t, fmt.Sprintf("%s capped borders[%d]", l, k), want, got)
						case want > borderCap*(1+1e-9) && !math.IsInf(got, 1):
							t.Fatalf("%s capped borders[%d]: %g past cap %g reported as %g", l, k, want, borderCap, got)
						}
					}

					resp = runLeg(t, l+" node", sq.q, shard.LegReq{Seeds: one, PathTo: to, Object: -1})
					assertLegDist(t, l+" node", wantNode, resp.Dist)
					assertLegWalk(t, l+" node", lg, one, resp, to, 0)

					resp = runLeg(t, l+" object", sq.q, shard.LegReq{Seeds: one, PathTo: graph.NoNode, Object: obj.ID})
					assertLegDist(t, l+" object", wantObj, resp.Dist)
					assertObjectWalk(t, l+" object", lg, one, resp, obj)

					resp = runLeg(t, l+" seeded object", sq.q, shard.LegReq{Seeds: many, PathTo: graph.NoNode, Object: obj.ID})
					assertLegDist(t, l+" seeded object", wantMany, resp.Dist)
					assertObjectWalk(t, l+" seeded object", lg, many, resp, obj)
				}
			}
		}
	}

	mutate := func(label string, op func(s Store) error) {
		errS, errR := op(sdb), op(rdb)
		if (errS == nil) != (errR == nil) {
			t.Fatalf("%s: mutation divergence: %v vs %v", label, errS, errR)
		}
	}

	check("initial")
	for round := 0; round < 3; round++ {
		for m := 0; m < 8; m++ {
			e := EdgeID(rng.Intn(sdb.NumRoads()))
			switch rng.Intn(5) {
			case 0:
				w := 0.2 + 3*rng.Float64()
				mutate("set-distance", func(s Store) error { return s.SetRoadDistance(e, w) })
			case 1:
				mutate("close", func(s Store) error { return s.CloseRoad(e) })
			case 2:
				mutate("reopen", func(s Store) error { return s.ReopenRoad(e) })
			case 3:
				off := rng.Float64() * 0.1
				mutate("insert", func(s Store) error {
					_, err := s.AddObject(e, off, 1)
					return err
				})
			case 4:
				id := ObjectID(rng.Intn(objects + round*4))
				mutate("delete", func(s Store) error { return s.RemoveObject(id) })
			}
		}
		check(fmt.Sprintf("round%d", round))
	}
}

// runLeg runs one leg and copies its response out of the searcher's
// scratch.
func runLeg(t *testing.T, label string, q shard.Searcher, req shard.LegReq) shard.LegResp {
	t.Helper()
	resp, err := q.Leg(context.Background(), req)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	resp.Dists = append([]float64(nil), resp.Dists...)
	resp.Path = append([]graph.NodeID(nil), resp.Path...)
	return resp
}

// objectDist is the oracle's distance to o through the cheaper end of its
// edge, from the seeds of the search's last run.
func objectDist(g *graph.Graph, s *graph.Search, o graph.Object) float64 {
	e := g.Edge(o.Edge)
	return math.Min(s.Dist(e.U)+o.DU, s.Dist(e.V)+o.DV)
}

func assertLegDist(t *testing.T, label string, want, got float64) {
	t.Helper()
	if math.IsInf(want, 1) || math.IsInf(got, 1) {
		if math.IsInf(want, 1) != math.IsInf(got, 1) {
			t.Fatalf("%s: dist %g, Dijkstra %g", label, got, want)
		}
		return
	}
	if math.Abs(got-want) > 1e-9*math.Max(1, want) {
		t.Fatalf("%s: dist %g, Dijkstra %g", label, got, want)
	}
}

// assertLegWalk checks resp.Path is a walk over live edges from one of
// seeds to end whose length, plus the seed's distance and offset, is
// resp.Dist. An unreachable goal must come back without a path.
func assertLegWalk(t *testing.T, label string, g *graph.Graph, seeds []core.Seed, resp shard.LegResp, end graph.NodeID, offset float64) {
	t.Helper()
	if math.IsInf(resp.Dist, 1) {
		if len(resp.Path) != 0 {
			t.Fatalf("%s: unreachable goal with a %d-node path", label, len(resp.Path))
		}
		return
	}
	if len(resp.Path) == 0 || resp.Path[len(resp.Path)-1] != end {
		t.Fatalf("%s: path %v does not end at %d", label, resp.Path, end)
	}
	start := math.Inf(1)
	for _, sd := range seeds {
		if sd.Node == resp.Path[0] {
			start = math.Min(start, sd.Dist)
		}
	}
	if math.IsInf(start, 1) {
		t.Fatalf("%s: path starts at %d, not a seed", label, resp.Path[0])
	}
	sum := start + offset
	for k := 1; k < len(resp.Path); k++ {
		w := math.Inf(1)
		for _, h := range g.Neighbors(resp.Path[k-1]) {
			if h.To == resp.Path[k] && !g.Edge(h.Edge).Removed {
				w = math.Min(w, g.Weight(h.Edge))
			}
		}
		if math.IsInf(w, 1) {
			t.Fatalf("%s: hop %d->%d has no live edge", label, resp.Path[k-1], resp.Path[k])
		}
		sum += w
	}
	if math.Abs(sum-resp.Dist) > 1e-9*math.Max(1, resp.Dist) {
		t.Fatalf("%s: path walks %g, leg reports %g", label, sum, resp.Dist)
	}
}

// assertObjectWalk is assertLegWalk for an object goal: the path ends at
// an endpoint of the object's edge, and the offset from there counts.
func assertObjectWalk(t *testing.T, label string, g *graph.Graph, seeds []core.Seed, resp shard.LegResp, o graph.Object) {
	t.Helper()
	e := g.Edge(o.Edge)
	end, offset := e.U, o.DU
	if n := len(resp.Path); n > 0 && resp.Path[n-1] == e.V && (resp.Path[n-1] != e.U || o.DV < o.DU) {
		end, offset = e.V, o.DV
	}
	assertLegWalk(t, label, g, seeds, resp, end, offset)
}
