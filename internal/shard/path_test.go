package shard

import (
	"errors"
	"math/rand"
	"slices"
	"testing"

	"road/internal/apierr"
	"road/internal/core"
	"road/internal/graph"
)

// TestShardedPathPopsRideTheIndex pins the mechanism of a sharded route:
// every leg is a route search on its shard's index, descending only the
// Rnets that can hold its goal — and none for a shard border, which is a
// pinned border of every Rnet holding its edges — so on CA split four
// ways the median route settles at most 341 nodes (its median, 273, plus
// 25%). Per-leg plain Dijkstra settled ≈ 11,300; descending every
// border's chains, ≈ 1,290.
func TestShardedPathPopsRideTheIndex(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CA network")
	}
	r, _, set, nodes := caRouter(t)
	rs := r.NewSession()
	objs := set.All()
	rng := rand.New(rand.NewSource(3))
	var pops []int
	for _, from := range nodes[:200] {
		o := objs[rng.Intn(len(objs))]
		_, _, stats, err := rs.PathToLimited(from, o.ID, core.Limits{})
		if errors.Is(err, apierr.ErrUnreachable) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		pops = append(pops, stats.NodesPopped)
	}
	slices.Sort(pops)
	median := pops[len(pops)/2]
	t.Logf("%d CA routes over 4 shards: median %d pops, max %d", len(pops), median, pops[len(pops)-1])
	if median > 341 {
		t.Fatalf("median sharded route settles %d nodes; want ≤ 341", median)
	}
}

// TestBorderSearchWalksTheOverlay pins the pinned-border mechanism at its
// source: a watched search from a node to every border of its shard — the
// route's head-borders leg and the btable repair's endpoint search —
// descends no Rnet for the borders, so on CA split four ways the median
// call settles at most 150 nodes. Descending every border's chains
// settled ≈ 515.
func TestBorderSearchWalksTheOverlay(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CA network")
	}
	r, _, _, nodes := caRouter(t)
	var pops []int
	for _, from := range nodes[:200] {
		sh := r.shards[r.HomeOf(from)]
		ln, _ := sh.LocalNode(from)
		sess := sh.F.NewSession()
		d, stats, err := sess.WatchedDistances(nil, []core.Seed{{Node: ln}}, sh.watch, 0, core.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		if len(d) != len(sh.borders) {
			t.Fatalf("%d distances for %d borders", len(d), len(sh.borders))
		}
		pops = append(pops, stats.NodesPopped)
	}
	slices.Sort(pops)
	median := pops[len(pops)/2]
	t.Logf("200 CA border searches over 4 shards: median %d pops, max %d", median, pops[len(pops)-1])
	if median > 150 {
		t.Fatalf("median border search settles %d nodes; want ≤ 150", median)
	}
}

// TestShardedPathAllocs pins a warm session's cross-shard route: legs run
// in the shard sessions' workspaces, the route is assembled in session
// scratch, and the copy handed to the caller is the one allocation of a
// route — however many legs and nodes it has.
func TestShardedPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; the pin only holds on plain builds")
	}
	_, r, g := buildPair(t, 11, 600, 60, 4)
	rs := r.NewSession()
	rng := rand.New(rand.NewSource(11))
	objs := r.shards[0].F.Objects().All()
	type pair struct {
		from graph.NodeID
		obj  graph.ObjectID
	}
	var pairs []pair
	shortest, longest := 1<<30, 0
	for len(pairs) < 24 {
		from := graph.NodeID(rng.Intn(g.NumNodes()))
		if homes := r.shardsOf[from]; len(homes) != 1 || homes[0] == 0 {
			continue // a cross-shard route: query node off the object's shard
		}
		lo := objs[rng.Intn(len(objs))].ID
		gid := r.shards[0].globalObj[lo]
		path, _, _, err := rs.PathToLimited(from, gid, core.Limits{})
		if err != nil {
			continue
		}
		shortest, longest = min(shortest, len(path)), max(longest, len(path))
		pairs = append(pairs, pair{from, gid})
	}
	if longest < 3*shortest {
		t.Fatalf("routes span %d to %d nodes; the fixture should vary route length", shortest, longest)
	}
	i := 0
	route := func() {
		p := pairs[i%len(pairs)]
		if _, _, _, err := rs.PathToLimited(p.from, p.obj, core.Limits{}); err != nil {
			t.Fatal(err)
		}
		i++
	}
	for range pairs {
		route() // warm the session's scratch on every pair
	}
	avg := testing.AllocsPerRun(len(pairs), route)
	t.Logf("%v allocs per cross-shard route (routes of %d to %d nodes)", avg, shortest, longest)
	if avg > 1 {
		t.Fatalf("cross-shard route allocates %v per call (routes of %d to %d nodes); want 1, the returned slice", avg, shortest, longest)
	}
}
