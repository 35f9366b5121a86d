package graph

import (
	"math"
	"math/rand"
	"testing"

	"road/internal/geom"
)

// line builds a path graph 0-1-2-...-(n-1) with unit weights.
func line(n int) *Graph {
	g := New(n, n-1)
	for i := 0; i < n; i++ {
		g.AddNode(geom.Point{X: float64(i)})
	}
	for i := 0; i < n-1; i++ {
		g.MustAddEdge(NodeID(i), NodeID(i+1), 1)
	}
	return g
}

// grid builds a w×h grid graph with unit weights; node (x,y) has id y*w+x.
func grid(w, h int) *Graph {
	g := New(w*h, 2*w*h)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			g.AddNode(geom.Point{X: float64(x), Y: float64(y)})
		}
	}
	id := func(x, y int) NodeID { return NodeID(y*w + x) }
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if x+1 < w {
				g.MustAddEdge(id(x, y), id(x+1, y), 1)
			}
			if y+1 < h {
				g.MustAddEdge(id(x, y), id(x, y+1), 1)
			}
		}
	}
	return g
}

// randomConnected builds a connected random graph: a random spanning tree
// plus extra random edges, with Euclidean-length weights scaled by ≥1.
func randomConnected(rng *rand.Rand, n, extraEdges int) *Graph {
	g := New(n, n-1+extraEdges)
	for i := 0; i < n; i++ {
		g.AddNode(geom.Point{X: rng.Float64() * 100, Y: rng.Float64() * 100})
	}
	for i := 1; i < n; i++ {
		j := NodeID(rng.Intn(i))
		w := g.Coord(NodeID(i)).Dist(g.Coord(j))*(1+rng.Float64()) + 0.01
		g.MustAddEdge(NodeID(i), j, w)
	}
	for k := 0; k < extraEdges; k++ {
		u := NodeID(rng.Intn(n))
		v := NodeID(rng.Intn(n))
		if u == v {
			continue
		}
		w := g.Coord(u).Dist(g.Coord(v))*(1+rng.Float64()) + 0.01
		g.MustAddEdge(u, v, w)
	}
	return g
}

func TestAddNodeEdgeBasics(t *testing.T) {
	g := New(0, 0)
	a := g.AddNode(geom.Point{X: 1, Y: 2})
	b := g.AddNode(geom.Point{X: 3, Y: 4})
	if g.NumNodes() != 2 {
		t.Fatalf("NumNodes = %d, want 2", g.NumNodes())
	}
	if g.Coord(a) != (geom.Point{X: 1, Y: 2}) {
		t.Fatalf("Coord(a) = %v", g.Coord(a))
	}
	e, err := g.AddEdge(a, b, 5)
	if err != nil {
		t.Fatal(err)
	}
	if g.Weight(e) != 5 {
		t.Fatalf("Weight = %g, want 5", g.Weight(e))
	}
	if got := g.Edge(e).Other(a); got != b {
		t.Fatalf("Other(a) = %d, want %d", got, b)
	}
	if got := g.Edge(e).Other(b); got != a {
		t.Fatalf("Other(b) = %d, want %d", got, a)
	}
	if g.Degree(a) != 1 || g.Degree(b) != 1 {
		t.Fatalf("degrees = %d,%d, want 1,1", g.Degree(a), g.Degree(b))
	}
}

func TestAddEdgeRejectsInvalid(t *testing.T) {
	g := New(0, 0)
	a := g.AddNode(geom.Point{})
	b := g.AddNode(geom.Point{})
	if _, err := g.AddEdge(a, a, 1); err == nil {
		t.Fatal("self-loop accepted")
	}
	if _, err := g.AddEdge(a, b, 0); err == nil {
		t.Fatal("zero weight accepted")
	}
	if _, err := g.AddEdge(a, b, -1); err == nil {
		t.Fatal("negative weight accepted")
	}
	if _, err := g.AddEdge(a, b, math.NaN()); err == nil {
		t.Fatal("NaN weight accepted")
	}
	if _, err := g.AddEdge(a, 99, 1); err == nil {
		t.Fatal("out-of-range endpoint accepted")
	}
}

func TestSetWeight(t *testing.T) {
	g := line(3)
	e := g.EdgeBetween(0, 1)
	if err := g.SetWeight(e, 7); err != nil {
		t.Fatal(err)
	}
	if g.Weight(e) != 7 {
		t.Fatalf("Weight = %g, want 7", g.Weight(e))
	}
	if err := g.SetWeight(e, -1); err == nil {
		t.Fatal("negative reweight accepted")
	}
}

func TestRemoveRestoreEdge(t *testing.T) {
	g := line(3)
	e := g.EdgeBetween(0, 1)
	if err := g.RemoveEdge(e); err != nil {
		t.Fatal(err)
	}
	if g.EdgeBetween(0, 1) != NoEdge {
		t.Fatal("removed edge still in adjacency")
	}
	if g.CountActiveEdges() != 1 {
		t.Fatalf("active edges = %d, want 1", g.CountActiveEdges())
	}
	if err := g.RemoveEdge(e); err == nil {
		t.Fatal("double remove accepted")
	}
	if err := g.RestoreEdge(e); err != nil {
		t.Fatal(err)
	}
	if g.EdgeBetween(0, 1) != e {
		t.Fatal("restored edge missing from adjacency")
	}
	if err := g.RestoreEdge(e); err == nil {
		t.Fatal("double restore accepted")
	}
}

func TestEdgeBetweenParallelPicksLightest(t *testing.T) {
	g := New(2, 2)
	a := g.AddNode(geom.Point{})
	b := g.AddNode(geom.Point{X: 1})
	g.MustAddEdge(a, b, 9)
	light := g.MustAddEdge(a, b, 2)
	if got := g.EdgeBetween(a, b); got != light {
		t.Fatalf("EdgeBetween = %d, want lightest %d", got, light)
	}
}

func TestCloneIndependent(t *testing.T) {
	g := line(4)
	c := g.Clone()
	e := c.EdgeBetween(1, 2)
	if err := c.RemoveEdge(e); err != nil {
		t.Fatal(err)
	}
	if g.EdgeBetween(1, 2) == NoEdge {
		t.Fatal("mutating clone affected original")
	}
	c.AddNode(geom.Point{})
	if g.NumNodes() == c.NumNodes() {
		t.Fatal("node add on clone leaked to original")
	}
}

func TestConnectedAndComponents(t *testing.T) {
	g := line(5)
	if !g.Connected() {
		t.Fatal("line graph not connected")
	}
	if got := len(g.ComponentOf(0)); got != 5 {
		t.Fatalf("component size = %d, want 5", got)
	}
	g.RemoveEdge(g.EdgeBetween(2, 3))
	if g.Connected() {
		t.Fatal("cut graph still connected")
	}
	if got := len(g.ComponentOf(0)); got != 3 {
		t.Fatalf("component size after cut = %d, want 3", got)
	}
	if got := len(g.ComponentOf(4)); got != 2 {
		t.Fatalf("far component size = %d, want 2", got)
	}
}

func TestBounds(t *testing.T) {
	g := New(0, 0)
	g.AddNode(geom.Point{X: -1, Y: 5})
	g.AddNode(geom.Point{X: 3, Y: -2})
	b := g.Bounds()
	want := geom.Rect{Min: geom.Point{X: -1, Y: -2}, Max: geom.Point{X: 3, Y: 5}}
	if b != want {
		t.Fatalf("Bounds = %v, want %v", b, want)
	}
}

func TestDijkstraLine(t *testing.T) {
	g := line(10)
	s := NewSearch(g)
	s.Run(0, Options{})
	for i := 0; i < 10; i++ {
		if got := s.Dist(NodeID(i)); got != float64(i) {
			t.Fatalf("Dist(%d) = %g, want %d", i, got, i)
		}
	}
	path := s.Path(9)
	if len(path) != 10 || path[0] != 0 || path[9] != 9 {
		t.Fatalf("Path(9) = %v", path)
	}
	edges := s.PathEdges(9)
	if len(edges) != 9 {
		t.Fatalf("PathEdges len = %d, want 9", len(edges))
	}
}

func TestDijkstraGridDistances(t *testing.T) {
	g := grid(8, 8)
	s := NewSearch(g)
	s.Run(0, Options{})
	// Manhattan distance on a unit grid.
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			want := float64(x + y)
			if got := s.Dist(NodeID(y*8 + x)); got != want {
				t.Fatalf("Dist(%d,%d) = %g, want %g", x, y, got, want)
			}
		}
	}
}

func TestDijkstraMaxDist(t *testing.T) {
	g := line(10)
	s := NewSearch(g)
	s.Run(0, Options{MaxDist: 3})
	if !s.Reached(3) {
		t.Fatal("node at bound distance not reached")
	}
	if s.Reached(5) {
		t.Fatal("node beyond bound reached")
	}
}

func TestDijkstraTargetsStopEarly(t *testing.T) {
	g := line(1000)
	s := NewSearch(g)
	s.Run(0, Options{Targets: []NodeID{5}})
	if s.Dist(5) != 5 {
		t.Fatalf("Dist(5) = %g, want 5", s.Dist(5))
	}
	if s.Visited > 7 {
		t.Fatalf("target search visited %d nodes, expected early stop", s.Visited)
	}
}

// TestDijkstraTargetsAllocs pins the targeted run at zero allocations
// once warm: target membership lives in reused workspace marks, not in a
// per-run array. Marks an earlier run left unsettled must not count as
// targets of the next one.
func TestDijkstraTargetsAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	g := grid(30, 30)
	s := NewSearch(g)
	far := []NodeID{899, 870}
	near := []NodeID{1, 30}
	s.Run(0, Options{Targets: far})
	s.Run(0, Options{Targets: near})
	if s.Dist(1) != 1 || s.Dist(30) != 1 || s.Reached(899) {
		t.Fatalf("near run: Dist(1)=%g Dist(30)=%g reached(899)=%v", s.Dist(1), s.Dist(30), s.Reached(899))
	}
	if allocs := testing.AllocsPerRun(20, func() { s.Run(0, Options{Targets: far}) }); allocs != 0 {
		t.Fatalf("warm targeted run allocates %v; want 0", allocs)
	}
	if s.Dist(899) != 58 {
		t.Fatalf("Dist(899) = %g, want 58", s.Dist(899))
	}
}

func TestDijkstraFilter(t *testing.T) {
	// Square 0-1-2-3-0; block edge (0,1): distance to 1 must go the long way.
	g := New(4, 4)
	for i := 0; i < 4; i++ {
		g.AddNode(geom.Point{X: float64(i)})
	}
	e01 := g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	g.MustAddEdge(2, 3, 1)
	g.MustAddEdge(3, 0, 1)
	s := NewSearch(g)
	s.Run(0, Options{Filter: func(e EdgeID) bool { return e != e01 }})
	if got := s.Dist(1); got != 3 {
		t.Fatalf("filtered Dist(1) = %g, want 3", got)
	}
}

func TestDijkstraOnSettleAbort(t *testing.T) {
	g := line(100)
	s := NewSearch(g)
	count := 0
	s.Run(0, Options{OnSettle: func(n NodeID, d float64) bool {
		count++
		return count < 5
	}})
	if count != 5 {
		t.Fatalf("OnSettle called %d times, want 5", count)
	}
}

func TestShortestPathUnreachable(t *testing.T) {
	g := line(4)
	g.RemoveEdge(g.EdgeBetween(1, 2))
	s := NewSearch(g)
	path, d := s.ShortestPath(0, 3)
	if path != nil || !math.IsInf(d, 1) {
		t.Fatalf("unreachable: path=%v d=%g", path, d)
	}
}

func TestShortestPathTrivial(t *testing.T) {
	g := line(4)
	s := NewSearch(g)
	path, d := s.ShortestPath(2, 2)
	if d != 0 || len(path) != 1 || path[0] != 2 {
		t.Fatalf("self path = %v,%g", path, d)
	}
}

func TestSearchReusableAcrossRuns(t *testing.T) {
	g := line(10)
	s := NewSearch(g)
	s.Run(0, Options{})
	s.Run(9, Options{})
	if got := s.Dist(0); got != 9 {
		t.Fatalf("second run Dist(0) = %g, want 9", got)
	}
	// Stale state from the first run must not leak.
	if got := s.Dist(9); got != 0 {
		t.Fatalf("second run Dist(9) = %g, want 0", got)
	}
}

func TestSearchReflectsWeightChange(t *testing.T) {
	g := line(3)
	s := NewSearch(g)
	if d := s.ShortestDist(0, 2); d != 2 {
		t.Fatalf("before reweight: %g", d)
	}
	g.SetWeight(g.EdgeBetween(0, 1), 10)
	if d := s.ShortestDist(0, 2); d != 11 {
		t.Fatalf("after reweight: %g, want 11", d)
	}
}

func TestAStarMatchesDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		g := randomConnected(rng, 60, 40)
		scale := EuclideanScale(g)
		if scale <= 0 {
			t.Fatal("EuclideanScale <= 0 on random graph")
		}
		s := NewSearch(g)
		s2 := NewSearch(g)
		for q := 0; q < 10; q++ {
			u := NodeID(rng.Intn(60))
			v := NodeID(rng.Intn(60))
			want := s.ShortestDist(u, v)
			got := s2.AStar(u, v, scale)
			if math.Abs(want-got) > 1e-9 {
				t.Fatalf("trial %d: AStar(%d,%d) = %g, Dijkstra = %g", trial, u, v, got, want)
			}
		}
	}
}

func TestAStarVisitsNoMoreThanDijkstra(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randomConnected(rng, 400, 200)
	scale := EuclideanScale(g)
	s := NewSearch(g)
	totalA, totalD := 0, 0
	for q := 0; q < 50; q++ {
		u := NodeID(rng.Intn(400))
		v := NodeID(rng.Intn(400))
		s.AStar(u, v, scale)
		totalA += s.Visited
		s.Run(u, Options{Targets: []NodeID{v}})
		totalD += s.Visited
	}
	if totalA > totalD {
		t.Fatalf("A* settled %d nodes vs Dijkstra %d; heuristic not helping", totalA, totalD)
	}
}

func TestEuclideanScaleAdmissibility(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randomConnected(rng, 100, 80)
	c := EuclideanScale(g)
	for id := 0; id < g.NumEdges(); id++ {
		e := g.Edge(EdgeID(id))
		if e.Removed {
			continue
		}
		eu := g.Coord(e.U).Dist(g.Coord(e.V))
		if e.Weight < c*eu-1e-12 {
			t.Fatalf("edge %d: weight %g < scale %g × euclid %g", id, e.Weight, c, eu)
		}
	}
}

func TestEstimateDiameterLine(t *testing.T) {
	g := line(50)
	if d := g.EstimateDiameter(); d != 49 {
		t.Fatalf("diameter = %g, want 49", d)
	}
}

func TestEstimateDiameterLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := randomConnected(rng, 80, 40)
	est := g.EstimateDiameter()
	s := NewSearch(g)
	// The estimate must never exceed the true diameter.
	trueDiam := 0.0
	for n := 0; n < g.NumNodes(); n++ {
		s.Run(NodeID(n), Options{})
		for m := 0; m < g.NumNodes(); m++ {
			if d := s.Dist(NodeID(m)); !math.IsInf(d, 1) && d > trueDiam {
				trueDiam = d
			}
		}
	}
	if est > trueDiam+1e-9 {
		t.Fatalf("estimate %g exceeds true diameter %g", est, trueDiam)
	}
	if est < trueDiam/2 {
		t.Fatalf("estimate %g below half of true diameter %g", est, trueDiam)
	}
}

func BenchmarkDijkstraGrid100(b *testing.B) {
	g := grid(100, 100)
	s := NewSearch(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(0, Options{})
	}
}
