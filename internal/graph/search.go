package graph

import (
	"math"

	"road/internal/pqueue"
)

// Search is a reusable Dijkstra/A* workspace over one graph. It amortizes
// the per-query allocation of distance and parent arrays with epoch
// stamping, so issuing thousands of queries (as the benchmark harness does)
// costs no steady-state allocation. A Search is not safe for concurrent use.
type Search struct {
	g      *Graph
	dist   []float64
	parent []NodeID // parent node in the search tree
	via    []EdgeID // edge used to reach the node
	epoch  []uint32
	cur    uint32
	pq     *pqueue.IndexedQueue
	// want marks the targets a run still has to settle: membership
	// without a per-run array. Grown on the first targeted run; every
	// run leaves it all false.
	want []bool

	// Visited is the number of nodes settled by the last run — the
	// traversal-cost metric reported alongside times in the evaluation.
	Visited int
}

// NewSearch returns a workspace for searches over g. The workspace remains
// valid across edge re-weights and removals; it must be recreated only if
// nodes are added.
func NewSearch(g *Graph) *Search {
	n := g.NumNodes()
	return &Search{
		g:      g,
		dist:   make([]float64, n),
		parent: make([]NodeID, n),
		via:    make([]EdgeID, n),
		epoch:  make([]uint32, n),
		pq:     pqueue.NewIndexed(n),
	}
}

func (s *Search) begin() {
	s.cur++
	if s.cur == 0 { // epoch counter wrapped: clear stamps
		clear(s.epoch)
		s.cur = 1
	}
	s.pq.Reset()
	s.Visited = 0
}

func (s *Search) touch(n NodeID) {
	if s.epoch[n] != s.cur {
		s.epoch[n] = s.cur
		s.dist[n] = math.Inf(1)
		s.parent[n] = NoNode
		s.via[n] = NoEdge
	}
}

// Dist returns the distance to n computed by the last run, or +Inf if n was
// not reached.
func (s *Search) Dist(n NodeID) float64 {
	if s.epoch[n] != s.cur {
		return math.Inf(1)
	}
	return s.dist[n]
}

// Reached reports whether the last run settled or relaxed node n.
func (s *Search) Reached(n NodeID) bool {
	return s.epoch[n] == s.cur && !math.IsInf(s.dist[n], 1)
}

// Parent returns n's predecessor in the last run's search tree — the next
// hop from n back toward the source — or NoNode for the source itself and
// unreached nodes.
func (s *Search) Parent(n NodeID) NodeID {
	if s.epoch[n] != s.cur {
		return NoNode
	}
	return s.parent[n]
}

// Path reconstructs the node sequence from the last run's source to n,
// inclusive. It returns nil if n was not reached.
func (s *Search) Path(n NodeID) []NodeID {
	if !s.Reached(n) {
		return nil
	}
	var rev []NodeID
	for cur := n; cur != NoNode; cur = s.parent[cur] {
		rev = append(rev, cur)
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// PathEdges reconstructs the edge sequence from the source to n.
func (s *Search) PathEdges(n NodeID) []EdgeID {
	if !s.Reached(n) {
		return nil
	}
	var rev []EdgeID
	for cur := n; s.via[cur] != NoEdge; cur = s.parent[cur] {
		rev = append(rev, s.via[cur])
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// EdgeFilter restricts a traversal to edges for which it returns true.
// A nil EdgeFilter admits every live edge.
type EdgeFilter func(EdgeID) bool

// Seed is one source of a multi-source traversal: a node paired with the
// initial distance it is reached at. Sharded search enters a region shard
// through its border nodes this way, each border carrying the global
// distance already accumulated outside the shard.
type Seed struct {
	Node NodeID
	Dist float64
}

// Options tunes a Dijkstra run.
type Options struct {
	// MaxDist stops expansion beyond this distance (inclusive). Zero means
	// unbounded.
	MaxDist float64
	// Filter restricts traversal to admitted edges (nil = all).
	Filter EdgeFilter
	// Targets, when non-empty, stops the run once all listed nodes are
	// settled.
	Targets []NodeID
	// OnSettle, when non-nil, is invoked for every settled node with its
	// final distance. Returning false aborts the run.
	OnSettle func(n NodeID, d float64) bool
}

// Run executes Dijkstra from src with the given options. Distances and
// paths are afterwards available via Dist/Path/PathEdges.
func (s *Search) Run(src NodeID, opt Options) {
	s.RunSeeded([]Seed{{Node: src}}, opt)
}

// RunSeeded executes Dijkstra from several seeds at once, each starting at
// its own initial distance. The resulting Dist(n) is min over seeds of
// seed.Dist + d(seed.Node, n); Path(n) walks back to the winning seed.
func (s *Search) RunSeeded(seeds []Seed, opt Options) {
	s.begin()
	for _, sd := range seeds {
		s.touch(sd.Node)
		if sd.Dist < s.dist[sd.Node] {
			s.dist[sd.Node] = sd.Dist
			s.parent[sd.Node] = NoNode
			s.via[sd.Node] = NoEdge
			s.pq.Push(sd.Node, sd.Dist)
		}
	}

	remaining := 0
	if len(opt.Targets) > 0 {
		if len(s.want) != len(s.epoch) {
			s.want = make([]bool, len(s.epoch))
		}
		for _, t := range opt.Targets {
			if !s.want[t] {
				s.want[t] = true
				remaining++
			}
		}
		defer unwant(s.want, opt.Targets)
	}

	bound := opt.MaxDist
	if bound == 0 {
		bound = math.Inf(1)
	}

	for s.pq.Len() > 0 {
		n, d, _ := s.pq.Pop()
		if d > bound {
			break
		}
		s.Visited++
		if opt.OnSettle != nil && !opt.OnSettle(n, d) {
			return
		}
		if remaining > 0 && s.want[n] {
			s.want[n] = false
			remaining--
			if remaining == 0 {
				return
			}
		}
		for _, h := range s.g.adj[n] {
			if opt.Filter != nil && !opt.Filter(h.Edge) {
				continue
			}
			nd := d + s.g.edges[h.Edge].Weight
			if nd > bound {
				continue
			}
			s.touch(h.To)
			if nd < s.dist[h.To] {
				s.dist[h.To] = nd
				s.parent[h.To] = n
				s.via[h.To] = h.Edge
				s.pq.Push(h.To, nd)
			}
		}
	}
}

// unwant clears the target marks a run left behind (it stopped before
// settling them all).
func unwant(want []bool, targets []NodeID) {
	for _, t := range targets {
		want[t] = false
	}
}

// ShortestDist returns the network distance between src and dst, or +Inf
// if dst is unreachable. It runs a target-pruned Dijkstra.
func (s *Search) ShortestDist(src, dst NodeID) float64 {
	if src == dst {
		return 0
	}
	s.Run(src, Options{Targets: []NodeID{dst}})
	return s.Dist(dst)
}

// ShortestPath returns the node sequence and distance of the shortest path
// from src to dst, or (nil, +Inf) if unreachable.
func (s *Search) ShortestPath(src, dst NodeID) ([]NodeID, float64) {
	if src == dst {
		return []NodeID{src}, 0
	}
	s.Run(src, Options{Targets: []NodeID{dst}})
	return s.Path(dst), s.Dist(dst)
}

// AStar finds the shortest path distance from src to dst guided by the
// Euclidean straight-line heuristic scaled by hScale. The heuristic is
// admissible iff every edge weight ≥ hScale × Euclidean length of the edge;
// use EuclideanScale to derive the largest safe scale for a graph. It
// returns +Inf if dst is unreachable.
func (s *Search) AStar(src, dst NodeID, hScale float64) float64 {
	return s.AStarVisit(src, dst, hScale, nil)
}

// AStarVisit is AStar with a per-settled-node callback (used to charge
// simulated I/O for every node record the search touches).
func (s *Search) AStarVisit(src, dst NodeID, hScale float64, onSettle func(NodeID)) float64 {
	return s.AStarBounded(src, dst, hScale, math.Inf(1), onSettle)
}

// AStarBounded is AStarVisit with a distance bound: once the smallest
// f-value in the frontier exceeds bound the search gives up and returns
// +Inf, since the true distance provably exceeds bound.
func (s *Search) AStarBounded(src, dst NodeID, hScale, bound float64, onSettle func(NodeID)) float64 {
	s.begin()
	g := s.g
	goal := g.coords[dst]
	h := func(n NodeID) float64 { return hScale * g.coords[n].Dist(goal) }

	s.touch(src)
	s.dist[src] = 0
	s.pq.Push(src, h(src))

	for s.pq.Len() > 0 {
		n, f, _ := s.pq.Pop()
		if f > bound {
			return math.Inf(1)
		}
		s.Visited++
		if onSettle != nil {
			onSettle(n)
		}
		if n == dst {
			return s.dist[n]
		}
		dn := s.dist[n]
		for _, half := range g.adj[n] {
			nd := dn + g.edges[half.Edge].Weight
			s.touch(half.To)
			if nd < s.dist[half.To] {
				s.dist[half.To] = nd
				s.parent[half.To] = n
				s.via[half.To] = half.Edge
				s.pq.Push(half.To, nd+h(half.To))
			}
		}
	}
	return math.Inf(1)
}

// EuclideanScale returns the largest factor c such that for every live edge
// (u,v): weight ≥ c × EuclideanDist(u,v). Using this as AStar's hScale makes
// the Euclidean heuristic admissible. Returns 0 for graphs with a zero-length
// edge (heuristic unusable) and 1 for empty graphs.
func EuclideanScale(g *Graph) float64 {
	c := math.Inf(1)
	for id := range g.edges {
		e := &g.edges[id]
		if e.Removed {
			continue
		}
		d := g.coords[e.U].Dist(g.coords[e.V])
		if d == 0 {
			return 0
		}
		if r := e.Weight / d; r < c {
			c = r
		}
	}
	if math.IsInf(c, 1) {
		return 1
	}
	return c
}

// farthestFrom returns the reached node with maximum distance from src and
// that distance.
func (s *Search) farthestFrom(src NodeID) (NodeID, float64) {
	best, bestD := src, 0.0
	s.Run(src, Options{OnSettle: func(n NodeID, d float64) bool {
		if d > bestD {
			best, bestD = n, d
		}
		return true
	}})
	return best, bestD
}
