package rnet

import (
	"math"
	"sort"

	"road/internal/graph"
	"road/internal/pqueue"
)

// relTol is the relative tolerance for comparing path distances assembled
// from different float64 summation orders.
const relTol = 1e-9

func distEq(a, b float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= relTol*scale || diff == 0
}

// search returns a reusable Dijkstra workspace, recreating it if the graph
// has grown.
func (h *Hierarchy) searchWS() *graph.Search {
	if h.ws == nil || h.wsNodes != h.g.NumNodes() {
		h.ws = graph.NewSearch(h.g)
		h.wsNodes = h.g.NumNodes()
	}
	return h.ws
}

// computeAllShortcuts fills h.shortcuts bottom-up: leaf Rnets by Dijkstra
// restricted to their own edges, upper Rnets over the overlay formed by
// their children's shortcuts (Lemma 2).
func (h *Hierarchy) computeAllShortcuts() {
	h.shortcuts = make([]map[graph.NodeID][]Shortcut, len(h.rnets))
	for level := h.cfg.Levels; level >= 1; level-- {
		for _, r := range h.levels[level-1] {
			h.shortcuts[r] = h.computeShortcuts(r)
		}
	}
}

// EnableWaypoints turns StorePaths on for a hierarchy built or restored
// without it: every shortcut is recomputed bottom-up, now with its Via
// waypoints, and the whole network is logged dirty so derived indexes
// re-flatten. It reports whether anything changed; a hierarchy that
// already stores paths is left alone.
func (h *Hierarchy) EnableWaypoints() bool {
	if h.cfg.StorePaths {
		return false
	}
	h.cfg.StorePaths = true
	h.computeAllShortcuts()
	h.topoGen++
	h.DrainDirty()
	h.dirtyAll = true
	return true
}

// computeShortcuts computes the full shortcut set of one Rnet from current
// graph state (leaf) or current child shortcuts (upper), applying Lemma-4
// pruning when configured.
func (h *Hierarchy) computeShortcuts(r RnetID) map[graph.NodeID][]Shortcut {
	var out map[graph.NodeID][]Shortcut
	if h.rnets[r].Level == h.cfg.Levels {
		out = h.computeLeafShortcuts(r)
	} else {
		out = h.computeUpperShortcuts(r)
	}
	if h.cfg.PruneMaxBorders > 0 && len(h.rnets[r].Borders) <= h.cfg.PruneMaxBorders {
		prune(out)
	}
	return out
}

// computeLeafShortcuts runs, for every border node of leaf Rnet r, a
// Dijkstra restricted to r's edges, recording shortest paths to the other
// border nodes.
func (h *Hierarchy) computeLeafShortcuts(r RnetID) map[graph.NodeID][]Shortcut {
	borders := h.rnets[r].Borders
	out := make(map[graph.NodeID][]Shortcut, len(borders))
	if len(borders) < 2 {
		return out
	}
	ws := h.searchWS()
	filter := func(e graph.EdgeID) bool { return h.LeafOf(e) == r }
	for _, b := range borders {
		targets := make([]graph.NodeID, 0, len(borders)-1)
		for _, b2 := range borders {
			if b2 != b {
				targets = append(targets, b2)
			}
		}
		ws.Run(b, graph.Options{Filter: filter, Targets: targets})
		var scs []Shortcut
		for _, b2 := range targets {
			d := ws.Dist(b2)
			if math.IsInf(d, 1) {
				continue // r's sub-network does not connect b to b2
			}
			sc := Shortcut{From: b, To: b2, Dist: d}
			if h.cfg.StorePaths {
				path := ws.Path(b2)
				if len(path) > 2 {
					sc.Via = append([]graph.NodeID(nil), path[1:len(path)-1]...)
				}
			}
			scs = append(scs, sc)
		}
		if len(scs) > 0 {
			out[b] = scs
		}
	}
	return out
}

// overlayArc is one edge of the child-shortcut overlay graph.
type overlayArc struct {
	to   graph.NodeID
	dist float64
}

// computeUpperShortcuts derives the shortcuts of an upper-level Rnet by
// Dijkstra over the overlay whose nodes are its children's border nodes
// and whose edges are its children's shortcuts (Lemma 2).
func (h *Hierarchy) computeUpperShortcuts(r RnetID) map[graph.NodeID][]Shortcut {
	borders := h.rnets[r].Borders
	out := make(map[graph.NodeID][]Shortcut, len(borders))
	if len(borders) < 2 {
		return out
	}
	adj := make(map[graph.NodeID][]overlayArc)
	for _, c := range h.rnets[r].Children {
		for from, scs := range h.shortcuts[c] {
			for _, sc := range scs {
				adj[from] = append(adj[from], overlayArc{to: sc.To, dist: sc.Dist})
			}
		}
	}
	isTarget := make(map[graph.NodeID]bool, len(borders))
	for _, b := range borders {
		isTarget[b] = true
	}
	for _, b := range borders {
		dist, parent := overlayDijkstra(adj, b, isTarget)
		var scs []Shortcut
		for _, b2 := range borders {
			if b2 == b {
				continue
			}
			d, ok := dist[b2]
			if !ok {
				continue
			}
			sc := Shortcut{From: b, To: b2, Dist: d}
			if h.cfg.StorePaths {
				sc.Via = overlayPath(parent, b, b2)
			}
			scs = append(scs, sc)
		}
		if len(scs) > 0 {
			out[b] = scs
		}
	}
	return out
}

// overlayDijkstra runs Dijkstra on a map-based overlay from src, stopping
// once every target is settled. It returns final distances and parents.
func overlayDijkstra(adj map[graph.NodeID][]overlayArc, src graph.NodeID, targets map[graph.NodeID]bool) (map[graph.NodeID]float64, map[graph.NodeID]graph.NodeID) {
	dist := make(map[graph.NodeID]float64)
	parent := make(map[graph.NodeID]graph.NodeID)
	settled := make(map[graph.NodeID]bool)
	remaining := 0
	for t := range targets {
		if t != src {
			remaining++
		}
	}
	var pq pqueue.Queue
	dist[src] = 0
	pq.Push(src, 0)
	for pq.Len() > 0 && remaining > 0 {
		item, _ := pq.Pop()
		n := item.Value.(graph.NodeID)
		if settled[n] {
			continue
		}
		settled[n] = true
		if targets[n] && n != src {
			remaining--
		}
		d := dist[n]
		for _, arc := range adj[n] {
			nd := d + arc.dist
			if cur, ok := dist[arc.to]; !ok || nd < cur {
				dist[arc.to] = nd
				parent[arc.to] = n
				pq.Push(arc.to, nd)
			}
		}
	}
	// Report only settled distances (others may be non-final).
	for n := range dist {
		if !settled[n] {
			delete(dist, n)
			delete(parent, n)
		}
	}
	return dist, parent
}

func overlayPath(parent map[graph.NodeID]graph.NodeID, src, dst graph.NodeID) []graph.NodeID {
	var rev []graph.NodeID
	for cur := dst; cur != src; {
		p, ok := parent[cur]
		if !ok {
			return nil
		}
		if p != src {
			rev = append(rev, p)
		}
		cur = p
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// prune drops transitively redundant shortcuts (Lemma 4): S(b,b″) is
// discarded when retained shortcuts S(b,b′) and original S(b′,b″) compose
// to the same distance. Dropping longest-first keeps the retained set
// distance-complete: every dropped shortcut decomposes into strictly
// shorter stored ones.
func prune(scs map[graph.NodeID][]Shortcut) {
	// Distance matrix over the full (pre-prune) set.
	dist := make(map[[2]graph.NodeID]float64)
	for from, list := range scs {
		for _, sc := range list {
			dist[[2]graph.NodeID{from, sc.To}] = sc.Dist
		}
	}
	nodes := make([]graph.NodeID, 0, len(scs))
	for from := range scs {
		nodes = append(nodes, from)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })

	for _, from := range nodes {
		list := scs[from]
		// Longest first so cover checks use shorter (never-dropped-later)
		// legs.
		order := make([]int, len(list))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return list[order[a]].Dist > list[order[b]].Dist })
		dropped := make([]bool, len(list))
		for _, i := range order {
			target := list[i].To
			total := list[i].Dist
			for j := range list {
				if dropped[j] || j == i {
					continue
				}
				midDist := list[j].Dist
				if midDist >= total {
					continue
				}
				rest, ok := dist[[2]graph.NodeID{list[j].To, target}]
				if ok && rest < total && distEq(midDist+rest, total) {
					dropped[i] = true
					break
				}
			}
		}
		var kept []Shortcut
		for i, sc := range list {
			if !dropped[i] {
				kept = append(kept, sc)
			}
		}
		scs[from] = kept
	}
}

// shortcutSetsEqual reports whether two shortcut maps encode the same
// (from, to, dist) triples.
func shortcutSetsEqual(a, b map[graph.NodeID][]Shortcut) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(scs []Shortcut) map[[2]graph.NodeID]float64 {
		m := make(map[[2]graph.NodeID]float64, len(scs))
		for _, sc := range scs {
			m[[2]graph.NodeID{sc.From, sc.To}] = sc.Dist
		}
		return m
	}
	for from, la := range a {
		lb, ok := b[from]
		if !ok || len(la) != len(lb) {
			return false
		}
		ma, mb := key(la), key(lb)
		for k, da := range ma {
			db, ok := mb[k]
			if !ok || !distEq(da, db) {
				return false
			}
		}
	}
	return true
}
