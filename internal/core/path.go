package core

import (
	"fmt"
	"math"
	"slices"

	"road/internal/apierr"
	"road/internal/graph"
	"road/internal/pqueue"
	"road/internal/rnet"
)

// parentLink records how a node was best reached: over a physical edge or
// across an Rnet via one of the previous node's shortcuts.
type parentLink struct {
	prev graph.NodeID
	edge graph.EdgeID // NoEdge when the hop was a shortcut
	rnet rnet.RnetID  // the bypassed Rnet (shortcut hops)
	dist float64
}

// pathTo is the reference path computation — the oracle Session.PathTo's
// CSR route search is differentially tested against, reached through a
// session pinned with UseReferencePath: Algorithm ChoosePath with the
// target as the only object of interest. The returned node sequence walks
// physical intersections all the way (shortcut hops are expanded
// recursively through the hierarchy per Lemma 2's representation), ending
// at the endpoint of the object's edge through which the object is
// reached; the returned distance includes the final offset along that
// edge. An Rnet is explorable iff it
// contains the target's edge — it lies on the ancestor chain of that edge's
// leaf — and every other Rnet is bypassed through the settled node's
// shortcuts whenever the node is one of its borders; q.Attr validates the
// target and plays no part in the search. The rule is exact: shortcuts
// preserve border-to-border distances, and an entry whose node is not a
// border is always descended, so physical edges are relaxed in just two
// places — the source's own region, until the search reaches its borders,
// and the target's chain — which are the only places a shortest route
// leaves the shortcut overlay. Expanding a shortcut hop needs the
// hierarchy's waypoints (rnet.Config.StorePaths).
func (f *Framework) pathTo(q Query, target graph.ObjectID, lim Limits) ([]graph.NodeID, float64, QueryStats, error) {
	stats := QueryStats{ShardsSearched: 1}
	o, ok := f.objects.Get(target)
	if !ok {
		return nil, 0, stats, fmt.Errorf("core: object %d: %w", target, apierr.ErrNoSuchObject)
	}
	if q.Attr != 0 && o.Attr != q.Attr {
		return nil, 0, stats, fmt.Errorf("core: object %d does not match attribute %d: %w", target, q.Attr, apierr.ErrAttrMismatch)
	}

	links := make(map[graph.NodeID]parentLink)
	visited := make(map[graph.NodeID]bool)
	var pq pqueue.Queue
	pq.Push(q.Node, 0.0)
	links[q.Node] = parentLink{prev: graph.NoNode, edge: graph.NoEdge}

	// The search runs directed at the object's two endpoint nodes.
	e := f.g.Edge(o.Edge)
	bestEnd := graph.NoNode
	bestDist := math.Inf(1)

	relax := func(n graph.NodeID, nd float64, link parentLink) {
		if cur, ok := links[n]; ok && cur.prev != graph.NoNode && cur.dist <= nd {
			return
		}
		if n != q.Node {
			links[n] = link
		}
		pq.Push(n, nd)
	}

	var stack []*rnet.TreeNode
	for pq.Len() > 0 {
		item, _ := pq.Pop()
		n := item.Value.(graph.NodeID)
		d := item.Priority
		if d >= bestDist {
			break // cannot improve the object's distance any further
		}
		if visited[n] {
			continue
		}
		visited[n] = true
		stats.NodesPopped++
		if err := lim.Stop(stats.NodesPopped); err != nil {
			stats.Truncated = true
			return nil, 0, stats, err
		}

		if n == e.U && d+o.DU < bestDist {
			bestDist = d + o.DU
			bestEnd = n
		}
		if n == e.V && d+o.DV < bestDist {
			bestDist = d + o.DV
			bestEnd = n
		}

		// The stack-order descent of choosePath.
		stack = append(stack[:0], f.h.Tree(n)...)
		for len(stack) > 0 {
			s := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if s.IsBorder && !f.rnetContainsEdge(s.Rnet, o.Edge) {
				stats.RnetsBypassed++
				for _, sc := range f.h.ShortcutsFrom(s.Rnet, n) {
					relax(sc.To, d+sc.Dist, parentLink{prev: n, edge: graph.NoEdge, rnet: s.Rnet, dist: d + sc.Dist})
				}
				continue
			}
			if len(s.Children) > 0 {
				stats.RnetsDescended++
				stack = append(stack, s.Children...)
				continue
			}
			for _, half := range s.Edges {
				relax(half.To, d+f.g.Weight(half.Edge), parentLink{prev: n, edge: half.Edge, dist: d + f.g.Weight(half.Edge)})
			}
		}
	}
	if bestEnd == graph.NoNode {
		return nil, math.Inf(1), stats, fmt.Errorf("core: object %d unreachable from node %d: %w", target, q.Node, apierr.ErrUnreachable)
	}

	// Walk the links back to the source, expanding shortcut hops.
	var rev []graph.NodeID
	cur := bestEnd
	for cur != q.Node {
		link, ok := links[cur]
		if !ok || link.prev == graph.NoNode {
			return nil, 0, stats, fmt.Errorf("core: broken parent chain at node %d", cur)
		}
		if link.edge != graph.NoEdge {
			rev = append(rev, cur)
		} else {
			var err error
			if rev, err = f.appendHopReversed(rev, link.rnet, link.prev, cur); err != nil {
				return nil, 0, stats, err
			}
		}
		cur = link.prev
	}
	rev = append(rev, q.Node)
	slices.Reverse(rev)
	return rev, bestDist, stats, nil
}

// appendHopReversed expands the shortcut from a to b across Rnet r into
// its full node sequence and appends it to rev backwards — b first, a
// left out — which is the order the walk back from the target collects a
// route in. The expansion is written into rev itself, so a caller that
// reuses rev expands without allocating.
func (f *Framework) appendHopReversed(rev []graph.NodeID, r rnet.RnetID, a, b graph.NodeID) ([]graph.NodeID, error) {
	for _, sc := range f.h.ShortcutsFrom(r, a) {
		if sc.To != b {
			continue
		}
		out, err := f.h.AppendShortcutPath(rev, r, sc)
		if err != nil {
			return rev, err
		}
		slices.Reverse(out[len(rev):])
		return out[:len(out)-1], nil
	}
	return rev, fmt.Errorf("core: no shortcut %d->%d in Rnet %d", a, b, r)
}

// rnetContainsEdge reports whether edge e lies inside Rnet r.
func (f *Framework) rnetContainsEdge(r rnet.RnetID, e graph.EdgeID) bool {
	leaf := f.h.LeafOf(e)
	if leaf == rnet.NoRnet {
		return false
	}
	return f.h.AncestorAt(leaf, f.h.Rnet(r).Level) == r
}
