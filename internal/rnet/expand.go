package rnet

import (
	"fmt"

	"road/internal/graph"
)

// ExpandShortcut materializes the full node sequence of a shortcut,
// endpoints included, in a fresh slice (see AppendShortcutPath).
func (h *Hierarchy) ExpandShortcut(r RnetID, sc Shortcut) ([]graph.NodeID, error) {
	return h.AppendShortcutPath(nil, r, sc)
}

// AppendShortcutPath appends the full node sequence of a shortcut,
// endpoints included, to dst. Shortcuts are stored hierarchically — an
// upper-level shortcut's Via waypoints are child-level border nodes whose
// consecutive legs are themselves child shortcuts (Figure 5: S(n1,n3) is
// represented as S(n1,nd)·S(nd,n3)) — so expansion recurses down to leaf
// level, where Via holds the actual interior path nodes. Every level writes
// straight into dst, so a caller that reuses its buffer expands without
// allocating. The hierarchy must have been built with Config.StorePaths.
func (h *Hierarchy) AppendShortcutPath(dst []graph.NodeID, r RnetID, sc Shortcut) ([]graph.NodeID, error) {
	if !h.cfg.StorePaths {
		return dst, fmt.Errorf("rnet: hierarchy built without StorePaths")
	}
	return h.appendShortcutTail(append(dst, sc.From), r, sc)
}

// appendShortcutTail appends the shortcut's nodes after sc.From, through
// sc.To: consecutive legs share their junction node, and this way each is
// written once.
func (h *Hierarchy) appendShortcutTail(dst []graph.NodeID, r RnetID, sc Shortcut) ([]graph.NodeID, error) {
	if h.rnets[r].Level == h.cfg.Levels {
		// Leaf: Via already holds the interior path nodes.
		return append(append(dst, sc.Via...), sc.To), nil
	}
	// Upper level: expand each leg between consecutive waypoints through
	// the child Rnet that carries it.
	a := sc.From
	for _, b := range sc.Via {
		var err error
		if dst, err = h.appendLeg(dst, r, a, b); err != nil {
			return dst, err
		}
		a = b
	}
	return h.appendLeg(dst, r, a, sc.To)
}

// appendLeg appends the expansion of the child shortcut that carries r's
// waypoint leg a→b, a left out.
func (h *Hierarchy) appendLeg(dst []graph.NodeID, r RnetID, a, b graph.NodeID) ([]graph.NodeID, error) {
	childSC, childR, err := h.childShortcut(r, a, b)
	if err != nil {
		return dst, err
	}
	return h.appendShortcutTail(dst, childR, childSC)
}

// childShortcut finds, among r's children, the minimum-distance shortcut
// from a to b — the overlay arc the upper-level Dijkstra traversed.
func (h *Hierarchy) childShortcut(r RnetID, a, b graph.NodeID) (Shortcut, RnetID, error) {
	var best Shortcut
	var bestR RnetID = NoRnet
	for _, c := range h.rnets[r].Children {
		for _, sc := range h.shortcuts[c][a] {
			if sc.To != b {
				continue
			}
			if bestR == NoRnet || sc.Dist < best.Dist {
				best, bestR = sc, c
			}
		}
	}
	if bestR == NoRnet {
		return Shortcut{}, NoRnet, fmt.Errorf("rnet: no child shortcut %d->%d under Rnet %d", a, b, r)
	}
	return best, bestR, nil
}
