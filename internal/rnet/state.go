package rnet

import (
	"fmt"
	"sort"

	"road/internal/graph"
)

// HierarchyState is the explicit, serializable form of a built Hierarchy:
// everything that cannot be rederived cheaply from the graph — the Rnet
// tree, edge-to-leaf assignments (current and build-time origin), and
// every shortcut set with optional Via waypoints. Border sets and
// per-level indices are derived state and are reconstructed on import;
// shortcut trees are derived from those on demand. Config.EdgeWeight (a
// function) does not survive serialization; it only influences
// partitioning, which is already fixed by the state.
type HierarchyState struct {
	Config     Config
	Rnets      []Rnet
	LeafOf     []RnetID
	OriginLeaf []RnetID
	// Shortcuts holds, per Rnet (indexed by RnetID), the outgoing shortcut
	// lists keyed by border node, flattened with sorted keys so encoding
	// is deterministic.
	Shortcuts []ShortcutSet
}

// ShortcutSet is one Rnet's shortcut map flattened for serialization.
type ShortcutSet struct {
	Entries []ShortcutEntry
}

// ShortcutEntry is one border node's outgoing shortcut list, in the exact
// slice order the live hierarchy stores (traversal order matters for
// reproducible query statistics).
type ShortcutEntry struct {
	From      graph.NodeID
	Shortcuts []Shortcut
}

// ExportState captures the hierarchy's private state for snapshotting.
// The returned state shares no mutable slices with the hierarchy.
func (h *Hierarchy) ExportState() *HierarchyState {
	st := &HierarchyState{
		Config:     h.cfg,
		Rnets:      make([]Rnet, len(h.rnets)),
		LeafOf:     append([]RnetID(nil), h.leafOf...),
		OriginLeaf: append([]RnetID(nil), h.originLeaf...),
		Shortcuts:  make([]ShortcutSet, len(h.shortcuts)),
	}
	st.Config.EdgeWeight = nil
	for i := range h.rnets {
		r := h.rnets[i]
		r.Children = append([]RnetID(nil), r.Children...)
		r.Borders = append([]graph.NodeID(nil), r.Borders...)
		r.Edges = append([]graph.EdgeID(nil), r.Edges...)
		st.Rnets[i] = r
	}
	for i, m := range h.shortcuts {
		keys := make([]graph.NodeID, 0, len(m))
		for from := range m {
			keys = append(keys, from)
		}
		sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })
		set := ShortcutSet{Entries: make([]ShortcutEntry, 0, len(keys))}
		for _, from := range keys {
			scs := make([]Shortcut, len(m[from]))
			for j, sc := range m[from] {
				sc.Via = append([]graph.NodeID(nil), sc.Via...)
				scs[j] = sc
			}
			set.Entries = append(set.Entries, ShortcutEntry{From: from, Shortcuts: scs})
		}
		st.Shortcuts[i] = set
	}
	return st
}

// ImportHierarchy reassembles a Hierarchy over g from exported state,
// validating every cross-reference so corrupt state yields an error, never
// a panic. Border sets and per-level indices are rederived; shortcut trees
// are not state at all (the framework flattens them from the hierarchy).
//
// ImportHierarchy takes ownership of st and the slices it references —
// snapshot loading is its only caller and decodes fresh state each time;
// avoiding a second copy of every shortcut and border list keeps restart
// O(load).
func ImportHierarchy(g *graph.Graph, st *HierarchyState) (*Hierarchy, error) {
	cfg := st.Config
	if cfg.Fanout < 2 || cfg.Fanout&(cfg.Fanout-1) != 0 {
		return nil, fmt.Errorf("rnet: state: fanout %d not a power of two ≥ 2", cfg.Fanout)
	}
	if cfg.Levels < 1 {
		return nil, fmt.Errorf("rnet: state: levels %d < 1", cfg.Levels)
	}
	numRnets := len(st.Rnets)
	if numRnets == 0 {
		return nil, fmt.Errorf("rnet: state: no Rnets")
	}
	if len(st.LeafOf) != g.NumEdges() || len(st.OriginLeaf) != g.NumEdges() {
		return nil, fmt.Errorf("rnet: state: leaf maps cover %d/%d edges, graph has %d",
			len(st.LeafOf), len(st.OriginLeaf), g.NumEdges())
	}
	if len(st.Shortcuts) != numRnets {
		return nil, fmt.Errorf("rnet: state: %d shortcut sets for %d Rnets", len(st.Shortcuts), numRnets)
	}

	validRnet := func(r RnetID) bool { return r >= 0 && int(r) < numRnets }
	validNode := func(n graph.NodeID) bool { return n >= 0 && int(n) < g.NumNodes() }
	validEdge := func(e graph.EdgeID) bool { return e >= 0 && int(e) < g.NumEdges() }

	h := &Hierarchy{g: g, cfg: cfg}
	h.rnets = make([]Rnet, numRnets)
	h.levels = make([][]RnetID, cfg.Levels)
	for i := range st.Rnets {
		r := st.Rnets[i]
		if r.ID != RnetID(i) {
			return nil, fmt.Errorf("rnet: state: Rnet %d stored at index %d", r.ID, i)
		}
		if r.Level < 1 || r.Level > cfg.Levels {
			return nil, fmt.Errorf("rnet: state: Rnet %d level %d out of range", i, r.Level)
		}
		if r.Level == 1 {
			if r.Parent != NoRnet {
				return nil, fmt.Errorf("rnet: state: level-1 Rnet %d has parent %d", i, r.Parent)
			}
		} else if !validRnet(r.Parent) || st.Rnets[r.Parent].Level != r.Level-1 {
			return nil, fmt.Errorf("rnet: state: Rnet %d has invalid parent %d", i, r.Parent)
		}
		for _, c := range r.Children {
			if !validRnet(c) || st.Rnets[c].Parent != RnetID(i) {
				return nil, fmt.Errorf("rnet: state: Rnet %d has invalid child %d", i, c)
			}
		}
		for _, b := range r.Borders {
			if !validNode(b) {
				return nil, fmt.Errorf("rnet: state: Rnet %d border node %d out of range", i, b)
			}
		}
		if r.Level == cfg.Levels {
			for _, e := range r.Edges {
				if !validEdge(e) {
					return nil, fmt.Errorf("rnet: state: Rnet %d edge %d out of range", i, e)
				}
				if st.LeafOf[e] != RnetID(i) {
					return nil, fmt.Errorf("rnet: state: edge %d listed in leaf %d but assigned to %d", e, i, st.LeafOf[e])
				}
			}
		} else if len(r.Edges) != 0 {
			return nil, fmt.Errorf("rnet: state: non-leaf Rnet %d has materialized edges", i)
		}
		h.rnets[i] = r
		h.levels[r.Level-1] = append(h.levels[r.Level-1], RnetID(i))
	}
	for e, leaf := range st.LeafOf {
		if leaf == NoRnet {
			continue
		}
		if !validRnet(leaf) || h.rnets[leaf].Level != cfg.Levels {
			return nil, fmt.Errorf("rnet: state: edge %d assigned to invalid leaf %d", e, leaf)
		}
		if g.Edge(graph.EdgeID(e)).Removed {
			return nil, fmt.Errorf("rnet: state: removed edge %d still assigned to leaf %d", e, leaf)
		}
	}
	for e, leaf := range st.OriginLeaf {
		if leaf != NoRnet && (!validRnet(leaf) || h.rnets[leaf].Level != cfg.Levels) {
			return nil, fmt.Errorf("rnet: state: edge %d origin leaf %d invalid", e, leaf)
		}
	}
	h.leafOf = st.LeafOf
	h.originLeaf = st.OriginLeaf

	h.shortcuts = make([]map[graph.NodeID][]Shortcut, numRnets)
	for i, set := range st.Shortcuts {
		m := make(map[graph.NodeID][]Shortcut, len(set.Entries))
		for _, entry := range set.Entries {
			if !validNode(entry.From) {
				return nil, fmt.Errorf("rnet: state: Rnet %d shortcut source %d out of range", i, entry.From)
			}
			if _, dup := m[entry.From]; dup {
				return nil, fmt.Errorf("rnet: state: Rnet %d duplicate shortcut source %d", i, entry.From)
			}
			for _, sc := range entry.Shortcuts {
				if sc.From != entry.From || !validNode(sc.To) {
					return nil, fmt.Errorf("rnet: state: Rnet %d shortcut %d->%d malformed", i, sc.From, sc.To)
				}
				if !(sc.Dist >= 0) { // rejects NaN and negatives
					return nil, fmt.Errorf("rnet: state: Rnet %d shortcut %d->%d distance %v invalid", i, sc.From, sc.To, sc.Dist)
				}
				for _, via := range sc.Via {
					if !validNode(via) {
						return nil, fmt.Errorf("rnet: state: Rnet %d shortcut via node %d out of range", i, via)
					}
				}
			}
			m[entry.From] = entry.Shortcuts
		}
		h.shortcuts[i] = m
	}

	// Derived state: border membership indices and empty tree cache.
	h.isBorder = make([]map[graph.NodeID]bool, numRnets)
	for i := range h.isBorder {
		h.isBorder[i] = make(map[graph.NodeID]bool, len(h.rnets[i].Borders))
		for _, b := range h.rnets[i].Borders {
			h.isBorder[i][b] = true
		}
	}
	h.borderRnetsOf = make([][]RnetID, g.NumNodes())
	for i := range h.rnets {
		for _, b := range h.rnets[i].Borders {
			h.borderRnetsOf[b] = append(h.borderRnetsOf[b], RnetID(i))
		}
	}
	return h, nil
}
