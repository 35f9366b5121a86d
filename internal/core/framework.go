package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"road/internal/apierr"
	"road/internal/graph"
	"road/internal/rnet"
	"road/internal/storage"
)

// Config tunes framework construction.
type Config struct {
	// Rnet configures the hierarchy (fanout p, levels l, partitioning,
	// pruning). Zero value selects rnet.DefaultConfig for the network size.
	Rnet rnet.Config
	// Abstract selects the object-abstract representation.
	Abstract AbstractKind
	// BufferPages sizes the simulated LRU buffer
	// (storage.DefaultBufferPages when 0); negative disables simulation.
	BufferPages int
	// ObjectAwarePartitioning biases Rnet partitioning by the objects
	// present at build time: edges carrying objects weigh more, so
	// object-dense areas get finer Rnets (the paper's future-work
	// object-based partitioning). Ignored if Rnet.EdgeWeight is set.
	ObjectAwarePartitioning bool
}

// Framework is a built ROAD instance: one road network organized as an
// Rnet hierarchy behind a Route Overlay, plus one Association Directory
// mapping an object set onto it. Further Association Directories for other
// object sets can be attached to the same overlay with AttachObjects —
// the separation of network from objects the paper's architecture is
// designed around.
type Framework struct {
	g       *graph.Graph
	h       *rnet.Hierarchy
	objects *graph.ObjectSet
	ro      *RouteOverlay
	ad      *AssocDir
	store   *storage.Store
	qws     *queryWorkspace
	epoch   atomic.Uint64

	// BuildTime records how long construction took (the paper's index
	// construction time metric).
	BuildTime time.Duration
}

// Build constructs the ROAD framework over g and objects.
func Build(g *graph.Graph, objects *graph.ObjectSet, cfg Config) (*Framework, error) {
	return BuildPinned(g, objects, cfg, nil)
}

// BuildPinned is Build over a hierarchy with the given nodes pinned
// (rnet.BuildPinned): each is a border of every Rnet holding one of its
// edges, so searches reach it through shortcuts without descending.
func BuildPinned(g *graph.Graph, objects *graph.ObjectSet, cfg Config, pinned []graph.NodeID) (*Framework, error) {
	start := time.Now()
	rcfg := cfg.Rnet
	if rcfg.Fanout == 0 && rcfg.Levels == 0 {
		defaults := rnet.DefaultConfig(g.NumNodes())
		defaults.StorePaths = rcfg.StorePaths
		defaults.Seed = rcfg.Seed
		defaults.EdgeWeight = rcfg.EdgeWeight
		rcfg = defaults
	}
	if cfg.ObjectAwarePartitioning && rcfg.EdgeWeight == nil {
		rcfg.EdgeWeight = func(e graph.EdgeID) float64 {
			return 1 + 4*float64(len(objects.OnEdge(e)))
		}
	}
	h, err := rnet.BuildPinned(g, rcfg, pinned)
	if err != nil {
		return nil, fmt.Errorf("core: building hierarchy: %w", err)
	}
	var store *storage.Store
	if cfg.BufferPages >= 0 {
		store = storage.NewStore(cfg.BufferPages)
	}
	f := &Framework{
		g:       g,
		h:       h,
		objects: objects,
		store:   store,
	}
	f.ro = NewRouteOverlay(h, store)
	f.ad = NewAssocDir(h, objects, cfg.Abstract, store)
	f.BuildTime = time.Since(start)
	return f, nil
}

// Graph returns the underlying network.
func (f *Framework) Graph() *graph.Graph { return f.g }

// Hierarchy returns the Rnet hierarchy.
func (f *Framework) Hierarchy() *rnet.Hierarchy { return f.h }

// Objects returns the mapped object set.
func (f *Framework) Objects() *graph.ObjectSet { return f.objects }

// Directory returns the Association Directory.
func (f *Framework) Directory() *AssocDir { return f.ad }

// Overlay returns the Route Overlay.
func (f *Framework) Overlay() *RouteOverlay { return f.ro }

// Store returns the simulated page store (nil when disabled).
func (f *Framework) Store() *storage.Store { return f.store }

// Rebind returns a framework sharing f's network, hierarchy, overlay and
// page store, but serving a different object set through a fresh
// Association Directory — the network/object separation at work.
func Rebind(f *Framework, objects *graph.ObjectSet, kind AbstractKind) *Framework {
	return &Framework{
		g:         f.g,
		h:         f.h,
		objects:   objects,
		ro:        f.ro,
		ad:        NewAssocDir(f.h, objects, kind, f.store),
		store:     f.store,
		BuildTime: f.BuildTime,
	}
}

// AttachObjects builds an additional Association Directory for another
// object set over the same Route Overlay (multiple content providers on
// one map, §3.4). The returned directory can be passed to KNNOn/RangeOn.
func (f *Framework) AttachObjects(objects *graph.ObjectSet, kind AbstractKind) *AssocDir {
	return NewAssocDir(f.h, objects, kind, f.store)
}

// IndexSizeBytes estimates total index storage: Route Overlay plus
// Association Directory (the paper's index size metric).
func (f *Framework) IndexSizeBytes() int64 {
	return f.ro.SizeBytes() + f.ad.SizeBytes()
}

// DropCache empties the simulated buffer — the evaluation starts every
// query with a cold cache.
func (f *Framework) DropCache() {
	if f.store != nil {
		f.store.DropCache()
	}
}

// Epoch returns the framework's maintenance epoch: a counter incremented
// by every successful mutation (object churn, edge weight changes, road
// closures). Readers that cached derived results — query answers, plans —
// can compare epochs to detect staleness. The counter itself is safe to
// read concurrently; excluding queries while the mutations it counts run
// is the caller's job (see Session; road's stores lock themselves).
func (f *Framework) Epoch() uint64 { return f.epoch.Load() }

// bumpEpoch marks a completed mutation.
func (f *Framework) bumpEpoch() { f.epoch.Add(1) }

// WarmTrees brings the shared read-path state — the CSR slabs holding
// every node's flattened shortcut tree — up to date with the hierarchy.
// Every mutator that can touch the hierarchy (SetEdgeWeight, AddEdge,
// DeleteEdge, RestoreEdge, EnableWaypoints, PinBorders) calls it before
// returning, failed calls included, so the slabs are current whenever no
// mutator is running and queries only ever read them. Calling it again is
// one generation compare.
//
// The cost follows the change, not the network: the hierarchy logs the
// nodes a mutation touched and only those are re-flattened (see
// csrBox.drain), building no pointer trees.
func (f *Framework) WarmTrees() {
	if c := f.ro.csr.idx; c.gen != f.h.TopoGen() {
		f.ro.csr.drain(f.g, f.h)
	}
}

// EnableWaypoints upgrades a framework built or restored without
// StorePaths to store shortcut waypoints, recomputing every shortcut and
// re-flattening the CSR slabs; answers do not change, routes become
// available. It reports whether an upgrade ran. Like every mutation, it
// must run while readers are excluded.
func (f *Framework) EnableWaypoints() bool {
	if !f.h.EnableWaypoints() {
		return false
	}
	f.WarmTrees()
	return true
}

// PinBorders pins nodes in the hierarchy (rnet.Hierarchy.Pin) and
// re-flattens the CSR slabs of every node whose view changed. Answers do
// not change; searches that must reach a pinned node walk the shortcut
// overlay to it instead of descending. Nodes already pinned cost nothing.
// Like every mutation, it must run while readers are excluded.
func (f *Framework) PinBorders(nodes []graph.NodeID) {
	f.h.Pin(nodes)
	f.WarmTrees()
}

// --- Object maintenance (§5.1) ---

// InsertObject places a new object on edge e at offset du from the edge's
// U endpoint and registers it in the Association Directory.
func (f *Framework) InsertObject(e graph.EdgeID, du float64, attr int32) (graph.Object, error) {
	o, err := f.objects.Add(e, du, attr)
	if err != nil {
		return graph.Object{}, err
	}
	f.ad.Insert(o)
	f.bumpEpoch()
	return o, nil
}

// DeleteObject removes an object from the set and the directory.
func (f *Framework) DeleteObject(id graph.ObjectID) error {
	o, ok := f.objects.Get(id)
	if !ok {
		return fmt.Errorf("core: object %d: %w", id, apierr.ErrNoSuchObject)
	}
	f.ad.Remove(o)
	f.objects.Remove(id)
	f.bumpEpoch()
	return nil
}

// UpdateObjectAttr changes an object's attribute category.
func (f *Framework) UpdateObjectAttr(id graph.ObjectID, attr int32) error {
	o, ok := f.objects.Get(id)
	if !ok {
		return fmt.Errorf("core: object %d: %w", id, apierr.ErrNoSuchObject)
	}
	f.ad.UpdateAttr(o, attr)
	f.objects.SetAttr(id, attr)
	f.bumpEpoch()
	return nil
}

// --- Network maintenance (§5.2) ---

// SetEdgeWeight changes a road segment's distance and repairs shortcuts
// incrementally (filter-and-refresh). Objects on the edge keep their
// relative positions: offsets are rescaled proportionally and their
// directory entries refreshed. Like every network mutator it returns with
// the CSR slabs current (WarmTrees), on the error path too.
func (f *Framework) SetEdgeWeight(e graph.EdgeID, w float64) (rnet.UpdateResult, error) {
	defer f.WarmTrees()
	onEdge := f.objects.OnEdge(e)
	var detached []graph.Object
	for _, id := range onEdge {
		if o, ok := f.objects.Get(id); ok {
			f.ad.Remove(o)
			detached = append(detached, o)
		}
	}
	res, err := f.h.SetEdgeWeight(e, w)
	if err != nil {
		// Reattach with unchanged geometry.
		for _, o := range detached {
			f.ad.Insert(o)
		}
		return res, err
	}
	// Bump before reattaching: the hierarchy is already mutated, so even
	// the partial-failure return below must invalidate cached answers.
	f.bumpEpoch()
	for _, o := range detached {
		factor := 1.0
		if oldW := o.DU + o.DV; oldW > 0 {
			factor = w / oldW
		}
		if err := f.objects.Relocate(o.ID, e, o.DU*factor); err != nil {
			return res, fmt.Errorf("core: rescaling object %d: %w", o.ID, err)
		}
		scaled, _ := f.objects.Get(o.ID)
		f.ad.Insert(scaled)
	}
	return res, nil
}

// AddEdge inserts a new road segment between existing nodes and repairs
// the hierarchy (border promotion, new shortcuts).
func (f *Framework) AddEdge(u, v graph.NodeID, w float64) (graph.EdgeID, rnet.UpdateResult, error) {
	defer f.WarmTrees()
	e, res, err := f.h.AddEdge(u, v, w)
	if err == nil {
		f.bumpEpoch()
	}
	return e, res, err
}

// DeleteEdge removes a road segment. Objects residing on it are deleted
// (their road no longer exists).
func (f *Framework) DeleteEdge(e graph.EdgeID) (rnet.UpdateResult, error) {
	defer f.WarmTrees()
	for _, id := range f.objects.OnEdge(e) {
		if o, ok := f.objects.Get(id); ok {
			f.ad.Remove(o)
			f.objects.Remove(id)
		}
	}
	res, err := f.h.DeleteEdge(e)
	if err == nil {
		f.bumpEpoch()
	}
	return res, err
}

// RestoreEdge re-attaches a previously deleted edge.
func (f *Framework) RestoreEdge(e graph.EdgeID) (rnet.UpdateResult, error) {
	defer f.WarmTrees()
	res, err := f.h.RestoreEdge(e)
	if err == nil {
		f.bumpEpoch()
	}
	return res, err
}
