// Package bench is the experiment harness that regenerates every table
// and figure of the paper's evaluation (§6). It builds the four competing
// approaches — ROAD, network expansion (NetExp), the Euclidean bound
// (Euclidean) and the Distance Index (DistIdx) — over identical synthetic
// networks and workloads, measures construction, storage, maintenance and
// query costs, and prints the same rows/series the paper reports.
package bench

import (
	"fmt"
	"time"

	"road/internal/baseline/distidx"
	"road/internal/baseline/euclid"
	"road/internal/baseline/netexpand"
	"road/internal/core"
	"road/internal/graph"
	"road/internal/rnet"
	"road/internal/storage"
)

// Approach is the uniform surface the harness drives; implementations wrap
// each competitor over its own private clone of the network and objects.
type Approach interface {
	Name() string
	BuildTime() time.Duration
	IndexSizeBytes() int64
	DropCache()
	// KNN and Range return result distances in ascending order plus the
	// I/O incurred.
	KNN(q graph.NodeID, k int) ([]float64, storage.Stats)
	Range(q graph.NodeID, radius float64) ([]float64, storage.Stats)
	InsertObject(e graph.EdgeID, du float64) (graph.ObjectID, error)
	DeleteObject(id graph.ObjectID) bool
	SetEdgeWeight(e graph.EdgeID, w float64) error
	DeleteEdge(e graph.EdgeID) error
	RestoreEdge(e graph.EdgeID) error
	Graph() *graph.Graph
	Objects() *graph.ObjectSet
}

// ApproachNames lists the four competitors in the paper's order.
var ApproachNames = []string{"NetExp", "Euclidean", "DistIdx", "ROAD"}

// BuildApproach constructs one named approach over private clones of g and
// objects, so per-approach mutation experiments cannot interfere.
func BuildApproach(name string, g *graph.Graph, objects *graph.ObjectSet, levels int) (Approach, error) {
	if name == "ROAD" {
		f, err := buildROAD(g, objects, roadConfig(levels), core.AbstractSet)
		if err != nil {
			return nil, err
		}
		return &roadApproach{f: f}, nil
	}
	cg := g.Clone()
	cobj := objects.Clone(cg)
	store := storage.NewStore(0)
	switch name {
	case "NetExp":
		return &netexpApproach{ix: netexpand.New(cg, cobj, store)}, nil
	case "Euclidean":
		return &euclidApproach{ix: euclid.New(cg, cobj, store)}, nil
	case "DistIdx":
		return &distidxApproach{ix: distidx.New(cg, cobj, store)}, nil
	}
	return nil, fmt.Errorf("bench: unknown approach %q", name)
}

// --- ROAD adapter ---

// roadConfig is the hierarchy every ROAD figure builds unless it sweeps a
// parameter: fanout 4, the given depth, default KL refinement and Lemma-4
// pruning in Rnets of up to 32 borders.
func roadConfig(levels int) rnet.Config {
	return rnet.Config{Fanout: 4, Levels: levels, KLPasses: -1, PruneMaxBorders: 32}
}

// buildROAD is the one place this package builds a ROAD framework: over
// private clones of g and objects, with the given hierarchy and abstract
// kind, and over the evaluation's simulated disk — a 50-page LRU buffer
// (storage.DefaultBufferPages) that report-mode queries charge their page
// I/O to. A framework built without the store would report no I/O.
func buildROAD(g *graph.Graph, objects *graph.ObjectSet, rcfg rnet.Config, kind core.AbstractKind) (*core.Framework, error) {
	cg := g.Clone()
	return core.Build(cg, objects.Clone(cg), core.Config{
		Rnet:        rcfg,
		Abstract:    kind,
		BufferPages: storage.DefaultBufferPages,
	})
}

// roadApproach deliberately queries through the FRAMEWORK surface, not
// a session: framework queries run the page-charging reference
// implementation in report mode, so the Stats.IO the paper's figures
// compare stays faithful to the 2009 evaluation. Serving latency of the
// CSR session hot path is the benchmark/ referee's business (core.* on
// na_kernel) and BenchmarkSessionKNN{CSR,Reference} in internal/core.
type roadApproach struct {
	f *core.Framework
}

func (a *roadApproach) Name() string              { return "ROAD" }
func (a *roadApproach) BuildTime() time.Duration  { return a.f.BuildTime }
func (a *roadApproach) IndexSizeBytes() int64     { return a.f.IndexSizeBytes() }
func (a *roadApproach) DropCache()                { a.f.DropCache() }
func (a *roadApproach) Graph() *graph.Graph       { return a.f.Graph() }
func (a *roadApproach) Objects() *graph.ObjectSet { return a.f.Objects() }

func (a *roadApproach) KNN(q graph.NodeID, k int) ([]float64, storage.Stats) {
	res, st := a.f.KNN(core.Query{Node: q}, k)
	return coreDists(res), st.IO
}

func (a *roadApproach) Range(q graph.NodeID, radius float64) ([]float64, storage.Stats) {
	res, st := a.f.Range(core.Query{Node: q}, radius)
	return coreDists(res), st.IO
}

func (a *roadApproach) InsertObject(e graph.EdgeID, du float64) (graph.ObjectID, error) {
	o, err := a.f.InsertObject(e, du, 0)
	return o.ID, err
}

func (a *roadApproach) DeleteObject(id graph.ObjectID) bool {
	return a.f.DeleteObject(id) == nil
}

func (a *roadApproach) SetEdgeWeight(e graph.EdgeID, w float64) error {
	_, err := a.f.SetEdgeWeight(e, w)
	return err
}

func (a *roadApproach) DeleteEdge(e graph.EdgeID) error {
	_, err := a.f.DeleteEdge(e)
	return err
}

func (a *roadApproach) RestoreEdge(e graph.EdgeID) error {
	_, err := a.f.RestoreEdge(e)
	return err
}

func coreDists(res []core.Result) []float64 {
	out := make([]float64, len(res))
	for i, r := range res {
		out[i] = r.Dist
	}
	return out
}

// --- NetExp adapter ---

type netexpApproach struct {
	ix *netexpand.Index
}

func (a *netexpApproach) Name() string              { return "NetExp" }
func (a *netexpApproach) BuildTime() time.Duration  { return a.ix.BuildTime }
func (a *netexpApproach) IndexSizeBytes() int64     { return a.ix.IndexSizeBytes() }
func (a *netexpApproach) DropCache()                { a.ix.Store().DropCache() }
func (a *netexpApproach) Graph() *graph.Graph       { return a.ix.Graph() }
func (a *netexpApproach) Objects() *graph.ObjectSet { return a.ix.ObjectSet() }

func (a *netexpApproach) KNN(q graph.NodeID, k int) ([]float64, storage.Stats) {
	res, st := a.ix.KNN(q, 0, k)
	dists := make([]float64, len(res))
	for i, r := range res {
		dists[i] = r.Dist
	}
	return dists, st.IO
}

func (a *netexpApproach) Range(q graph.NodeID, radius float64) ([]float64, storage.Stats) {
	res, st := a.ix.Range(q, 0, radius)
	dists := make([]float64, len(res))
	for i, r := range res {
		dists[i] = r.Dist
	}
	return dists, st.IO
}

func (a *netexpApproach) InsertObject(e graph.EdgeID, du float64) (graph.ObjectID, error) {
	o, err := a.ix.InsertObject(e, du, 0)
	return o.ID, err
}

func (a *netexpApproach) DeleteObject(id graph.ObjectID) bool { return a.ix.DeleteObject(id) }
func (a *netexpApproach) SetEdgeWeight(e graph.EdgeID, w float64) error {
	return a.ix.SetEdgeWeight(e, w)
}
func (a *netexpApproach) DeleteEdge(e graph.EdgeID) error  { return a.ix.DeleteEdge(e) }
func (a *netexpApproach) RestoreEdge(e graph.EdgeID) error { return a.ix.RestoreEdge(e) }

// --- Euclidean adapter ---

type euclidApproach struct {
	ix *euclid.Index
}

func (a *euclidApproach) Name() string              { return "Euclidean" }
func (a *euclidApproach) BuildTime() time.Duration  { return a.ix.BuildTime }
func (a *euclidApproach) IndexSizeBytes() int64     { return a.ix.IndexSizeBytes() }
func (a *euclidApproach) DropCache()                { a.ix.Store().DropCache() }
func (a *euclidApproach) Graph() *graph.Graph       { return a.ix.Graph() }
func (a *euclidApproach) Objects() *graph.ObjectSet { return a.ix.ObjectSet() }

func (a *euclidApproach) KNN(q graph.NodeID, k int) ([]float64, storage.Stats) {
	res, st := a.ix.KNN(q, 0, k)
	dists := make([]float64, len(res))
	for i, r := range res {
		dists[i] = r.Dist
	}
	return dists, st.IO
}

func (a *euclidApproach) Range(q graph.NodeID, radius float64) ([]float64, storage.Stats) {
	res, st := a.ix.Range(q, 0, radius)
	dists := make([]float64, len(res))
	for i, r := range res {
		dists[i] = r.Dist
	}
	return dists, st.IO
}

func (a *euclidApproach) InsertObject(e graph.EdgeID, du float64) (graph.ObjectID, error) {
	o, err := a.ix.InsertObject(e, du, 0)
	return o.ID, err
}

func (a *euclidApproach) DeleteObject(id graph.ObjectID) bool { return a.ix.DeleteObject(id) }
func (a *euclidApproach) SetEdgeWeight(e graph.EdgeID, w float64) error {
	return a.ix.SetEdgeWeight(e, w)
}
func (a *euclidApproach) DeleteEdge(e graph.EdgeID) error  { return a.ix.DeleteEdge(e) }
func (a *euclidApproach) RestoreEdge(e graph.EdgeID) error { return a.ix.RestoreEdge(e) }

// --- DistIdx adapter ---

type distidxApproach struct {
	ix *distidx.Index
}

func (a *distidxApproach) Name() string              { return "DistIdx" }
func (a *distidxApproach) BuildTime() time.Duration  { return a.ix.BuildTime }
func (a *distidxApproach) IndexSizeBytes() int64     { return a.ix.IndexSizeBytes() }
func (a *distidxApproach) DropCache()                { a.ix.Store().DropCache() }
func (a *distidxApproach) Graph() *graph.Graph       { return a.ix.Graph() }
func (a *distidxApproach) Objects() *graph.ObjectSet { return a.ix.ObjectSet() }

func (a *distidxApproach) KNN(q graph.NodeID, k int) ([]float64, storage.Stats) {
	res, st := a.ix.KNN(q, 0, k)
	dists := make([]float64, len(res))
	for i, r := range res {
		dists[i] = r.Dist
	}
	return dists, st.IO
}

func (a *distidxApproach) Range(q graph.NodeID, radius float64) ([]float64, storage.Stats) {
	res, st := a.ix.Range(q, 0, radius)
	dists := make([]float64, len(res))
	for i, r := range res {
		dists[i] = r.Dist
	}
	return dists, st.IO
}

func (a *distidxApproach) InsertObject(e graph.EdgeID, du float64) (graph.ObjectID, error) {
	o, err := a.ix.InsertObject(e, du, 0)
	return o.ID, err
}

func (a *distidxApproach) DeleteObject(id graph.ObjectID) bool { return a.ix.DeleteObject(id) }
func (a *distidxApproach) SetEdgeWeight(e graph.EdgeID, w float64) error {
	return a.ix.SetEdgeWeight(e, w)
}
func (a *distidxApproach) DeleteEdge(e graph.EdgeID) error  { return a.ix.DeleteEdge(e) }
func (a *distidxApproach) RestoreEdge(e graph.EdgeID) error { return a.ix.RestoreEdge(e) }
