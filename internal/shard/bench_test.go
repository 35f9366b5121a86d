package shard

import (
	"math/rand"
	"testing"

	"road/internal/core"
	"road/internal/dataset"
	"road/internal/graph"
	"road/internal/rnet"
)

// benchScale mirrors the HTTP benchmark default (full CA).
const benchScale = 1.0

// caRouter builds the serving benchmark's network and object set as a
// K=4 router over copies of both, and returns the originals too, with a
// query-node sample.
func caRouter(tb testing.TB) (*Router, *graph.Graph, *graph.ObjectSet, []graph.NodeID) {
	tb.Helper()
	spec := dataset.Scaled(dataset.CA(), benchScale)
	g := dataset.MustGenerate(spec)
	set := dataset.PlaceUniform(g, 2000, 1, 0, 1, 2, 3)
	g2 := g.Clone()
	r, err := Build(g2, set.Clone(g2), Options{Shards: 4, Seed: 1, Core: core.Config{BufferPages: -1}})
	if err != nil {
		tb.Fatal(err)
	}
	return r, g, set, dataset.RandomNodes(g, 512, 7)
}

// benchPair builds the serving benchmark's network and object set twice:
// as one framework (storing waypoints, so it routes) and as a K=4 router.
func benchPair(b *testing.B) (*core.Session, *Session, []graph.NodeID, []graph.Object) {
	b.Helper()
	r, g, set, nodes := caRouter(b)
	mono, err := core.Build(g, set, core.Config{BufferPages: -1, Rnet: rnet.Config{StorePaths: true}})
	if err != nil {
		b.Fatal(err)
	}
	return mono.NewSession(), r.NewSession(), nodes, set.All()
}

func BenchmarkKNNSingle(b *testing.B) {
	ms, _, nodes, _ := benchPair(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms.KNN(core.Query{Node: nodes[i%len(nodes)]}, 5)
	}
}

func BenchmarkKNNSharded(b *testing.B) {
	_, rs, nodes, _ := benchPair(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs.KNN(nodes[i%len(nodes)], 5, 0)
	}
}

func BenchmarkWithinSingle(b *testing.B) {
	ms, _, nodes, _ := benchPair(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms.Range(core.Query{Node: nodes[i%len(nodes)]}, 0.4)
	}
}

func BenchmarkWithinSharded(b *testing.B) {
	_, rs, nodes, _ := benchPair(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs.Within(nodes[i%len(nodes)], 0.4, 0)
	}
}

func BenchmarkPathToSingle(b *testing.B) {
	ms, _, nodes, objs := benchPair(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms.PathTo(core.Query{Node: nodes[i%len(nodes)]}, objs[(i*7)%len(objs)].ID)
	}
}

func BenchmarkPathToSharded(b *testing.B) {
	_, rs, nodes, objs := benchPair(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs.PathTo(nodes[i%len(nodes)], objs[(i*7)%len(objs)].ID)
	}
}

// BenchmarkShardSetDistance times one set-distance restore pair (×1.2,
// then back) on a random road through Router.ApplyOp: framework apply,
// CSR re-warm and the incremental derived-state repair.
func BenchmarkShardSetDistance(b *testing.B) {
	r, g, _, _ := caRouter(b)
	rng := rand.New(rand.NewSource(9))
	edges := make([]graph.EdgeID, 512)
	for i := range edges {
		edges[i] = graph.EdgeID(rng.Intn(g.NumEdges()))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ge := edges[i%len(edges)]
		w := g.Weight(ge)
		for _, v := range [2]float64{w * 1.2, w} {
			sid, op, err := r.EncodeSetDistance(ge, v)
			if err != nil {
				b.Fatal(err)
			}
			if err := r.ApplyOp(sid, op, true); err != nil {
				b.Fatal(err)
			}
		}
	}
}
