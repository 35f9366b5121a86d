package main

import (
	"bytes"
	"reflect"
	"testing"

	"road"
	"road/internal/geom"
	"road/internal/graph"
)

// smokeWorkload returns a copy of workload i on the smoke network.
func smokeWorkload(i int) *workload {
	w := workloads[i]
	w.Net, w.Objects = smokeNet()
	return &w
}

func TestStreamsAreAFunctionOfTheSeed(t *testing.T) {
	for i := range workloads {
		w := smokeWorkload(i)
		g, set := genNetwork(w)
		closable := closableEdges(g, set)
		build := func(seed int64) []*stream {
			var out []*stream
			for c := 0; c < numClients; c++ {
				var muts *mutationSource
				if w.Writer && c == numClients-1 {
					muts = newMutationSource(seed, g, closable, road.ObjectID(w.Objects), mixedPairs)
				}
				out = append(out, buildStream(w, seed, c, g.NumNodes(), 5000, muts))
			}
			return out
		}
		a, b, other := build(3), build(3), build(4)
		for c := range a {
			if !bytes.Equal(a[c].arena, b[c].arena) || !reflect.DeepEqual(a[c].ops, b[c].ops) || !reflect.DeepEqual(a[c].muts, b[c].muts) {
				t.Errorf("%s client %d: equal seeds gave different streams", w.Name, c)
			}
			if bytes.Equal(a[c].arena, other[c].arena) {
				t.Errorf("%s client %d: seeds 3 and 4 gave the same stream", w.Name, c)
			}
		}
		if bytes.Equal(a[0].arena, a[1].arena) {
			t.Errorf("%s: both clients issue the same stream", w.Name)
		}

		// The mix is the workload's, the writer's mutations come after
		// every readsPerMutation reads, and nobody else mutates.
		var kinds [numOps]int
		for _, o := range a[numClients-1].ops {
			kinds[o.kind]++
		}
		reads := kinds[opKNN] + kinds[opWithin] + kinds[opPath]
		for k, share := range w.Mix {
			if got := 100 * float64(kinds[k]) / float64(reads); got < float64(share)-3 || got > float64(share)+3 {
				t.Errorf("%s: %s is %.1f%% of reads, want %d%%", w.Name, opNames[k], got, share)
			}
		}
		wantMuts := 0
		if w.Writer {
			wantMuts = reads / readsPerMutation
		}
		if kinds[opMut] != wantMuts || len(a[0].muts) != 0 {
			t.Errorf("%s: writer issues %d mutations (want %d), reader %d (want 0)", w.Name, kinds[opMut], wantMuts, len(a[0].muts))
		}
	}
}

func TestZipfStreamIsSkewedAndUniformIsNot(t *testing.T) {
	top := func(w *workload) float64 {
		counts := map[int32]int{}
		s := buildStream(w, 1, 0, 2104, 20000, nil)
		for _, o := range s.ops {
			counts[o.node]++
		}
		best := 0
		for _, c := range counts {
			best = max(best, c)
		}
		return float64(best) / float64(len(s.ops))
	}
	if share := top(smokeWorkload(1)); share < 0.02 {
		t.Errorf("hottest Zipf node takes %.2f%% of requests, want a visible head", 100*share)
	}
	if share := top(smokeWorkload(0)); share > 0.005 {
		t.Errorf("hottest uniform node takes %.2f%% of requests", 100*share)
	}
}

// TestMutationStreamReturnsToBaseline applies a long mutation stream to a
// plain graph and object set and demands the baseline back: same weights,
// no road left closed, same objects — after every even prefix.
func TestMutationStreamReturnsToBaseline(t *testing.T) {
	w := smokeWorkload(2)
	g, set := genNetwork(w)
	base := g.Clone()
	closable := closableEdges(g, set)
	if len(closable) == 0 {
		t.Fatal("no closable road on the smoke network")
	}
	muts := newMutationSource(9, base, closable, road.ObjectID(w.Objects), mixedPairs).take(2000)
	seen := map[mutKind]int{}
	for i, m := range muts {
		seen[m.Kind]++
		switch m.Kind {
		case mutSetDistance:
			if err := g.SetWeight(m.Edge, m.Dist); err != nil {
				t.Fatal(err)
			}
		case mutInsertObject:
			o, err := set.Add(m.Edge, m.Offset, 0)
			if err != nil {
				t.Fatal(err)
			}
			if o.ID != m.Object {
				t.Fatalf("mutation %d: object got ID %d, stream predicted %d", i, o.ID, m.Object)
			}
		case mutDeleteObject:
			if !set.Remove(m.Object) {
				t.Fatalf("mutation %d: delete of unknown object %d", i, m.Object)
			}
		case mutClose:
			if len(set.OnEdge(m.Edge)) != 0 {
				t.Fatalf("mutation %d closes road %d, which carries objects", i, m.Edge)
			}
			if err := g.RemoveEdge(m.Edge); err != nil {
				t.Fatal(err)
			}
			if !g.Connected() {
				t.Fatalf("mutation %d: closing road %d disconnects the network", i, m.Edge)
			}
		case mutReopen:
			if err := g.RestoreEdge(m.Edge); err != nil {
				t.Fatal(err)
			}
		}
		if i%2 == 1 {
			assertBaseline(t, i, base, g, set, w.Objects)
		}
	}
	for _, k := range []mutKind{mutSetDistance, mutInsertObject, mutDeleteObject, mutClose, mutReopen} {
		if seen[k] == 0 {
			t.Errorf("2000 mutations held no %s", mutRoutes[k])
		}
	}
	if got := objectIDsUsed(muts); got != seen[mutInsertObject] {
		t.Errorf("objectIDsUsed = %d, want %d", got, seen[mutInsertObject])
	}
}

func assertBaseline(t *testing.T, i int, base, g *graph.Graph, set *graph.ObjectSet, objects int) {
	t.Helper()
	for e := 0; e < base.NumEdges(); e++ {
		if b, c := base.Edge(graph.EdgeID(e)), g.Edge(graph.EdgeID(e)); b != c {
			t.Fatalf("after mutation %d road %d is %+v, baseline %+v", i, e, c, b)
		}
	}
	if set.Len() != objects {
		t.Fatalf("after mutation %d there are %d objects, baseline %d", i, set.Len(), objects)
	}
}

func TestEveryBridgeIsKeptOpen(t *testing.T) {
	// A path graph with one triangle: only the triangle's roads are off
	// every bridge.
	g := graph.New(0, 0)
	for i := 0; i < 6; i++ {
		g.AddNode(geom.Point{X: float64(i)})
	}
	var ids []graph.EdgeID
	for _, uv := range [][2]graph.NodeID{{0, 1}, {1, 2}, {2, 3}, {3, 1}, {3, 4}, {4, 5}} {
		ids = append(ids, g.MustAddEdge(uv[0], uv[1], 1))
	}
	set := graph.NewObjectSet(g)
	set.MustAdd(ids[2], 0.5, 0) // a road with an object is not closable either
	got := closableEdges(g, set)
	if want := []road.EdgeID{ids[1], ids[3]}; !reflect.DeepEqual(got, want) {
		t.Errorf("closable roads %v, want %v", got, want)
	}
}
