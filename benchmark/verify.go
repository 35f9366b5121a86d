package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sort"

	"road"
	"road/internal/graph"
	"road/internal/server"
)

// distTol is the relative distance tolerance of every answer comparison.
const distTol = 1e-9

func near(a, b float64) bool { return math.Abs(a-b) <= distTol*math.Max(1, math.Max(a, b)) }

// ranked is one answer row reduced to what correctness means: which
// object, how far.
type ranked struct {
	id   road.ObjectID
	dist float64
}

// probe is one oracle-checked query.
type probe struct {
	kind   opKind
	node   road.NodeID
	object road.ObjectID // path target
}

// probeSet draws n probes in a fixed 3:2:1 knn:within:path ratio at
// uniform nodes, so every workload's store is checked on every read op it
// can serve, including the ones its mix lacks.
func probeSet(w *workload, seed int64, nodes, n int) []probe {
	rng := rand.New(rand.NewSource(seed*1000 + 500))
	out := make([]probe, n)
	for i := range out {
		p := probe{kind: opKNN, node: road.NodeID(rng.Intn(nodes))}
		switch i % 6 {
		case 3, 4:
			p.kind = opWithin
		case 5:
			p.kind = opPath
			p.object = road.ObjectID(rng.Intn(w.Objects))
		}
		out[i] = p
	}
	return out
}

// oracle answers probes by brute force: one full Dijkstra over
// internal/graph per probe, then every object's distance through the
// nearer endpoint of its road.
type oracle struct {
	g      *graph.Graph
	set    *graph.ObjectSet
	search *graph.Search
}

func newOracle(g *graph.Graph, set *graph.ObjectSet) *oracle {
	return &oracle{g: g, set: set, search: graph.NewSearch(g)}
}

func (o *oracle) objectDist(obj graph.Object) float64 {
	e := o.g.Edge(obj.Edge)
	return math.Min(o.search.Dist(e.U)+obj.DU, o.search.Dist(e.V)+obj.DV)
}

// ranking returns every reachable object by ascending distance from node.
func (o *oracle) ranking(node road.NodeID) []ranked {
	o.search.Run(node, graph.Options{})
	all := o.set.All()
	out := make([]ranked, 0, len(all))
	for _, obj := range all {
		if d := o.objectDist(obj); !math.IsInf(d, 1) {
			out = append(out, ranked{obj.ID, d})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].dist != out[j].dist {
			return out[i].dist < out[j].dist
		}
		return out[i].id < out[j].id
	})
	return out
}

// sameRanking demands rank-for-rank agreement: equal distances at every
// rank, and equal objects wherever the distance is not tied with a
// neighbouring rank. A list may run past the other only by rows sitting on
// the cut-off (radius) itself.
func sameRanking(want, got []ranked, cutoff float64) error {
	n := min(len(want), len(got))
	for i := 0; i < n; i++ {
		if !near(want[i].dist, got[i].dist) {
			return fmt.Errorf("rank %d: distance %v, want %v", i, got[i].dist, want[i].dist)
		}
		if want[i].id != got[i].id {
			tied := (i > 0 && near(want[i-1].dist, want[i].dist)) ||
				(i+1 < len(want) && near(want[i+1].dist, want[i].dist)) ||
				i == n-1 // the last rank may tie with a row beyond the list
			if !tied {
				return fmt.Errorf("rank %d: object %d, want %d (distance %v, untied)", i, got[i].id, want[i].id, want[i].dist)
			}
		}
	}
	for _, rest := range [2][]ranked{want[n:], got[n:]} {
		for _, extra := range rest {
			if cutoff == 0 || !near(extra.dist, cutoff) {
				return fmt.Errorf("%d rows, want %d", len(got), len(want))
			}
		}
	}
	return nil
}

func fromWire(rows []server.ResultJSON) []ranked {
	out := make([]ranked, len(rows))
	for i, r := range rows {
		out[i] = ranked{r.Object, r.Dist}
	}
	return out
}

func fromStore(rows []road.Result) []ranked {
	out := make([]ranked, len(rows))
	for i, r := range rows {
		out[i] = ranked{r.Object.ID, r.Dist}
	}
	return out
}

// servedAnswer fetches one probe's answer over the socket.
func servedAnswer(c *conn, w *workload, p probe) (rows []ranked, path server.PathResponse, err error) {
	var s stream
	s.pushRead(w, p.kind, p.node, p.object)
	status, body, err := c.roundTrip(s.arena)
	if err != nil {
		return nil, path, err
	}
	if status != http.StatusOK {
		return nil, path, fmt.Errorf("HTTP %d: %s", status, body)
	}
	if p.kind == opPath {
		return nil, path, json.Unmarshal(body, &path)
	}
	var q server.QueryResponse
	if err := json.Unmarshal(body, &q); err != nil {
		return nil, path, err
	}
	return fromWire(q.Results), path, nil
}

// verify fetches every probe's answer over the socket and hands it to
// judge. It returns the number of probes that failed and the first failure.
func verify(c *conn, w *workload, probes []probe, against string, judge func(p probe, rows []ranked, path server.PathResponse) error) (bad int, first error) {
	for _, p := range probes {
		rows, path, err := servedAnswer(c, w, p)
		if err == nil {
			err = judge(p, rows, path)
		}
		if err != nil {
			bad++
			if first == nil {
				first = fmt.Errorf("probe %s node %d vs %s: %w", opNames[p.kind], p.node, against, err)
			}
		}
	}
	return bad, first
}

// verifyAgainstOracle checks the served store's answers to every probe
// against brute force over the baseline network.
func verifyAgainstOracle(c *conn, w *workload, o *oracle, probes []probe) (bad int, first error) {
	return verify(c, w, probes, "oracle", func(p probe, rows []ranked, path server.PathResponse) error {
		want := o.ranking(p.node)
		switch p.kind {
		case opKNN:
			return sameRanking(want[:min(w.K, len(want))], rows, 0)
		case opWithin:
			cut := sort.Search(len(want), func(i int) bool { return want[i].dist > w.Radius })
			return sameRanking(want[:cut], rows, w.Radius)
		default:
			return o.checkPath(p, path)
		}
	})
}

// checkPath checks a served route after ranking(p.node) ran: the distance
// is the object's shortest distance, and the nodes are a walk over roads
// from the query node to an endpoint of the object's road.
func (o *oracle) checkPath(p probe, got server.PathResponse) error {
	obj, ok := o.set.Get(p.object)
	if !ok {
		return fmt.Errorf("object %d not in the oracle", p.object)
	}
	if want := o.objectDist(obj); !near(want, got.Dist) {
		return fmt.Errorf("path distance %v, want %v", got.Dist, want)
	}
	if len(got.Path) == 0 || got.Path[0] != p.node {
		return fmt.Errorf("path %v does not start at node %d", got.Path, p.node)
	}
	for i := 1; i < len(got.Path); i++ {
		if o.g.EdgeBetween(got.Path[i-1], got.Path[i]) == graph.NoEdge {
			return fmt.Errorf("path hop %d: no road between %d and %d", i, got.Path[i-1], got.Path[i])
		}
	}
	if e, last := o.g.Edge(obj.Edge), got.Path[len(got.Path)-1]; last != e.U && last != e.V {
		return fmt.Errorf("path ends at %d, not on road %d of object %d", last, obj.Edge, p.object)
	}
	return nil
}

// verifyAgainstReplica checks the served store against a mono road.DB
// that replayed the same mutation history.
func verifyAgainstReplica(c *conn, w *workload, db *road.DB, probes []probe) (bad int, first error) {
	ctx := context.Background()
	sess := db.NewSession()
	return verify(c, w, probes, "replica", func(p probe, rows []ranked, path server.PathResponse) error {
		switch p.kind {
		case opKNN:
			want, _, err := sess.KNNContext(ctx, road.NewKNN(p.node, w.K))
			if err != nil {
				return err
			}
			return sameRanking(fromStore(want), rows, 0)
		case opWithin:
			want, _, err := sess.WithinContext(ctx, road.NewWithin(p.node, w.Radius))
			if err != nil {
				return err
			}
			return sameRanking(fromStore(want), rows, w.Radius)
		default:
			want, _, err := sess.PathToContext(ctx, road.NewPath(p.node, p.object))
			if err == nil && !near(want.Dist, path.Dist) {
				err = fmt.Errorf("path distance %v, replica says %v", path.Dist, want.Dist)
			}
			return err
		}
	})
}
