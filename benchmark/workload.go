package main

import (
	"fmt"
	"math/rand"
	"strconv"
	"time"

	"road"
	"road/internal/dataset"
	"road/internal/graph"
)

// The load model is stated, not tunable: every workload runs in one
// process with GOMAXPROCS=2, serves over a real loopback listener with
// default server.Options, and is driven by a closed loop of 2 clients on 2
// keep-alive connections. README.md says why.
const (
	maxProcs         = 2
	numClients       = 2
	numShards        = 4
	readsPerMutation = 24  // client 1 of a writer workload: one mutation after every 24 reads
	setupOps         = 300 // journaled ops replayed by the restart path of the sharded set-ups
	numSlices        = 5   // the timed window is cut into this many slices; percentiles are medians of per-slice values
	setupSeed        = 7   // seeds the set-up op stream, so set-up work is the same for every --seed
	placementSeed    = 1   // seeds object placement: the data set is fixed, only the traffic follows --seed
	zipfS, zipfV     = 1.1, 8.0
)

type storeKind int

const (
	storeMono storeKind = iota
	storeSharded
	storeFleet
)

type opKind uint8

const (
	opKNN opKind = iota
	opWithin
	opPath
	opMut
	numOps
)

var opNames = [numOps]string{"knn", "within", "path", "mut"}

// workload is one fixed traffic shape over one deployment shape. Names are
// cited by later issues; constants are part of the benchmark's definition.
type workload struct {
	Name string
	Why  string

	Net     dataset.Spec
	Objects int
	Store   storeKind
	Zipf    bool   // Zipf(zipfS, zipfV) node popularity instead of uniform
	Mix     [3]int // percent of reads that are knn, within, path
	K       int
	Radius  float64 // pinned /within radius
	Writer  bool    // client 1 interleaves mutations

	// LedgerPrewarm is the number of cacheable stream requests replayed,
	// untimed, into the ledger's fresh server instances so their result
	// caches reach the steady state the timed window saw. Only the skewed
	// workload has a steady state other than "empty".
	LedgerPrewarm int
}

var workloads = []workload{
	{
		Name: "na_kernel",
		Why:  "NA x0.12 (21,097 nodes), 500 sparse objects, uniform nodes, 50/30/20 knn(k=20)/within/path: every search is long, so the kernel is 80% of a request, and the result cache barely hits",
		Net:  dataset.Scaled(dataset.NA(), 0.12), Objects: 500, Store: storeMono,
		Mix: [3]int{50, 30, 20}, K: 20, Radius: 80,
	},
	{
		Name: "ca_serve",
		Why:  "CA (21,048 nodes), Zipf(1.1) nodes, 67/33 knn/within: most requests are cache hits, so handler, cache, JSON and net/http do the work and the kernel must not matter",
		Net:  dataset.CA(), Objects: 2000, Store: storeMono, Zipf: true,
		Mix: [3]int{67, 33, 0}, K: 10, Radius: 30, LedgerPrewarm: 8192,
	},
	{
		Name: "ca_sharded_rw",
		Why:  "CA over ShardedDB K=4 with journals, 60/30/10 reads plus ~2% mutations on one client: router, write fence, journal append and epoch cache purges land here",
		Net:  dataset.CA(), Objects: 2000, Store: storeSharded,
		Mix: [3]int{60, 30, 10}, K: 10, Radius: 30, Writer: true,
	},
	{
		Name: "ca_fleet",
		Why:  "the ca_sharded_rw op stream served by RemoteDB over two loopback shard hosts: the difference to ca_sharded_rw is the JSON wire",
		Net:  dataset.CA(), Objects: 2000, Store: storeFleet,
		Mix: [3]int{60, 30, 10}, K: 10, Radius: 30, Writer: true,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// sizes are the sample counts and phase lengths of one run. The full
// sizes define the benchmark; the smoke sizes only prove that every stack
// runs end to end.
type sizes struct {
	warmup       time.Duration
	setups       int // set-ups per end-to-end run; setup_s is their median
	probes       int // oracle-checked queries before the clock
	coda         int // requests per op kind the main mix lacks, issued by one client after the window
	ledgerReads  int // knn + within in the ledger sample
	ledgerPaths  int
	ledgerMuts   int // issued as restore-pairs
	healthz      int
	maxOpsPerSec int // per client; sizes the pre-built request stream
}

var fullSizes = sizes{
	warmup: 3 * time.Second, setups: 3, probes: 300, coda: 2000,
	ledgerReads: 2000, ledgerPaths: 200, ledgerMuts: 200, healthz: 500,
	maxOpsPerSec: 30000,
}

var smokeSizes = sizes{
	warmup: 200 * time.Millisecond, setups: 1, probes: 30, coda: 20,
	ledgerReads: 60, ledgerPaths: 10, ledgerMuts: 10, healthz: 20,
	maxOpsPerSec: 30000,
}

// smokeNet replaces every workload's network under -smoke.
func smokeNet() (dataset.Spec, int) { return dataset.Scaled(dataset.CA(), 0.1), 200 }

// genNetwork builds the workload's network and object set. Both are pure
// functions of the workload constants.
func genNetwork(w *workload) (*graph.Graph, *graph.ObjectSet) {
	g := dataset.MustGenerate(w.Net)
	return g, dataset.PlaceUniform(g, w.Objects, placementSeed)
}

// --- mutations ---

type mutKind uint8

const (
	mutSetDistance mutKind = iota
	mutInsertObject
	mutDeleteObject
	mutClose
	mutReopen
)

var mutRoutes = [...]string{"set-distance", "insert-object", "delete-object", "close", "reopen"}

// mutation is one maintenance call. Mutations come in adjacent
// restore-pairs (raise a weight / restore it, insert an object / delete
// it, close a road / reopen it), so after every even prefix the network is
// back at its baseline.
type mutation struct {
	Kind   mutKind
	Edge   road.EdgeID
	Dist   float64       // set-distance
	Offset float64       // insert-object
	Object road.ObjectID // delete-object; for insert-object the ID the store must assign
}

func (m mutation) body() string {
	switch m.Kind {
	case mutSetDistance:
		return `{"edge":` + strconv.Itoa(int(m.Edge)) + `,"dist":` + strconv.FormatFloat(m.Dist, 'g', -1, 64) + `}`
	case mutInsertObject:
		return `{"edge":` + strconv.Itoa(int(m.Edge)) + `,"offset":` + strconv.FormatFloat(m.Offset, 'g', -1, 64) + `}`
	case mutDeleteObject:
		return `{"object":` + strconv.Itoa(int(m.Object)) + `}`
	default:
		return `{"edge":` + strconv.Itoa(int(m.Edge)) + `}`
	}
}

// apply runs the mutation against a store. It leaves the post-mutation
// warm to the caller: a replay warms once, at its end.
func (m mutation) apply(s road.Store) error {
	var err error
	switch m.Kind {
	case mutSetDistance:
		err = s.SetRoadDistance(m.Edge, m.Dist)
	case mutInsertObject:
		var o road.Object
		if o, err = s.AddObject(m.Edge, m.Offset, 0); err == nil && o.ID != m.Object {
			err = fmt.Errorf("inserted object got ID %d, stream predicted %d", o.ID, m.Object)
		}
	case mutDeleteObject:
		err = s.RemoveObject(m.Object)
	case mutClose:
		err = s.CloseRoad(m.Edge)
	case mutReopen:
		err = s.ReopenRoad(m.Edge)
	}
	if err != nil {
		return fmt.Errorf("%s %+v: %w", mutRoutes[m.Kind], m, err)
	}
	return nil
}

// mutationSource draws restore-pairs over a baseline network.
type mutationSource struct {
	rng      *rand.Rand
	g        *graph.Graph // baseline weights; never mutated
	closable []road.EdgeID
	nextID   road.ObjectID // the ID the next insert-object will be assigned
	shares   [2]int        // percent of pairs that are set-distance, insert/delete-object; the rest close/reopen
}

var (
	mixedPairs       = [2]int{60, 30} // the writer workloads' stream and the set-up op stream
	objectPairs      = [2]int{0, 100} // the mono codas: object churn is the mutation a read-mostly index sees
	setDistancePairs = [2]int{100, 0} // the ledger: the pair whose IDs are the same at every seam
)

// newMutationSource prepares a source. closable lists the roads a
// close/reopen pair may pick: off every bridge, so the network stays
// connected and no query fails, and free of objects, which a close would
// drop for good.
func newMutationSource(seed int64, g *graph.Graph, closable []road.EdgeID, nextID road.ObjectID, shares [2]int) *mutationSource {
	return &mutationSource{rng: rand.New(rand.NewSource(seed)), g: g, closable: closable, nextID: nextID, shares: shares}
}

// pair draws one restore-pair: set-distance (+20% then back),
// insert/delete-object, or close/reopen.
func (s *mutationSource) pair() [2]mutation {
	e := road.EdgeID(s.rng.Intn(s.g.NumEdges()))
	w := s.g.Weight(e)
	p := s.rng.Intn(100)
	switch {
	case p < s.shares[0]:
		return [2]mutation{
			{Kind: mutSetDistance, Edge: e, Dist: w * 1.2},
			{Kind: mutSetDistance, Edge: e, Dist: w},
		}
	case p < s.shares[0]+s.shares[1] || len(s.closable) == 0:
		id := s.nextID
		s.nextID++
		return [2]mutation{
			{Kind: mutInsertObject, Edge: e, Offset: w / 2, Object: id},
			{Kind: mutDeleteObject, Object: id},
		}
	default:
		e = s.closable[s.rng.Intn(len(s.closable))]
		return [2]mutation{{Kind: mutClose, Edge: e}, {Kind: mutReopen, Edge: e}}
	}
}

// take returns the next n mutations (n even).
func (s *mutationSource) take(n int) []mutation {
	out := make([]mutation, 0, n)
	for len(out) < n {
		p := s.pair()
		out = append(out, p[0], p[1])
	}
	return out
}

// closableEdges returns the non-bridge edges of g that carry no object, in
// edge order. Bridges are found with an iterative low-link DFS.
func closableEdges(g *graph.Graph, set *graph.ObjectSet) []road.EdgeID {
	n := g.NumNodes()
	disc := make([]int32, n) // 0 = unvisited
	low := make([]int32, n)
	bridge := make([]bool, g.NumEdges())
	type frame struct {
		node graph.NodeID
		via  graph.EdgeID // tree edge into node
		next int          // next neighbour index to look at
	}
	var clock int32
	for root := 0; root < n; root++ {
		if disc[root] != 0 {
			continue
		}
		clock++
		disc[root], low[root] = clock, clock
		stack := []frame{{node: graph.NodeID(root), via: graph.NoEdge}}
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			nbrs := g.Neighbors(f.node)
			if f.next < len(nbrs) {
				h := nbrs[f.next]
				f.next++
				if h.Edge == f.via {
					continue
				}
				if disc[h.To] == 0 {
					clock++
					disc[h.To], low[h.To] = clock, clock
					stack = append(stack, frame{node: h.To, via: h.Edge})
				} else if disc[h.To] < low[f.node] {
					low[f.node] = disc[h.To]
				}
				continue
			}
			child := *f
			stack = stack[:len(stack)-1]
			if len(stack) == 0 {
				break
			}
			parent := stack[len(stack)-1].node
			if low[child.node] < low[parent] {
				low[parent] = low[child.node]
			}
			if low[child.node] > disc[parent] {
				bridge[child.via] = true
			}
		}
	}
	var out []road.EdgeID
	for e := 0; e < g.NumEdges(); e++ {
		id := road.EdgeID(e)
		if !bridge[e] && !g.Edge(id).Removed && len(set.OnEdge(id)) == 0 {
			out = append(out, id)
		}
	}
	return out
}

// --- request streams ---

// op is one pre-built request: a raw HTTP/1.1 message in the stream's
// arena plus what the in-line check needs to know about it. It holds no
// pointers, so a stream of several hundred thousand ops costs the garbage
// collector nothing to scan.
type op struct {
	kind     opKind
	node     int32 // query node of a read; insert-object: the ID the store must assign, else -1
	arg      int32 // path: target object; mut: index into stream.muts
	off, end uint32
}

// stream is one client's pre-built request sequence. A run that outlasts
// it wraps around, which maxOpsPerSec is sized to prevent.
type stream struct {
	ops   []op
	arena []byte
	muts  []mutation // writer stream only, in issue order
	pos   int        // next op to issue
	sent  int        // mutations issued so far
}

func (s *stream) request(o op) []byte { return s.arena[o.off:o.end] }

func (s *stream) next() op {
	o := s.ops[s.pos%len(s.ops)]
	s.pos++
	return o
}

func (s *stream) push(o op, msg string) {
	o.off = uint32(len(s.arena))
	s.arena = append(s.arena, msg...)
	o.end = uint32(len(s.arena))
	s.ops = append(s.ops, o)
}

const httpTail = " HTTP/1.1\r\nHost: bench\r\n\r\n"

func (s *stream) pushRead(w *workload, kind opKind, node, object int32) {
	var msg string
	switch kind {
	case opKNN:
		msg = "GET /knn?node=" + strconv.Itoa(int(node)) + "&k=" + strconv.Itoa(w.K) + httpTail
	case opWithin:
		msg = "GET /within?node=" + strconv.Itoa(int(node)) + "&radius=" + strconv.FormatFloat(w.Radius, 'g', -1, 64) + httpTail
	case opPath:
		msg = "GET /path?node=" + strconv.Itoa(int(node)) + "&object=" + strconv.Itoa(int(object)) + httpTail
	}
	s.push(op{kind: kind, node: node, arg: object}, msg)
}

func (s *stream) pushMutation(m mutation) {
	body := m.body()
	msg := "POST /maintenance/" + mutRoutes[m.Kind] + " HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: " +
		strconv.Itoa(len(body)) + "\r\n\r\n" + body
	predicted := int32(-1)
	if m.Kind == mutInsertObject {
		predicted = m.Object
	}
	s.push(op{kind: opMut, node: predicted, arg: int32(len(s.muts))}, msg)
	s.muts = append(s.muts, m)
}

// nodePicker draws query nodes: uniformly, or by Zipf rank through a
// seeded permutation so the hot nodes are scattered over the network.
type nodePicker struct {
	rng  *rand.Rand
	n    int
	zipf *rand.Zipf
	perm []int32
}

func newNodePicker(w *workload, rng *rand.Rand, permSeed int64, nodes int) *nodePicker {
	p := &nodePicker{rng: rng, n: nodes}
	if w.Zipf {
		p.zipf = rand.NewZipf(rng, zipfS, zipfV, uint64(nodes-1))
		p.perm = make([]int32, nodes)
		for i, v := range rand.New(rand.NewSource(permSeed)).Perm(nodes) {
			p.perm[i] = int32(v)
		}
	}
	return p
}

func (p *nodePicker) pick() int32 {
	if p.zipf != nil {
		return p.perm[p.zipf.Uint64()]
	}
	return int32(p.rng.Intn(p.n))
}

// readSource draws reads in the workload's mix.
type readSource struct {
	w     *workload
	rng   *rand.Rand
	nodes *nodePicker
}

// newReadSource seeds client's read sequence. Both clients of a skewed
// workload share one popularity ranking (permSeed follows --seed only).
func newReadSource(w *workload, seed int64, client, nodes int) *readSource {
	rng := rand.New(rand.NewSource(seed*1000 + int64(client)))
	return &readSource{w: w, rng: rng, nodes: newNodePicker(w, rng, seed, nodes)}
}

func (r *readSource) draw() (kind opKind, node, object int32) {
	p := r.rng.Intn(100)
	switch {
	case p < r.w.Mix[0]:
		kind = opKNN
	case p < r.w.Mix[0]+r.w.Mix[1]:
		kind = opWithin
	default:
		kind = opPath
		// Base objects are never deleted, so every target exists.
		object = int32(r.rng.Intn(r.w.Objects))
	}
	return kind, r.nodes.pick(), object
}

// buildStream pre-builds n reads for one client; muts, when non-nil,
// interleaves one mutation after every readsPerMutation reads.
func buildStream(w *workload, seed int64, client, nodes, n int, muts *mutationSource) *stream {
	src := newReadSource(w, seed, client, nodes)
	s := &stream{ops: make([]op, 0, n+n/readsPerMutation+2), arena: make([]byte, 0, n*56)}
	var pending []mutation
	for i := 1; i <= n; i++ {
		kind, node, object := src.draw()
		s.pushRead(w, kind, node, object)
		if muts != nil && i%readsPerMutation == 0 {
			if len(pending) == 0 {
				p := muts.pair()
				pending = p[:]
			}
			s.pushMutation(pending[0])
			pending = pending[1:]
		}
	}
	return s
}

// buildCoda pre-builds a fixed-length stream of one op kind for the
// single-client coda that measures an op the main mix lacks.
func buildCoda(w *workload, seed int64, kind opKind, nodes, n int, muts *mutationSource) *stream {
	s := &stream{}
	if kind == opMut {
		for _, m := range muts.take(n) {
			s.pushMutation(m)
		}
		return s
	}
	rng := rand.New(rand.NewSource(seed*1000 + 900 + int64(kind)))
	for i := 0; i < n; i++ {
		s.pushRead(w, kind, int32(rng.Intn(nodes)), int32(rng.Intn(w.Objects)))
	}
	return s
}
