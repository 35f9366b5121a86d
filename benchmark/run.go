package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"road"
	"road/internal/obs"
	"road/internal/server"
)

// runOptions selects what one run of one workload does.
type runOptions struct {
	seed    int64
	seconds float64 // timed window
	e2e     bool    // set up sz.setups times and report the end-to-end metrics
	ledger  bool    // run the ledger after the window and report the per-layer metrics
	sz      sizes
	outDir  string
}

// runResult is one run of one workload.
type runResult struct {
	Workload  string    `json:"workload"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Errors    []string  `json:"errors,omitempty"` // the first failure of each phase that had one
	EndToEnd  metricSet `json:"end_to_end,omitempty"`
	PerLayer  metricSet `json:"per_layer,omitempty"`
}

// note books a phase's attempts and failures.
func (r *runResult) note(phase string, attempted, failed int, first error) {
	r.Attempted += attempted
	r.Failed += failed
	if first != nil {
		r.Errors = append(r.Errors, phase+": "+first.Error())
	}
}

func (p phaseResult) err() error {
	if p.firstErr == "" {
		return nil
	}
	return errors.New(p.firstErr)
}

// counters is a reading of everything the window's deltas are taken from:
// the server's own /stats, the process's memory statistics, and the fleet's
// RPC counters and listeners.
type counters struct {
	stats  server.StatsResponse
	mem    runtime.MemStats
	rpcs   uint64
	hedges uint64
	wire   int64
}

func takeCounters(st *stack, c *conn) (counters, error) {
	var k counters
	status, body, err := c.roundTrip([]byte("GET /stats" + httpTail))
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("HTTP %d", status)
	}
	if err == nil {
		err = json.Unmarshal(body, &k.stats)
	}
	if err != nil {
		return k, fmt.Errorf("reading /stats: %w", err)
	}
	if st.remote != nil {
		fs := st.remote.FleetStatus()
		k.hedges = fs.Hedges
		for _, h := range fs.Hosts {
			k.rpcs += h.RPCs
		}
		k.wire = st.wireBytes()
	}
	runtime.ReadMemStats(&k.mem)
	return k, nil
}

// inMix reports whether the workload's timed window issues the op.
func (w *workload) inMix(kind opKind) bool {
	if kind == opMut {
		return w.Writer
	}
	return w.Mix[kind] > 0
}

var endToEndOpNames = [numOps]string{"knn", "within", "path", "mutation"}

// runWorkload runs one workload once: set-up, oracle check, warm-up, timed
// window, codas, replica check, and (optionally) the ledger.
func runWorkload(w *workload, o runOptions) (*runResult, error) {
	res := &runResult{Workload: w.Name, EndToEnd: metricSet{}, PerLayer: metricSet{}}
	tmp := filepath.Join(o.outDir, "tmp", fmt.Sprintf("%s-%d", w.Name, os.Getpid()))
	defer os.RemoveAll(tmp)

	var setupMuts []mutation
	var closable []road.EdgeID
	if w.Store != storeMono {
		g, set := genNetwork(w)
		closable = closableEdges(g, set)
		setupMuts = setupMutations(g, closable, w.Objects)
	}
	// A restarted ShardedDB replays its journals through the router and so
	// remembers every object ID they consumed; a restarted fleet re-derives
	// the next ID from the live objects and forgets them. The writer's ID
	// predictions and the referee's history follow the served store.
	remembered := setupMuts
	if w.Store == storeFleet {
		remembered = nil
	}

	// Set-up, several times over when its time is reported: one 0.2 s
	// hiccup must not move setup_s.
	setups := 1
	if o.e2e {
		setups = o.sz.setups
	}
	var st *stack
	var totals []float64
	for i := 0; i < setups; i++ {
		if st != nil {
			st.close()
			st = nil
			runtime.GC()
		}
		var err error
		if st, err = setUp(w, filepath.Join(tmp, fmt.Sprintf("setup%d", i)), setupMuts); err != nil {
			return nil, err
		}
		totals = append(totals, st.info.total.Seconds())
	}
	defer st.close()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	res.EndToEnd.put(endToEnd, "setup_s", median(totals), len(totals))
	res.EndToEnd.put(endToEnd, "heap_mb", float64(mem.HeapAlloc)/(1<<20), 1)

	// The load generator's inputs, all from the seed, all before the clock.
	// g and set are the baseline network: the oracle and the mutation
	// sources read them, nothing writes them.
	buildStart := time.Now()
	g, set := genNetwork(w)
	nodes := g.NumNodes()
	writer := numClients - 1
	perClient := int((o.seconds + o.sz.warmup.Seconds()) * float64(o.sz.maxOpsPerSec))
	streams := make([]*stream, numClients)
	for c := range streams {
		var muts *mutationSource
		if w.Writer && c == writer {
			muts = newMutationSource(o.seed, g, closable, road.ObjectID(w.Objects+objectIDsUsed(remembered)), mixedPairs)
		}
		streams[c] = buildStream(w, o.seed, c, nodes, perClient, muts)
	}
	probes := probeSet(w, o.seed, nodes, o.sz.probes)
	codas := map[opKind]*stream{}
	if !w.inMix(opPath) {
		codas[opPath] = buildCoda(w, o.seed, opPath, nodes, o.sz.coda, nil)
	}
	if !w.inMix(opMut) {
		// Only mono workloads lack mutations, and a mono set-up consumes no
		// object IDs.
		muts := newMutationSource(o.seed*1000+800, g, nil, road.ObjectID(w.Objects), objectPairs)
		codas[opMut] = buildCoda(w, o.seed, opMut, nodes, o.sz.coda, muts)
	}
	company := buildCoda(w, o.seed+1, opKNN, nodes, 4096, nil) // what client 0 loops over during a coda
	loadgenBuild := time.Since(buildStart)

	conns := make([]*conn, numClients)
	for i := range conns {
		var err error
		if conns[i], err = dial(st.api.addr()); err != nil {
			return nil, err
		}
		defer conns[i].close()
	}
	check := checker(w)

	bad, first := verifyAgainstOracle(conns[0], w, newOracle(g, set), probes)
	res.note("oracle", len(probes), bad, first)

	warm := runPhase(conns, streams, check, o.sz.warmup)
	res.note("warm-up", warm.attempted, warm.failed, warm.err())

	before, err := takeCounters(st, conns[0])
	if err != nil {
		return nil, err
	}
	win := runPhase(conns, streams, check, time.Duration(o.seconds*float64(time.Second)))
	after, err := takeCounters(st, conns[0])
	if err != nil {
		return nil, err
	}
	res.note("window", win.attempted, win.failed, win.err())

	// Finish a restore-pair the window cut in half, so the served store is
	// back at baseline for everything that follows.
	if ws := streams[writer]; w.Writer && ws.sent%2 == 1 {
		drain := runClient(conns[writer], ws.nextMutation(), check, stopAfter(1))
		ws.sent++
		res.note("drain", drain.attempted, drain.failed, drain.err())
	}

	// Codas: an op the mix lacks is issued by the last client, back to
	// back, after the window, so that every workload reports every metric.
	phases := [numOps]phaseResult{}
	for kind := opKNN; kind < numOps; kind++ {
		phases[kind] = win
		if s := codas[kind]; s != nil {
			phases[kind] = runCoda(conns, company, s, check)
			res.note("coda "+opNames[kind], phases[kind].attempted, phases[kind].failed, phases[kind].err())
		}
	}

	res.EndToEnd.put(endToEnd, "throughput_qps", float64(len(win.samples))/win.wall.Seconds(), len(win.samples))
	var p50s, p99s [numOps]float64
	for kind := opKNN; kind < numOps; kind++ {
		ph := phases[kind]
		var n int
		p50s[kind], n = slicedPercentile(ph.samples, kind, ph.wall, 0.50)
		p99s[kind], _ = slicedPercentile(ph.samples, kind, ph.wall, 0.99)
		res.EndToEnd.put(endToEnd, endToEndOpNames[kind]+"_p50_us", p50s[kind], n)
	}

	// The referee of a writer's final state: a fresh mono index that
	// replayed the same mutations must answer the probes the same way.
	var rep *replica
	if w.Writer {
		ws := streams[writer]
		history := append(append([]mutation(nil), remembered...), ws.muts[:ws.sent]...)
		if rep, err = newReplica(w, filepath.Join(tmp, "replica"), history); err != nil {
			return nil, err
		}
		defer rep.close()
		bad, first = verifyAgainstReplica(conns[0], w, rep.db, probes)
		res.note("replica", len(probes), bad, first)
	}

	if !o.ledger {
		res.PerLayer = nil
		return res, nil
	}
	calibration := calibrate()

	m := res.PerLayer
	for _, d := range perLayer {
		m[d.Name] = value{Unit: d.Unit} // 0: layer not in this stack, or op not in this mix
	}
	lg, err := newLedgerRun(w, o, st, rep, g, streams[0])
	if err != nil {
		return nil, err
	}
	defer lg.close()
	l := lg.run()
	res.note("ledger", len(l.spans)+l.failed, l.failed, l.first)
	l.metrics(lg.seams, m)
	if err := l.writeTrace(filepath.Join(o.outDir, w.Name+".trace.jsonl"), header(w, o)); err != nil {
		return nil, err
	}

	layerMetrics(m, w, o, st, rep, lg, l, windowObs{
		win: win, phases: phases, before: before, after: after,
		p50s: p50s, p99s: p99s, loadgenBuild: loadgenBuild, calibration: calibration,
	})
	return res, nil
}

// windowObs is what the timed window and the codas left for the per-layer
// metrics that do not come from the ledger's spans.
type windowObs struct {
	win           phaseResult
	phases        [numOps]phaseResult // per op: the window, or the op's coda
	before, after counters            // either side of the window
	p50s, p99s    [numOps]float64     // as reported end to end
	loadgenBuild  time.Duration
	calibration   float64
}

// layerMetrics fills in the layer figures that come from set-up, from the
// window's counter deltas and from the window's own samples.
func layerMetrics(m metricSet, w *workload, o runOptions, st *stack, rep *replica, lg *ledgerRun, l *ledger, ob windowObs) {
	win, phases, before, after := ob.win, ob.phases, ob.before, ob.after
	ops := float64(len(win.samples))
	secs := win.wall.Seconds()
	mono := st.info
	if rep != nil {
		mono = rep.info
		m.put(perLayer, "shard.build_s", st.info.build.Seconds(), 1)
		m.put(perLayer, "snapshot.save_s", st.info.save.Seconds(), 1)
		m.put(perLayer, "snapshot.load_s", st.info.load.Seconds(), 1)
		m.put(perLayer, "snapshot.replay_s", st.info.replay.Seconds(), 1)
		m.put(perLayer, "snapshot.bytes", float64(st.info.snapshotBytes), 1)
		m.put(perLayer, "snapshot.journal_bytes_op", st.info.journalBytesOp, setupOps)
		var home, esc uint64
		for i, sh := range after.stats.Shards {
			home += sh.HomeQueries - before.stats.Shards[i].HomeQueries
			esc += sh.Escalations - before.stats.Shards[i].Escalations
		}
		if home > 0 {
			m.put(perLayer, "shard.escalated_share", float64(esc)/float64(home), int(home))
		}
		m.put(perLayer, "shard.shards_searched_op", l.mean("shard.knn", func(s span) int { return s.Shards }), len(l.durations("shard.knn", nil)))
	}
	m.put(perLayer, "core.build_s", mono.build.Seconds(), 1)
	m.put(perLayer, "core.csr_warm_s", mono.csrWarm.Seconds(), 1)
	m.put(perLayer, "core.index_bytes", float64(mono.indexBytes), 1)
	if st.remote != nil {
		m.put(perLayer, "remote.rpcs_op", float64(after.rpcs-before.rpcs)/ops, int(ops))
		m.put(perLayer, "remote.wire_bytes_op", float64(after.wire-before.wire)/ops, int(ops))
		m.put(perLayer, "remote.hedges", float64(after.hedges-before.hedges), int(ops))
		var sum float64
		var n int
		for _, h := range st.hosts {
			if q := h.reg.Histogram("road_host_queue_seconds", "", "", obs.LatencyBuckets); q.Count() > 0 {
				sum += q.Quantile(0.5) * 1e6
				n++
			}
		}
		if n > 0 {
			m.put(perLayer, "remote.host_queue_p50_us", sum/float64(n), n)
		}
	}
	ca, cb := after.stats.Cache, before.stats.Cache
	if looks := (ca.Hits - cb.Hits) + (ca.Misses - cb.Misses); looks > 0 {
		m.put(perLayer, "server.cache_hit_share", float64(ca.Hits-cb.Hits)/float64(looks), int(looks))
	}
	m.put(perLayer, "server.cache_evictions", float64(ca.Evictions-cb.Evictions), int(ops))
	m.put(perLayer, "server.cache_invalidations", float64(ca.Invalidations-cb.Invalidations), int(ops))
	m.put(perLayer, "server.pool_created", float64(after.stats.Pool.Created), int(ops))
	cached := func(want bool) func(span) bool { return func(s span) bool { return s.Cached == want } }
	var hit, miss, bytes []float64
	for _, op := range []string{"server.knn", "server.within"} {
		hit = append(hit, l.durations(op, cached(true))...)
		miss = append(miss, l.durations(op, cached(false))...)
		bytes = append(bytes, l.mean(op, func(s span) int { return s.Bytes }))
	}
	m.put(perLayer, "server.hit_p50_us", median(hit), len(hit))
	m.put(perLayer, "server.miss_p50_us", median(miss), len(miss))
	m.put(perLayer, "server.resp_bytes_op", (bytes[0]+bytes[1])/2, len(hit)+len(miss))
	m.put(perLayer, "socket.healthz_p50_us", lg.healthzP50, o.sz.healthz)

	gap := 0.0
	for kind := opKNN; kind < numOps; kind++ {
		ph := phases[kind]
		lat := latencies(ph.samples, kind)
		name := opNames[kind]
		m.put(perLayer, "socket."+name+"_p99_us", ob.p99s[kind], len(lat))
		m.put(perLayer, "socket."+name+"_p999_us", obs.Percentile(lat, 0.999), len(lat))
		if len(lat) > 0 {
			m.put(perLayer, "socket."+name+"_max_us", lat[len(lat)-1], len(lat))
		}
		// How far the ledger's socket p50 is from the untraced window's is
		// what one request at a time, on an otherwise idle process, changes.
		if traced := l.p50("socket." + name); traced > 0 && w.inMix(kind) {
			if g := (traced - ob.p50s[kind]) / ob.p50s[kind]; math.Abs(g) > math.Abs(gap) {
				gap = g
			}
		}
	}
	m.put(perLayer, "loadgen.trace_overhead_share", gap, 1)
	m.put(perLayer, "loadgen.calibration_us", ob.calibration, calibrationPasses)
	m.put(perLayer, "loadgen.build_s", ob.loadgenBuild.Seconds(), 1)
	m.put(perLayer, "loadgen.overhead_us", micros(win.clientTime-win.busy)/float64(win.attempted), win.attempted)
	m.put(perLayer, "runtime.gc_cycles", float64(after.mem.NumGC-before.mem.NumGC), 1)
	m.put(perLayer, "runtime.gc_pause_ms", float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs)/1e6, int(after.mem.NumGC-before.mem.NumGC))
	m.put(perLayer, "runtime.allocs_op", float64(after.mem.Mallocs-before.mem.Mallocs)/ops, int(ops))
	m.put(perLayer, "runtime.alloc_mb_s", float64(after.mem.TotalAlloc-before.mem.TotalAlloc)/(1<<20)/secs, 1)
}

const calibrationPasses = 5

// calibrate times a fixed walk over 16 MB, one load and store per cache
// line, and returns the median pass in microseconds. It depends on nothing
// in this repository, so when it moves, the machine moved: on the sandbox
// this benchmark was written on it runs 15-30% slower for a minute at a
// time, and every compute-bound metric follows it.
func calibrate() float64 {
	buf := make([]uint64, 2<<20)
	var sum uint64
	walk := func() {
		for i := 0; i < len(buf); i += 8 {
			sum += buf[i]
			buf[i] = sum + uint64(i)
		}
	}
	walk() // fault the pages in
	passes := make([]float64, calibrationPasses)
	for p := range passes {
		t := time.Now()
		for rep := 0; rep < 4; rep++ {
			walk()
		}
		passes[p] = micros(time.Since(t))
	}
	return median(passes)
}

// nextMutation returns a one-op stream holding the writer's next mutation,
// and moves the stream past it.
func (s *stream) nextMutation() *stream {
	for {
		o := s.next()
		if o.kind == opMut {
			return &stream{ops: []op{o}, arena: s.arena, muts: s.muts}
		}
	}
}
