package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"road"
	"road/internal/core"
	"road/internal/obs"
	"road/internal/shard"
	"road/internal/version"
)

// endpoint indexes the hot-path metric arrays; endpointNames supplies
// the Prometheus label values.
type endpoint int

const (
	epKNN endpoint = iota
	epWithin
	epPath
	epBatch
	epMaint
	epCount
)

var endpointNames = [epCount]string{"knn", "within", "path", "batch", "maintenance"}

// Bucket layouts live in obs (LatencyBuckets and friends) so the shard
// hosts' /metrics bin the same quantities identically.

// metrics bundles the server's obs registry and the instruments updated
// on the request hot path: per-endpoint request counters and latency
// histograms, per-query cost histograms, and whole-process traversal
// totals. Everything else (cache, pool, journal, network size, per-shard
// load) is read off the live structures only at scrape time.
type metrics struct {
	reg *obs.Registry

	requests [epCount]*obs.Counter
	latency  [epCount]*obs.Histogram
	errors   *obs.Counter
	timeouts *obs.Counter

	nodesPopped    *obs.Counter
	rnetsBypassed  *obs.Counter
	rnetsDescended *obs.Counter
	shardsSearched *obs.Counter
	ioReads        *obs.Counter
	ioFaults       *obs.Counter

	queryPops  *obs.Histogram
	queryReads *obs.Histogram
}

// newMetrics builds the registry over a constructed server. Collector
// callbacks read s's live state; store-touching ones are safe because
// every store locks itself.
func newMetrics(s *Server) *metrics {
	m := &metrics{reg: obs.NewRegistry()}
	r := m.reg

	version.Register(r)
	r.Gauge("road_uptime_seconds", "", "Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })
	r.Gauge("road_epoch", "", "Store maintenance epoch; every successful mutation bumps it.",
		func() float64 { return float64(s.b.Epoch()) })
	r.Gauge("road_network_nodes", "", "Intersections in the served network.",
		func() float64 { return float64(s.b.NumNodes()) })
	r.Gauge("road_network_edges", "", "Road segments in the served network.",
		func() float64 { return float64(s.b.NumRoads()) })
	r.Gauge("road_network_objects", "", "Live objects in the served network.",
		func() float64 { return float64(s.b.NumObjects()) })
	r.Gauge("road_index_bytes", "", "Estimated index size in bytes.",
		func() float64 { return float64(s.b.IndexSizeBytes()) })

	for ep := epKNN; ep < epCount; ep++ {
		lbl := `endpoint="` + endpointNames[ep] + `"`
		m.requests[ep] = r.Counter("road_requests_total", lbl, "Requests served, by endpoint.")
	}
	m.errors = r.Counter("road_request_errors_total", "", "Requests that failed (any endpoint).")
	m.timeouts = r.Counter("road_request_timeouts_total", "", "Queries aborted by the -query-timeout deadline.")
	for ep := epKNN; ep < epCount; ep++ {
		lbl := `endpoint="` + endpointNames[ep] + `"`
		m.latency[ep] = r.Histogram("road_request_duration_seconds", lbl,
			"Request wall time in seconds, by endpoint.", obs.LatencyBuckets)
	}

	m.queryPops = r.Histogram("road_query_node_pops", "",
		"Heap pops (settled nodes) per uncached query — the paper's CPU cost metric.", obs.PopsBuckets)
	m.queryReads = r.Histogram("road_query_page_reads", "",
		"Simulated page reads per uncached query — the paper's I/O cost metric.", obs.ReadsBuckets)

	m.nodesPopped = r.Counter("road_traversal_nodes_popped_total", "", "Total heap pops across all queries.")
	m.rnetsBypassed = r.Counter("road_traversal_rnets_bypassed_total", "", "Total Rnet shortcut hops taken.")
	m.rnetsDescended = r.Counter("road_traversal_rnets_descended_total", "", "Total Rnet descents.")
	m.shardsSearched = r.Counter("road_traversal_shards_searched_total", "", "Total shard graphs searched.")
	m.ioReads = r.Counter("road_traversal_io_reads_total", "", "Total simulated page reads.")
	m.ioFaults = r.Counter("road_traversal_io_faults_total", "", "Total simulated page faults.")

	cacheSample := func(get func(CacheStats) float64) func() []obs.Sample {
		return func() []obs.Sample {
			if s.cache == nil {
				return nil
			}
			return []obs.Sample{{Value: get(s.cache.Stats())}}
		}
	}
	r.CollectorVec("road_cache_hits_total", "counter", "Result-cache hits.",
		cacheSample(func(st CacheStats) float64 { return float64(st.Hits) }))
	r.CollectorVec("road_cache_misses_total", "counter", "Result-cache misses.",
		cacheSample(func(st CacheStats) float64 { return float64(st.Misses) }))
	r.CollectorVec("road_cache_evictions_total", "counter", "Result-cache LRU evictions.",
		cacheSample(func(st CacheStats) float64 { return float64(st.Evictions) }))
	r.CollectorVec("road_cache_invalidations_total", "counter", "Result-cache epoch purges.",
		cacheSample(func(st CacheStats) float64 { return float64(st.Invalidations) }))
	r.CollectorVec("road_cache_entries", "gauge", "Result-cache live entries.",
		cacheSample(func(st CacheStats) float64 { return float64(st.Entries) }))

	r.CollectorVec("road_pool_sessions_created_total", "counter", "Sessions created by the pool.",
		func() []obs.Sample { return []obs.Sample{{Value: float64(s.pool.Stats().Created)}} })
	r.CollectorVec("road_pool_sessions_reused_total", "counter", "Sessions reused from the pool free list.",
		func() []obs.Sample { return []obs.Sample{{Value: float64(s.pool.Stats().Reused)}} })
	r.Gauge("road_pool_idle_sessions", "", "Sessions currently idle in the pool.",
		func() float64 { return float64(s.pool.Stats().Idle) })

	r.Gauge("road_journal_seq", "", "Write-ahead journal sequence number (entries logged).",
		func() float64 { return float64(s.b.JournalSeq()) })
	r.Gauge("road_journal_bytes", "", "Write-ahead journal size in bytes (summed across shards).",
		func() float64 { return float64(s.b.JournalSizeBytes()) })

	registerCSR(r, s.b)

	if sp, ok := s.b.(shardInfoProvider); ok {
		shardVec := func(get func(shard.Info) float64) func() []obs.Sample {
			return func() []obs.Sample {
				infos := sp.ShardInfos()
				out := make([]obs.Sample, len(infos))
				for i, inf := range infos {
					out[i] = obs.Sample{
						Labels: `shard="` + strconv.Itoa(int(inf.ID)) + `"`,
						Value:  get(inf),
					}
				}
				return out
			}
		}
		r.CollectorVec("road_shard_home_queries_total", "counter",
			"Queries whose query node lives in this shard.",
			shardVec(func(i shard.Info) float64 { return float64(i.HomeQueries) }))
		r.CollectorVec("road_shard_remote_entries_total", "counter",
			"Cross-shard expansions entering this shard through its borders.",
			shardVec(func(i shard.Info) float64 { return float64(i.RemoteEntries) }))
		r.CollectorVec("road_shard_escalations_total", "counter",
			"Home queries whose watched home search settled a border below the local answer, escalating to the cross-shard path.",
			shardVec(func(i shard.Info) float64 { return float64(i.Escalations) }))
		r.CollectorVec("road_shard_mutations_total", "counter",
			"Mutations applied to this shard.",
			shardVec(func(i shard.Info) float64 { return float64(i.Mutations) }))
		r.CollectorVec("road_shard_epoch", "gauge", "Per-shard maintenance epoch.",
			shardVec(func(i shard.Info) float64 { return float64(i.Epoch) }))
		r.CollectorVec("road_shard_objects", "gauge", "Live objects per shard.",
			shardVec(func(i shard.Info) float64 { return float64(i.Objects) }))
		r.CollectorVec("road_shard_borders", "gauge", "Border nodes per shard.",
			shardVec(func(i shard.Info) float64 { return float64(i.Borders) }))
	}

	return m
}

// registerCSR exports the upkeep of the CSR search indexes held in this
// process — whether mutations patched or rebuilt them, how long each
// mutator's drain took, and the slab footprint: one unlabelled series
// for a road.DB, one per in-process shard for a sharded store. Mirror
// shards have no index here; their host's /metrics carries the same
// families.
func registerCSR(r *obs.Registry, store road.Store) {
	type labelled struct {
		labels string
		st     core.CSRStats
	}
	var read func() []labelled
	var onDrain func(func(time.Duration))
	switch b := store.(type) {
	case interface {
		CSRStats() core.CSRStats
		Framework() *core.Framework
	}:
		read = func() []labelled { return []labelled{{st: b.CSRStats()}} }
		onDrain = b.Framework().OnCSRDrain
	case interface {
		shardInfoProvider
		Router() *shard.Router
	}:
		read = func() []labelled {
			var out []labelled
			for _, inf := range b.ShardInfos() {
				if inf.Host == "" {
					out = append(out, labelled{`shard="` + strconv.Itoa(int(inf.ID)) + `"`, inf.CSR})
				}
			}
			return out
		}
		onDrain = b.Router().OnCSRDrain
	}
	if read == nil || len(read()) == 0 {
		return // a pure coordinator: every index lives on a shard host
	}
	vec := func(get func(core.CSRStats) float64) func() []obs.Sample {
		return func() []obs.Sample {
			var out []obs.Sample
			for _, l := range read() {
				out = append(out, obs.Sample{Labels: l.labels, Value: get(l.st)})
			}
			return out
		}
	}
	r.CollectorVec("road_csr_rebuilds_total", "counter",
		"Whole-index CSR builds: the first one, dirty-log overflows and dead-cell compactions.",
		vec(func(st core.CSRStats) float64 { return float64(st.Rebuilds) }))
	r.CollectorVec("road_csr_bytes", "gauge", "CSR slab bytes held, live and dead cells together.",
		vec(func(st core.CSRStats) float64 { return float64(st.Bytes) }))
	patch := r.Histogram("road_csr_patch_seconds", "",
		"Time one post-mutation CSR drain took, in seconds: a per-node patch unless road_csr_rebuilds_total moved.", obs.PatchBuckets)
	onDrain(func(d time.Duration) { patch.Observe(d.Seconds()) })
}

// record folds one query's road.Stats into the traversal totals and the
// per-query cost histograms — a handful of atomic adds.
func (m *metrics) record(st road.Stats) {
	m.nodesPopped.Add(uint64(st.NodesPopped))
	m.rnetsBypassed.Add(uint64(st.RnetsBypassed))
	m.rnetsDescended.Add(uint64(st.RnetsDescended))
	m.shardsSearched.Add(uint64(st.ShardsSearched))
	m.ioReads.Add(uint64(st.IO.Reads))
	m.ioFaults.Add(uint64(st.IO.Faults))
	m.queryPops.Observe(float64(st.NodesPopped))
	m.queryReads.Observe(float64(st.IO.Reads))
}

// handleMetrics renders the registry in the Prometheus text exposition
// format. Gauges that touch the store read it through its own locks; the
// rendering goes to a buffer first so a failure is answered with the
// error envelope, not a truncated body.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var buf bytes.Buffer
	werr := s.met.reg.Write(&buf)
	for _, aux := range s.auxMet {
		if werr == nil {
			werr = aux.Write(&buf)
		}
	}
	if werr != nil {
		s.writeErr(w, http.StatusInternalServerError, "rendering metrics: %v", werr)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.Write(buf.Bytes())
}

// slowQueryEntry is one line of the slow-query log: the request
// identity — including the request ID that joins it to the query log
// and the client-visible response — plus the per-leg trace,
// JSON-encoded to the configured writer.
type slowQueryEntry struct {
	TS         string    `json:"ts"`
	ID         string    `json:"id,omitempty"`
	Op         string    `json:"op"`
	Node       int64     `json:"node"`
	DurationUS int64     `json:"duration_us"`
	Pops       int       `json:"pops"`
	Shards     int       `json:"shards,omitempty"`
	Legs       []obs.Leg `json:"legs"`
}

// logSlow emits a slow-query line when the threshold is configured and
// exceeded. The write is best-effort and serialized by the writer.
func (s *Server) logSlow(id, op string, node int64, elapsed time.Duration, st road.Stats, tr *obs.Trace) {
	if s.slowThresh <= 0 || elapsed < s.slowThresh || s.slowW == nil {
		return
	}
	entry := slowQueryEntry{
		TS:         time.Now().UTC().Format(time.RFC3339Nano),
		ID:         id,
		Op:         op,
		Node:       node,
		DurationUS: elapsed.Microseconds(),
		Pops:       st.NodesPopped,
		Shards:     st.ShardsSearched,
		Legs:       tr.Legs(),
	}
	b, err := json.Marshal(entry)
	if err != nil {
		return
	}
	s.slowMu.Lock()
	defer s.slowMu.Unlock()
	fmt.Fprintf(s.slowW, "slow query: %s\n", b)
}
