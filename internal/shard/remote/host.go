package remote

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"road/internal/core"
	"road/internal/graph"
	"road/internal/obs"
	"road/internal/shard"
	"road/internal/snapshot"
	"road/internal/version"
)

// HostConfig configures a shard host.
type HostConfig struct {
	// SnapshotPrefix locates the deployment's persistent state: the
	// manifest at <prefix>.manifest, shard i's snapshot at <prefix>.i and
	// its identity sidecar at <prefix>.i.ids (same layout the router-side
	// ShardedDB writes, so a host can boot straight off a router-saved
	// deployment).
	SnapshotPrefix string
	// JournalPrefix locates shard i's write-ahead journal at <prefix>.i.
	JournalPrefix string
	// SyncJournal fsyncs every journal append before acknowledging.
	SyncJournal bool
	// Registry receives the host's metrics (nil: a private registry).
	Registry *obs.Registry
}

// hostShard is one served shard: the full local shard, its journal, and
// the host-side exclusion that orders applies against searches.
type hostShard struct {
	// mu is the host-side reader/writer exclusion: searches, legs, object
	// reads and state exports hold it shared; applies and snapshots hold
	// it exclusively.
	mu      sync.RWMutex
	s       *shard.Shard
	j       *snapshot.Journal
	baseSeq uint64 // journal seq the loaded snapshot covers

	// searchers pools per-session compute handles; Get/Put run under mu
	// (shared), satisfying NewLocalSearcher's exclusion requirement.
	searchers sync.Pool

	snapPath, sidecarPath string
}

// Host serves a subset of a deployment's shards over HTTP: the compute
// surface the Fleet's remote shards call, plus state export, health and
// snapshot administration.
type Host struct {
	cfg    HostConfig
	m      *shard.Manifest
	shards map[int]*hostShard
	ids    []int // sorted owned shard IDs
	mux    *http.ServeMux
	reg    *obs.Registry
	start  time.Time

	applied  *obs.Counter
	searches *obs.Counter

	// Host-side cost breakdown, binned with the same layouts the router
	// uses so the two /metrics expositions compare series-for-series.
	rpcSearch     *obs.Histogram // compute inside Search RPCs
	rpcLeg        *obs.Histogram // compute inside Leg RPCs
	rpcApply      *obs.Histogram // compute inside Apply RPCs (post-journal)
	queueWait     *obs.Histogram // wait for the shard lock + a searcher
	journalAppend *obs.Histogram // journal append incl. fsync when enabled
	searchPops    *obs.Histogram
	snapshots     *obs.Counter
}

func readJSONFile(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// OpenHost boots a host for the given shard IDs: manifest, snapshots,
// identity sidecars (falling back to the manifest's maps when absent —
// a deployment the router just saved has exact ones), journal replay,
// then a full derived-state refresh and shortcut warm-up.
func OpenHost(ids []int, cfg HostConfig) (*Host, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("remote: host must own at least one shard")
	}
	m := &shard.Manifest{}
	if err := readJSONFile(shard.ManifestPath(cfg.SnapshotPrefix), m); err != nil {
		return nil, fmt.Errorf("remote: reading manifest: %w", err)
	}

	frameworks := make(map[int]*core.Framework, len(ids))
	idents := make(map[int]*shard.ShardManifest, len(ids))
	baseSeqs := make(map[int]uint64, len(ids))
	for _, id := range ids {
		f, baseSeq, err := snapshot.LoadFile(shard.SnapshotPath(cfg.SnapshotPrefix, id))
		if err != nil {
			return nil, fmt.Errorf("remote: shard %d snapshot: %w", id, err)
		}
		frameworks[id] = f
		baseSeqs[id] = baseSeq
		sm := &shard.ShardManifest{}
		switch err := readJSONFile(shard.SidecarPath(cfg.SnapshotPrefix, id), sm); {
		case err == nil:
			idents[id] = sm
		case os.IsNotExist(err):
			// AssembleHostShards falls back to the manifest's maps.
		default:
			return nil, fmt.Errorf("remote: shard %d identity sidecar: %w", id, err)
		}
	}
	assembled, err := shard.AssembleHostShards(m, frameworks, idents)
	if err != nil {
		return nil, err
	}

	reg := cfg.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	h := &Host{
		cfg:      cfg,
		m:        m,
		shards:   make(map[int]*hostShard, len(ids)),
		ids:      append([]int(nil), ids...),
		reg:      reg,
		start:    time.Now(),
		applied:  reg.Counter("road_host_ops_applied_total", "", "Mutations applied by this shard host."),
		searches: reg.Counter("road_host_searches_total", "", "Search/leg RPCs served by this shard host."),
		rpcSearch: reg.Histogram("road_host_rpc_seconds", `rpc="search"`,
			"Host-side compute per RPC, by RPC kind.", obs.LatencyBuckets),
		rpcLeg: reg.Histogram("road_host_rpc_seconds", `rpc="leg"`,
			"Host-side compute per RPC, by RPC kind.", obs.LatencyBuckets),
		rpcApply: reg.Histogram("road_host_rpc_seconds", `rpc="apply"`,
			"Host-side compute per RPC, by RPC kind.", obs.LatencyBuckets),
		queueWait: reg.Histogram("road_host_queue_seconds", "",
			"Wait for the shard lock and a pooled searcher before compute starts.", obs.LatencyBuckets),
		journalAppend: reg.Histogram("road_host_journal_append_seconds", "",
			"Write-ahead journal append time (includes fsync when -journal-sync).", obs.LatencyBuckets),
		searchPops: reg.Histogram("road_host_search_pops", "",
			"Heap pops (settled nodes) per search RPC.", obs.PopsBuckets),
		snapshots: reg.Counter("road_host_snapshots_total", "", "Per-shard snapshots written by this host."),
	}
	sort.Ints(h.ids)
	version.Register(reg)
	reg.Gauge("road_host_uptime_seconds", "", "Seconds since the shard host started.",
		func() float64 { return time.Since(h.start).Seconds() })
	csrPatch := reg.Histogram("road_csr_patch_seconds", "",
		"Time one post-mutation CSR drain took, in seconds: a per-node patch unless road_csr_rebuilds_total moved.", obs.PatchBuckets)

	for _, id := range h.ids {
		s := assembled[id]
		j, err := snapshot.OpenJournal(shard.JournalPath(cfg.JournalPrefix, id))
		if err != nil {
			h.closeJournals()
			return nil, fmt.Errorf("remote: shard %d journal: %w", id, err)
		}
		j.SyncEachAppend = cfg.SyncJournal
		if err := j.CheckBase(s.F, baseSeqs[id]); err != nil {
			j.Close()
			h.closeJournals()
			return nil, fmt.Errorf("remote: shard %d: %w", id, err)
		}
		// Replay post-snapshot entries. An op that fails here failed
		// identically when first applied (it was journaled before being
		// applied), so op errors are not fatal; corruption is.
		replayErr := j.Entries(baseSeqs[id], func(seq uint64, op snapshot.Op) error {
			if err := s.ReplayApply(op); err != nil {
				// An op that fails here failed identically when first
				// applied (it was journaled before being applied); only an
				// integrity violation means the journal and snapshot have
				// truly diverged.
				if errors.Is(err, shard.ErrIntegrity) {
					return fmt.Errorf("replaying seq %d: %w", seq, err)
				}
			}
			return nil
		})
		if replayErr != nil {
			j.Close()
			h.closeJournals()
			return nil, fmt.Errorf("remote: shard %d replay: %w", id, replayErr)
		}
		j.EnsureSeq(baseSeqs[id])
		if err := j.BindBase(s.F, baseSeqs[id]); err != nil {
			j.Close()
			h.closeJournals()
			return nil, fmt.Errorf("remote: shard %d: %w", id, err)
		}
		s.F.OnCSRDrain(func(d time.Duration) { csrPatch.Observe(d.Seconds()) })
		s.RefreshDerived()
		h.shards[id] = &hostShard{
			s:           s,
			j:           j,
			baseSeq:     baseSeqs[id],
			snapPath:    shard.SnapshotPath(cfg.SnapshotPrefix, id),
			sidecarPath: shard.SidecarPath(cfg.SnapshotPrefix, id),
		}
		hs := h.shards[id]
		hs.searchers.New = func() any { return hs.s.NewLocalSearcher() }
	}
	h.registerJournalGauges()
	h.registerCSRGauges()
	h.buildMux()
	return h, nil
}

// registerCSRGauges exposes each served shard's CSR index upkeep under
// the names the router uses for its in-process shards.
func (h *Host) registerCSRGauges() {
	csrVec := func(get func(core.CSRStats) float64) func() []obs.Sample {
		return func() []obs.Sample {
			out := make([]obs.Sample, 0, len(h.ids))
			for _, id := range h.ids {
				hs := h.shards[id]
				hs.mu.RLock()
				out = append(out, obs.Sample{
					Labels: `shard="` + strconv.Itoa(id) + `"`,
					Value:  get(hs.s.F.CSRStats()),
				})
				hs.mu.RUnlock()
			}
			return out
		}
	}
	h.reg.CollectorVec("road_csr_rebuilds_total", "counter",
		"Whole-index CSR builds: the first one, dirty-log overflows and dead-cell compactions.",
		csrVec(func(st core.CSRStats) float64 { return float64(st.Rebuilds) }))
	h.reg.CollectorVec("road_csr_bytes", "gauge", "CSR slab bytes held, live and dead cells together.",
		csrVec(func(st core.CSRStats) float64 { return float64(st.Bytes) }))
}

// registerJournalGauges exposes per-shard journal and snapshot-base
// series. Closures read under the shard lock so a scrape racing
// shutdown (Close nils the journal) stays safe.
func (h *Host) registerJournalGauges() {
	journalVec := func(get func(*hostShard) float64) func() []obs.Sample {
		return func() []obs.Sample {
			out := make([]obs.Sample, 0, len(h.ids))
			for _, id := range h.ids {
				hs := h.shards[id]
				hs.mu.RLock()
				if hs.j != nil {
					out = append(out, obs.Sample{
						Labels: `shard="` + strconv.Itoa(id) + `"`,
						Value:  get(hs),
					})
				}
				hs.mu.RUnlock()
			}
			return out
		}
	}
	h.reg.CollectorVec("road_host_journal_seq", "gauge",
		"Write-ahead journal sequence per served shard.",
		journalVec(func(hs *hostShard) float64 { return float64(hs.j.LastSeq()) }))
	h.reg.CollectorVec("road_host_journal_bytes", "gauge",
		"Write-ahead journal size in bytes per served shard.",
		journalVec(func(hs *hostShard) float64 { return float64(hs.j.Size()) }))
	h.reg.CollectorVec("road_host_snapshot_base_seq", "gauge",
		"Journal sequence the on-disk snapshot covers, per served shard.",
		journalVec(func(hs *hostShard) float64 { return float64(hs.baseSeq) }))
}

// Handler returns the host's HTTP surface.
func (h *Host) Handler() http.Handler { return h.mux }

// ShardIDs returns the shard IDs this host serves (sorted).
func (h *Host) ShardIDs() []int { return append([]int(nil), h.ids...) }

// Shard returns the local shard the host serves under id (nil if it owns
// no such shard), for inspection while no request is in flight.
func (h *Host) Shard(id int) *shard.Shard {
	if hs := h.shards[id]; hs != nil {
		return hs.s
	}
	return nil
}

// Close closes the host's journals. Callers stop the HTTP server first.
func (h *Host) Close() error { return h.closeJournals() }

func (h *Host) closeJournals() error {
	var first error
	for _, hs := range h.shards {
		hs.mu.Lock() // excludes metric scrapes reading hs.j
		if hs.j != nil {
			if err := hs.j.Close(); err != nil && first == nil {
				first = err
			}
			hs.j = nil
		}
		hs.mu.Unlock()
	}
	return first
}

func (h *Host) buildMux() {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", h.handleHealth)
	mux.HandleFunc("GET /state/{id}", h.handleState)
	mux.HandleFunc("POST /shard/{id}/search", h.handleSearch)
	mux.HandleFunc("POST /shard/{id}/leg", h.handleLeg)
	mux.HandleFunc("POST /shard/{id}/apply", h.handleApply)
	mux.HandleFunc("GET /shard/{id}/object/{lo}", h.handleObject)
	mux.HandleFunc("POST /admin/snapshot", h.handleSnapshot)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		h.reg.Write(w)
	})
	h.mux = mux
}

// shardOf resolves the {id} path value to a served shard, or answers 404
// (a non-200 status is a transport-level error to the client, which is
// right: a request for a shard this host does not own means the fleet's
// ownership map and the host disagree).
func (h *Host) shardOf(w http.ResponseWriter, r *http.Request) (*hostShard, int) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		http.Error(w, "bad shard id", http.StatusBadRequest)
		return nil, 0
	}
	hs := h.shards[id]
	if hs == nil {
		http.Error(w, fmt.Sprintf("shard %d not served by this host", id), http.StatusNotFound)
		return nil, 0
	}
	return hs, id
}

// traced reports whether the RPC carries trace context (the client sets
// TraceHeader only when its own context does).
func traced(r *http.Request) bool { return r.Header.Get(TraceHeader) != "" }

// hostLeg builds one host-side trace leg.
func hostLeg(name obs.LegName, shard int, d time.Duration) obs.Leg {
	return obs.Leg{Name: name, Shard: shard, DurationUS: d.Microseconds()}
}

// writeEnvelope answers one RPC: the typed response (already wire-encoded
// — no ±Inf), the error mapped to its wire code, and the compute time.
func writeEnvelope(w http.ResponseWriter, resp any, err error, compute time.Duration) {
	writeEnvelopeLegs(w, resp, err, compute, nil)
}

// writeEnvelopeLegs is writeEnvelope plus the host-side trace legs of a
// traced call.
func writeEnvelopeLegs(w http.ResponseWriter, resp any, err error, compute time.Duration, legs []obs.Leg) {
	env := envelope{ComputeUS: compute.Microseconds(), Legs: legs}
	if resp != nil {
		raw, mErr := json.Marshal(resp)
		if mErr != nil {
			http.Error(w, mErr.Error(), http.StatusInternalServerError)
			return
		}
		env.Resp = raw
	}
	if err != nil {
		env.Err, env.Msg = encodeErr(err)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(env)
}

func decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return false
	}
	return true
}

func (h *Host) handleHealth(w http.ResponseWriter, r *http.Request) {
	resp := healthResponse{Shards: h.ids, Seqs: make(map[int]uint64, len(h.ids)), Version: version.Version}
	for id, hs := range h.shards {
		resp.Seqs[id] = hs.j.LastSeq()
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

func (h *Host) handleState(w http.ResponseWriter, r *http.Request) {
	hs, _ := h.shardOf(w, r)
	if hs == nil {
		return
	}
	hs.mu.RLock()
	st := hs.s.ExportState()
	st.Shards = h.m.Shards
	st.Seed = h.m.Seed
	st.NumNodes = h.m.NumNodes
	st.NextObj = h.m.NextObj
	st.Isolated = h.m.Isolated
	st.Seq = hs.j.LastSeq()
	st.JournalBytes = hs.j.Size()
	st.Fingerprint = fmt.Sprintf("%016x", snapshot.Fingerprint(hs.s.F))
	hs.mu.RUnlock()
	writeEnvelope(w, st, nil, 0)
}

func (h *Host) handleSearch(w http.ResponseWriter, r *http.Request) {
	hs, id := h.shardOf(w, r)
	if hs == nil {
		return
	}
	var req shard.SearchReq
	if !decodeBody(w, r, &req) {
		return
	}
	h.searches.Inc()
	arrive := time.Now()
	hs.mu.RLock()
	q := hs.searchers.Get().(shard.Searcher)
	queue := time.Since(arrive)
	start := time.Now()
	resp, err := q.Search(r.Context(), req)
	compute := time.Since(start)
	// Serialize before returning the searcher: Watched may alias its
	// scratch, which the next Search on this searcher overwrites.
	env := struct {
		resp shard.SearchResp
		err  error
	}{resp, err}
	raw, mErr := json.Marshal(env.resp)
	hs.searchers.Put(q)
	hs.mu.RUnlock()
	h.queueWait.Observe(queue.Seconds())
	h.rpcSearch.Observe(compute.Seconds())
	h.searchPops.Observe(float64(resp.Stats.NodesPopped))
	if mErr != nil {
		http.Error(w, mErr.Error(), http.StatusInternalServerError)
		return
	}
	out := envelope{Resp: raw, ComputeUS: compute.Microseconds()}
	if traced(r) {
		searchLeg := hostLeg(obs.LegHostSearch, id, compute)
		searchLeg.Pops = resp.Stats.NodesPopped
		out.Legs = []obs.Leg{hostLeg(obs.LegHostQueue, id, queue), searchLeg}
	}
	if env.err != nil {
		out.Err, out.Msg = encodeErr(env.err)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

func (h *Host) handleLeg(w http.ResponseWriter, r *http.Request) {
	hs, id := h.shardOf(w, r)
	if hs == nil {
		return
	}
	var req shard.LegReq
	if !decodeBody(w, r, &req) {
		return
	}
	h.searches.Inc()
	arrive := time.Now()
	hs.mu.RLock()
	q := hs.searchers.Get().(shard.Searcher)
	queue := time.Since(arrive)
	start := time.Now()
	resp, err := q.Leg(r.Context(), req)
	compute := time.Since(start)
	// Copy out before returning the searcher: Path and Dists may alias its
	// scratch, which the next Leg on this searcher overwrites.
	resp.Path = slices.Clone(resp.Path)
	resp.Dists = slices.Clone(resp.Dists)
	hs.searchers.Put(q)
	hs.mu.RUnlock()
	h.queueWait.Observe(queue.Seconds())
	h.rpcLeg.Observe(compute.Seconds())
	encLegResp(&resp)
	var legs []obs.Leg
	if traced(r) {
		legLeg := hostLeg(obs.LegHostLeg, id, compute)
		legLeg.Pops = resp.Pops
		legs = []obs.Leg{hostLeg(obs.LegHostQueue, id, queue), legLeg}
	}
	writeEnvelopeLegs(w, &resp, err, compute, legs)
}

func (h *Host) handleApply(w http.ResponseWriter, r *http.Request) {
	hs, id := h.shardOf(w, r)
	if hs == nil {
		return
	}
	var op snapshot.Op
	if !decodeBody(w, r, &op) {
		return
	}
	arrive := time.Now()
	hs.mu.Lock()
	queue := time.Since(arrive)
	// Write-ahead: the op is durable before it is applied or
	// acknowledged, so a host crash between journal and reply replays it
	// on boot and the router's Readopt reconciles the lost ack.
	jStart := time.Now()
	if _, err := hs.j.Append(op); err != nil {
		hs.mu.Unlock()
		http.Error(w, "journal append: "+err.Error(), http.StatusInternalServerError)
		return
	}
	journal := time.Since(jStart)
	start := time.Now()
	rep, err := hs.s.HostApply(op)
	compute := time.Since(start)
	rep.Seq = hs.j.LastSeq()
	rep.JournalBytes = hs.j.Size()
	hs.mu.Unlock()
	h.applied.Inc()
	h.queueWait.Observe(queue.Seconds())
	h.journalAppend.Observe(journal.Seconds())
	h.rpcApply.Observe(compute.Seconds())
	var legs []obs.Leg
	if traced(r) {
		legs = []obs.Leg{
			hostLeg(obs.LegHostQueue, id, queue),
			hostLeg(obs.LegHostJournal, id, journal),
			hostLeg(obs.LegHostApply, id, compute),
		}
	}
	if err != nil {
		writeEnvelopeLegs(w, nil, err, compute, legs)
		return
	}
	writeEnvelopeLegs(w, &rep, nil, compute, legs)
}

func (h *Host) handleObject(w http.ResponseWriter, r *http.Request) {
	hs, _ := h.shardOf(w, r)
	if hs == nil {
		return
	}
	lo, err := strconv.Atoi(r.PathValue("lo"))
	if err != nil {
		http.Error(w, "bad object id", http.StatusBadRequest)
		return
	}
	hs.mu.RLock()
	o, ok := hs.s.F.Objects().Get(graph.ObjectID(lo))
	hs.mu.RUnlock()
	writeEnvelope(w, &objectResponse{Object: o, OK: ok}, nil, 0)
}

// SnapshotAll snapshots every served shard — framework image plus
// identity sidecar, staged and renamed — and rotates its journal down to
// the entries the new snapshot already covers. The router's fleet-wide
// snapshot and the host's own shutdown path both funnel here.
func (h *Host) SnapshotAll() error {
	for _, id := range h.ids {
		hs := h.shards[id]
		hs.mu.Lock()
		err := hs.snapshotLocked()
		hs.mu.Unlock()
		if err != nil {
			return fmt.Errorf("shard %d: %w", id, err)
		}
		h.snapshots.Inc()
	}
	return nil
}

func (h *Host) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if err := h.SnapshotAll(); err != nil {
		writeEnvelope(w, nil, err, 0)
		return
	}
	writeEnvelope(w, map[string]bool{"ok": true}, nil, 0)
}

func (hs *hostShard) snapshotLocked() error {
	upTo := hs.j.LastSeq()
	staging := hs.snapPath + ".saving"
	if err := snapshot.SaveFile(hs.s.F, upTo, staging); err != nil {
		return err
	}
	sidecar, err := json.Marshal(hs.s.IdentityManifest())
	if err != nil {
		os.Remove(staging)
		return err
	}
	sideStaging := hs.sidecarPath + ".saving"
	if err := os.WriteFile(sideStaging, sidecar, 0o644); err != nil {
		os.Remove(staging)
		return err
	}
	if err := os.Rename(staging, hs.snapPath); err != nil {
		os.Remove(staging)
		os.Remove(sideStaging)
		return err
	}
	if err := os.Rename(sideStaging, hs.sidecarPath); err != nil {
		os.Remove(sideStaging)
		return err
	}
	hs.baseSeq = upTo
	return hs.j.Rotate(hs.s.F, upTo)
}
