package main

import (
	"sort"
	"time"

	"road/internal/obs"
)

// metricDef is one metric of BENCHMARK.json; metrics_test.go holds the
// two lists below and the manifest to each other.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a client of the served system sees. Every workload
// reports every one: an op its mix lacks is measured by a coda after the
// timed window (README.md, "Codas"). The bounds are pinned
// from A/A runs (README.md, "Bounds"): the sandbox itself runs 15-30%
// slower for a minute at a time, so every timing gets the contract's
// widest bound. No p99 held it on every workload, so the four p99s are the
// per-layer socket.<op>_p99_us instead.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"heap_mb", "MB", lower, 0.10},
	{"throughput_qps", "1/s", higher, 0.25},
	{"knn_p50_us", "us", lower, 0.25},
	{"within_p50_us", "us", lower, 0.25},
	{"path_p50_us", "us", lower, 0.25},
	{"mutation_p50_us", "us", lower, 0.25},
}

// perLayer lists the ledger's metrics. A workload reports 0 for a layer
// outside its stack and for an op outside its mix.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	add := func(name, unit, better string) {
		defs = append(defs, metricDef{Name: name, Unit: unit, Better: better})
	}
	perOp := func(layer string, suffixes ...string) {
		for _, op := range opNames {
			for _, sfx := range suffixes {
				unit := "us"
				switch sfx {
				case "pops_op", "allocs_op":
					unit = "count"
				case "bytes_op":
					unit = "B"
				}
				add(layer+"."+op+"_"+sfx, unit, lower)
			}
		}
	}
	perOp("core", "p50_us", "p99_us", "pops_op", "allocs_op")
	add("core.build_s", "s", lower)
	add("core.csr_warm_s", "s", lower)
	add("core.index_bytes", "B", lower)

	perOp("road", "p50_us", "self_us", "allocs_op", "bytes_op")

	perOp("shard", "p50_us", "p99_us", "self_us", "allocs_op")
	add("shard.escalated_share", "share", lower)
	add("shard.shards_searched_op", "count", lower)
	add("shard.build_s", "s", lower)

	perOp("remote", "p50_us", "self_us", "allocs_op")
	add("remote.rpcs_op", "count", lower)
	add("remote.wire_bytes_op", "B", lower)
	add("remote.hedges", "count", lower)
	add("remote.host_queue_p50_us", "us", lower)

	perOp("server", "p50_us", "self_us", "allocs_op")
	add("server.hit_p50_us", "us", lower)
	add("server.miss_p50_us", "us", lower)
	add("server.resp_bytes_op", "B", lower)
	add("server.cache_hit_share", "share", higher)
	add("server.cache_evictions", "count", lower)
	add("server.cache_invalidations", "count", lower)
	add("server.pool_created", "count", lower)

	perOp("socket", "self_us", "p99_us", "p999_us", "max_us") // p99_us: demoted from end_to_end, still the median of slices
	add("socket.healthz_p50_us", "us", lower)

	add("snapshot.save_s", "s", lower)
	add("snapshot.load_s", "s", lower)
	add("snapshot.replay_s", "s", lower)
	add("snapshot.bytes", "B", lower)
	add("snapshot.journal_bytes_op", "B", lower)

	add("runtime.gc_cycles", "count", lower)
	add("runtime.gc_pause_ms", "ms", lower)
	add("runtime.allocs_op", "count", lower)
	add("runtime.alloc_mb_s", "MB/s", lower)
	add("loadgen.build_s", "s", lower)
	add("loadgen.overhead_us", "us", lower)
	add("loadgen.trace_overhead_share", "share", lower)
	add("loadgen.calibration_us", "us", lower)
	return defs
}

// value is one measured metric: the number, its unit, and how many
// samples stand behind it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// metricSet collects one run's metrics by name.
type metricSet map[string]value

func (m metricSet) put(defs []metricDef, name string, v float64, n int) {
	for _, d := range defs {
		if d.Name == name {
			m[name] = value{Value: v, Unit: d.Unit, N: n}
			return
		}
	}
	panic("benchmark: metric " + name + " is not in the catalogue")
}

// --- estimators ---

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median of xs (the mean of the middle two when len(xs) is even); 0 when
// empty. xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	mid := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[mid]
	}
	return (xs[mid-1] + xs[mid]) / 2
}

// latencies returns the samples of one op kind in microseconds, sorted.
func latencies(samples []sample, kind opKind) []float64 {
	var out []float64
	for _, s := range samples {
		if s.kind == kind {
			out = append(out, micros(s.lat))
		}
	}
	sort.Float64s(out)
	return out
}

// slicedPercentile cuts a phase of length wall into numSlices equal time
// slices and returns the median of the per-slice nearest-rank percentiles
// of one op kind's latencies, with the total sample count. A whole-window
// p99 moved by 70% between identical runs; the median of five slices does
// not.
func slicedPercentile(samples []sample, kind opKind, wall time.Duration, p float64) (float64, int) {
	var slices [numSlices][]float64
	n := 0
	for _, s := range samples {
		if s.kind != kind {
			continue
		}
		i := min(max(int(int64(s.at)*numSlices/int64(wall+1)), 0), numSlices-1)
		slices[i] = append(slices[i], micros(s.lat))
		n++
	}
	var per []float64
	for _, sl := range slices {
		if len(sl) > 0 {
			sort.Float64s(sl)
			per = append(per, obs.Percentile(sl, p))
		}
	}
	return median(per), n
}
