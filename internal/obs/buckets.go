package obs

// Shared histogram bucket layouts, so the router's /metrics and the
// shard hosts' /metrics bin identical quantities identically and the
// two expositions can be compared or aggregated series-for-series.
// Latencies are in seconds (the Prometheus convention); pops are raw
// per-query counts in roughly-doubling buckets so the paper's CPU cost
// metric is readable off /metrics.
var (
	// LatencyBuckets bins request/RPC wall times from 100µs to 2.5s.
	LatencyBuckets = []float64{
		100e-6, 250e-6, 500e-6, 1e-3, 2.5e-3, 5e-3, 10e-3,
		25e-3, 50e-3, 100e-3, 250e-3, 500e-3, 1, 2.5,
	}
	// PatchBuckets bins post-mutation index upkeep — a per-node CSR patch
	// is microseconds, a whole-index rebuild milliseconds — from 1µs to 1s.
	PatchBuckets = []float64{
		1e-6, 2.5e-6, 5e-6, 10e-6, 25e-6, 50e-6, 100e-6, 250e-6, 500e-6,
		1e-3, 2.5e-3, 5e-3, 10e-3, 25e-3, 100e-3, 1,
	}
	// PopsBuckets bins heap pops (settled nodes) per query.
	PopsBuckets = []float64{8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 65536}
)
