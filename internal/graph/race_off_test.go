//go:build !race

package graph

// raceEnabled reports whether the race detector instruments this build.
// Allocation pins skip under -race: instrumentation adds its own
// allocations.
const raceEnabled = false
