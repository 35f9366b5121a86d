//go:build !race

package server

// raceEnabled reports whether the race detector instruments this build.
// Allocation pins skip under -race: instrumentation adds its own
// allocations.
const raceEnabled = false
