//go:build !race

package shard

// raceEnabled reports whether the race detector instruments this build.
// The allocation pin skips under -race: instrumentation adds its own
// allocations.
const raceEnabled = false
