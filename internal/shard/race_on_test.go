//go:build race

package shard

// raceEnabled: see race_off_test.go.
const raceEnabled = true
