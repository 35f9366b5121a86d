//go:build race

package graph

// raceEnabled: see race_off_test.go.
const raceEnabled = true
