//go:build race

package rnet

// raceEnabled: see race_off_test.go.
const raceEnabled = true
