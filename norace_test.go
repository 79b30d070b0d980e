//go:build !race

package cqbound

// raceEnabled reports a -race build (see race_test.go).
const raceEnabled = false
