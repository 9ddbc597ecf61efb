//go:build !race

package oracle

// raceEnabled reports a -race build (see race_on_test.go).
const raceEnabled = false
