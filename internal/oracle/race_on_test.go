//go:build race

package oracle

// raceEnabled reports a -race build, whose sync.Pool drops a random share
// of Put items, so pooled scratch cannot be held to zero allocations.
const raceEnabled = true
