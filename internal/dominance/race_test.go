//go:build race

package dominance

// raceEnabled reports a -race build, whose sync.Pool drops a share of
// Puts on purpose, so pooled-scratch allocation counts are meaningless.
const raceEnabled = true
