//go:build !race

package dominance

const raceEnabled = false
