//go:build !race

package runcache

// raceEnabled reports whether the race detector instruments this build;
// under it sync.Pool drops items at random, so allocation counts grow.
const raceEnabled = false
