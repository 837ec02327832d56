//go:build race

package runcache

// raceEnabled reports whether the race detector instruments this build.
const raceEnabled = true
