package mtsim

import "testing"

// runAllocCeiling is the regression ceiling for one context-reused MTS
// run of the benchBase configuration (50 nodes, 10 m/s, 20 s). The packet
// arena landed this at ~16.7 k allocs/op (from ~107 k before it). Pooled
// route buffers, recycled RNG sources, cached RNG labels and pooled
// events for every timer held the steady state at ~13.6 k (pooling the
// closure timers' events removed ~2 k). Binding the TCP RTO, CBR tick and
// shuffle-hold callbacks once per owner, instead of making a method value
// at every arm, brought it to ~11.6 k; the scheduler, channel, grid,
// collector, arena and routers are built fresh on every run, so their
// storage is part of that figure. The ceiling carries ~15 % headroom
// over the recorded value so routine noise passes while losing the
// packet arena (or a new per-packet allocation on the hot path) fails
// loudly. If you raise this, record the new figure and its cause in
// PERFORMANCE.md in the same commit.
const runAllocCeiling = 13_400

// TestRunAllocationCeiling is the allocation-regression guard behind the
// bench smoke: it measures the steady-state allocations of a cached-
// context run directly (no -bench invocation needed), so plain `go test
// ./...` — and therefore CI — fails when the data plane regresses.
func TestRunAllocationCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation guard runs full simulations")
	}
	if raceEnabled {
		t.Skip("race instrumentation changes allocation counts")
	}
	cfg := benchBase()
	cfg.Protocol = "MTS"
	cfg.MaxSpeed = 10
	cfg.Seed = 1
	ctx := NewRunContext()
	// Warm the context: the first run fills the RNG recycler and the
	// label caches; the guard is about the steady state.
	if _, err := ctx.RunOne(cfg); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(2, func() {
		if _, err := ctx.RunOne(cfg); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("context-reused run: %.0f allocs (ceiling %d)", allocs, runAllocCeiling)
	if allocs > runAllocCeiling {
		t.Errorf("allocation regression: %.0f allocs/run exceeds the %d ceiling; "+
			"profile the data plane (packet arena release points) before raising it",
			allocs, runAllocCeiling)
	}
}
