package scenario

import (
	"fmt"
	"time"

	"mtsim/internal/metrics"
	"mtsim/internal/sim"
)

// Budget bounds one watched run (Scenario.RunWatched): a
// simulated-event budget that catches livelocked simulations (event
// storms that never advance toward the horizon) and a wall-clock budget
// that catches hung ones. The zero Budget is unlimited and RunWatched
// degrades to the plain Run path.
type Budget struct {
	// MaxEvents is the per-run simulated-event budget; 0 is unlimited.
	// It is compared against the scheduler's Executed counter, which
	// starts at zero because every Build makes its own scheduler.
	// Executed counts scheduler dispatches: under batched arrival
	// delivery (the default) one dispatched PHY event serves a whole
	// receiver batch, so the same simulated traffic consumes far fewer
	// budget units than in the unbatched reference mode — budgets tuned
	// before the batching (or against phy.UseUnbatchedArrivals runs) are
	// conservative, never too tight, when reused on the batched path.
	MaxEvents uint64
	// WallClock is the per-run wall-clock budget; 0 is unlimited. It is
	// checked between event chunks, so the effective resolution is one
	// chunk (a few thousand events, microseconds of wall time).
	WallClock time.Duration
}

func (b Budget) unlimited() bool { return b.MaxEvents == 0 && b.WallClock == 0 }

// Abort reasons carried by AbortError.Reason.
const (
	AbortEventBudget = "event-budget"
	AbortWallClock   = "wall-clock"
)

// AbortError reports a run killed by its Budget. The scenario has been
// retired by the time the error is returned — every packet is back in
// the run's arena, so its books close; the next Build starts from a
// fresh scheduler, channel and arena — and the error carries enough
// attribution (which budget tripped, how far the run got) for
// post-mortems and the sweep engine's journal.
type AbortError struct {
	Reason  string   // AbortEventBudget or AbortWallClock
	Events  uint64   // events executed when the watchdog fired
	SimTime sim.Time // virtual time reached
}

func (e *AbortError) Error() string {
	return fmt.Sprintf("scenario: run killed by %s watchdog after %d events at t=%.3fs",
		e.Reason, e.Events, e.SimTime.Seconds())
}

// watchdogChunk is how many events run between watchdog checks. Small
// enough that a wall-clock deadline is noticed within microseconds of
// real time, large enough that the per-chunk bookkeeping is invisible
// next to event dispatch.
const watchdogChunk = 2048

// RunWatched executes the simulation to its horizon like Run, but under
// a watchdog: the run is sliced into event chunks (bit-identical to an
// unsliced run; see sim.Scheduler.RunUntilBudget) and between chunks the
// budget is checked. A tripped budget kills the run cleanly — the
// scenario is retired, so the arena's books close; the Context that
// built it holds only derivation labels and can build the next run at
// once — and returns an *AbortError attributing the kill.
// The scenario must not be advanced after an abort.
//
// Determinism: a watched run that completes is indistinguishable from
// Run (same events in the same order, same metrics); the wall-clock
// check only ever decides whether to keep going, never what happens
// next. Re-running a killed cell under the same configuration and seed
// (a resumed sweep) is therefore byte-identical to a never-killed run.
func (s *Scenario) RunWatched(b Budget) (*metrics.RunMetrics, error) {
	horizon := sim.Time(s.Cfg.Duration)
	if b.unlimited() {
		s.Sched.RunUntil(horizon)
		return s.Gather(), nil
	}
	var deadline time.Time
	if b.WallClock > 0 {
		deadline = time.Now().Add(b.WallClock)
	}
	for {
		chunk := uint64(watchdogChunk)
		if b.MaxEvents > 0 {
			rem := uint64(0)
			if s.Sched.Executed < b.MaxEvents {
				rem = b.MaxEvents - s.Sched.Executed
			}
			if rem < chunk {
				chunk = rem
			}
		}
		if chunk > 0 && s.Sched.RunUntilBudget(horizon, chunk) {
			return s.Gather(), nil
		}
		if b.MaxEvents > 0 && s.Sched.Executed >= b.MaxEvents {
			return nil, s.abort(AbortEventBudget)
		}
		if b.WallClock > 0 && time.Now().After(deadline) {
			return nil, s.abort(AbortWallClock)
		}
	}
}

// abort is the clean mid-run kill: retire the scenario (every packet
// still in any node's custody goes back to the arena, shuffle buffers
// drain first) and attribute the kill. The scheduler still holds pending
// events, but the scenario is dead by contract: nothing runs them, and
// the next Build makes its own scheduler, channel and arena.
func (s *Scenario) abort(reason string) *AbortError {
	err := &AbortError{Reason: reason, Events: s.Sched.Executed, SimTime: s.Sched.Now()}
	s.Retire()
	return err
}
