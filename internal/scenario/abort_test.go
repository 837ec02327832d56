package scenario

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"mtsim/internal/sim"
)

// abortTestConfig is a busy run (tens of thousands of events): big
// enough that a small event budget reliably trips mid-flight, small
// enough to grid over in tests.
func abortTestConfig() Config {
	cfg := DefaultConfig()
	cfg.Duration = 3 * sim.Second
	cfg.TCPStart = sim.Time(500 * sim.Millisecond)
	cfg.Seed = 5
	return cfg
}

// TestRunWatchedUnlimitedMatchesRun: a watched run whose budgets never
// trip is bit-identical to a plain Run — chunked execution must not
// perturb a single metric. Both arrival-delivery modes are covered: a
// chunk boundary can fall between a batched first-bit and last-bit event
// exactly as it could between two per-receiver events, and neither
// granularity may leak into the metrics.
func TestRunWatchedUnlimitedMatchesRun(t *testing.T) {
	for _, unbatched := range []bool{false, true} {
		for _, b := range []Budget{
			{},
			{MaxEvents: 1 << 62},
			{WallClock: time.Hour},
			{MaxEvents: 1 << 62, WallClock: time.Hour},
		} {
			cfg := abortTestConfig()
			ref, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref.Channel.UseUnbatchedArrivals(unbatched)
			plain := ref.Run()

			s, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			s.Channel.UseUnbatchedArrivals(unbatched)
			watched, werr := s.RunWatched(b)
			if werr != nil {
				t.Fatalf("budget %+v tripped on a healthy run: %v", b, werr)
			}
			want, _ := json.Marshal(plain)
			got, _ := json.Marshal(watched)
			if string(want) != string(got) {
				t.Fatalf("unbatched=%v budget %+v: watched run differs from plain run\nplain:   %s\nwatched: %s",
					unbatched, b, want, got)
			}
		}
	}
}

// TestEventBudgetKillsMidRun: an exhausted event budget aborts the run
// with attribution, retires the arena ledger cleanly mid-flight, and
// leaves the Context reusable — the very next run on the same context is
// bit-identical to a fresh one.
func TestEventBudgetKillsMidRun(t *testing.T) {
	cfg := abortTestConfig()
	ctx := NewContext()

	s, err := ctx.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Arena.Check = true
	const budget = 2000
	m, err := s.RunWatched(Budget{MaxEvents: budget})
	if err == nil {
		t.Fatalf("2000-event budget did not trip (run has far more events); metrics=%v", m)
	}
	var ae *AbortError
	if !errors.As(err, &ae) {
		t.Fatalf("abort returned %T, want *AbortError: %v", err, err)
	}
	if ae.Reason != AbortEventBudget {
		t.Fatalf("reason %q, want %q", ae.Reason, AbortEventBudget)
	}
	if ae.Events != budget {
		t.Fatalf("killed after %d events, budget was %d", ae.Events, budget)
	}
	if ae.SimTime <= 0 || ae.SimTime >= sim.Time(cfg.Duration) {
		t.Fatalf("kill at t=%v, want strictly inside the run", ae.SimTime)
	}
	// The mid-run abort retired the scenario: the arena accounts for
	// every packet and frame it handed out, with no double or foreign
	// releases — the "kills the cell cleanly" guarantee.
	assertArenaClean(t, s.Arena)

	// And the context is immediately reusable: the next run on it matches
	// a fresh-context run byte for byte.
	next, err := ctx.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	next.Arena.Check = true
	clean := next.Run()
	fresh, err := RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(fresh)
	got, _ := json.Marshal(clean)
	if string(want) != string(got) {
		t.Fatalf("run after mid-run abort differs from fresh run\nfresh: %s\nafter: %s", want, got)
	}
	if st := next.Arena.Stats(); st.DoubleReleases != 0 || st.ForeignReleases != 0 || st.PoisonTrips != 0 {
		t.Fatalf("arena ledger dirtied across abort+reuse: %+v", st)
	}
}

// TestWallClockKillsMidRun: a wall-clock deadline that has effectively
// already passed kills the run at the first between-chunk check.
func TestWallClockKillsMidRun(t *testing.T) {
	cfg := abortTestConfig()
	s, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.RunWatched(Budget{WallClock: time.Nanosecond})
	var ae *AbortError
	if !errors.As(err, &ae) {
		t.Fatalf("1ns wall budget did not abort: %v", err)
	}
	if ae.Reason != AbortWallClock {
		t.Fatalf("reason %q, want %q", ae.Reason, AbortWallClock)
	}
	if ae.Events == 0 {
		t.Fatal("watchdog fired before running a single chunk")
	}
}

// TestAbortErrorMessageAttributes pins the attribution format the sweep
// journal and failed-cell summaries rely on.
func TestAbortErrorMessageAttributes(t *testing.T) {
	e := &AbortError{Reason: AbortEventBudget, Events: 123, SimTime: sim.Time(2 * sim.Second)}
	msg := e.Error()
	for _, want := range []string{"event-budget", "123", "2.000s"} {
		if !strings.Contains(msg, want) {
			t.Fatalf("abort message %q missing %q", msg, want)
		}
	}
}
