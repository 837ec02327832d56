package experiment

// Regression tests for the engine's observability contracts: the journal
// surfaces marshal failures through Err() (first-write-error retention),
// watchdog-killed attempts journal how far the run got, and Jobs()
// enumerates exactly the grid Run dispatches.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"mtsim/internal/runcache"
	"mtsim/internal/scenario"
)

// TestJournalErrSurfacesMarshalFailure: a record json.Marshal rejects
// (NaN speed is the realistic producer) must set the journal's first
// write error instead of vanishing silently.
func TestJournalErrSurfacesMarshalFailure(t *testing.T) {
	var buf bytes.Buffer
	j := NewJournal(&buf)
	j.Record(AttemptRecord{Protocol: "MTS", Speed: math.NaN(), Outcome: "ok"})
	if err := j.Err(); err == nil {
		t.Fatal("Journal.Err() is nil after a failed marshal — the first-write-error contract is broken")
	} else if !strings.Contains(err.Error(), "marshal") {
		t.Fatalf("journal error does not attribute the marshal failure: %v", err)
	}
	if j.Records() != 0 || buf.Len() != 0 {
		t.Fatalf("failed marshal still wrote %d records (%d bytes)", j.Records(), buf.Len())
	}
	// The FIRST error is retained: a later, different failure must not
	// overwrite it.
	first := j.Err()
	j.Record(AttemptRecord{Speed: math.Inf(1)})
	if j.Err() != first {
		t.Fatalf("first write error not retained: %v replaced %v", j.Err(), first)
	}
	// And a healthy record afterwards still appends (best-effort logging).
	j.Record(AttemptRecord{Protocol: "MTS", Speed: 10, Outcome: "ok"})
	if j.Records() != 1 {
		t.Fatalf("healthy record after a marshal failure not appended: %d records", j.Records())
	}
}

// TestWatchdogKillJournalsEventCount: a run the watchdog killed
// must journal the executed event count carried by scenario.AbortError,
// not a flat zero — livelock post-mortems need to see how far runs got.
func TestWatchdogKillJournalsEventCount(t *testing.T) {
	var buf bytes.Buffer
	cfg := quickBase()
	cfg.Protocol = "MTS"
	cfg.Seed = 1
	// quickBase runs ~22 events at this seed; a 10-event budget reliably
	// trips mid-run (matching the chaos suite's squeezed budgets).
	const budget = 10
	s := Sweep{
		Watchdog: Watchdog{MaxEvents: budget},
		Journal:  NewJournal(&buf),
	}
	ctx := scenario.NewContext()
	_, err := s.runCell(ctx, CellJob{Key: CellKey{Protocol: "MTS", Speed: cfg.MaxSpeed}, Config: cfg})
	if err == nil {
		t.Fatalf("a %d-event budget did not kill the run", budget)
	}
	if kind := errKind(err); kind != KindTimeout {
		t.Fatalf("run failed as %q, want %q: %v", kind, KindTimeout, err)
	}
	sc := bufio.NewScanner(&buf)
	var recs []AttemptRecord
	for sc.Scan() {
		var r AttemptRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("journal line does not parse: %v", err)
		}
		recs = append(recs, r)
	}
	if len(recs) != 1 {
		t.Fatalf("journal holds %d records, want 1", len(recs))
	}
	if recs[0].Outcome != KindTimeout {
		t.Fatalf("journalled outcome %q, want %q", recs[0].Outcome, KindTimeout)
	}
	if recs[0].Events == 0 {
		t.Fatal("watchdog-killed attempt journalled Events: 0 — AbortError.Events was dropped")
	}
	if recs[0].Events != budget {
		t.Fatalf("journalled %d events, want the tripped budget %d", recs[0].Events, budget)
	}
}

// TestJobsMatchesRunDispatch: Jobs() must enumerate exactly the grid Run
// executes — same cells, same order, same seeds — and every job's config
// must survive a JSON round trip with its content address unchanged.
func TestJobsMatchesRunDispatch(t *testing.T) {
	s := Sweep{
		Base:      quickBase(),
		Protocols: []string{"AODV", "MTS"},
		Speeds:    []float64{2, 10},
		Reps:      2,
		SeedBase:  5,
	}
	jobs := s.Jobs()
	want := len(s.Protocols) * len(s.Speeds) * s.Reps
	if len(jobs) != want {
		t.Fatalf("Jobs() enumerated %d cells, want %d", len(jobs), want)
	}
	seen := map[CellKey]int{}
	for _, cj := range jobs {
		seen[cj.Key]++
		if cj.Config.Protocol != cj.Key.Protocol || cj.Config.MaxSpeed != cj.Key.Speed {
			t.Fatalf("job key %+v does not match its config (%s @ %g)",
				cj.Key, cj.Config.Protocol, cj.Config.MaxSpeed)
		}
		if cj.Config.Seed < s.SeedBase || cj.Config.Seed >= s.SeedBase+int64(s.Reps) {
			t.Fatalf("job seed %d outside [%d, %d)", cj.Config.Seed, s.SeedBase, s.SeedBase+int64(s.Reps))
		}
		k1, err := runcache.Key(cj.Config)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := json.Marshal(cj)
		if err != nil {
			t.Fatal(err)
		}
		var back CellJob
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatal(err)
		}
		k2, err := runcache.Key(back.Config)
		if err != nil {
			t.Fatal(err)
		}
		if k1 != k2 {
			t.Fatalf("cell %+v: content address drifted across JSON round trip", cj.Key)
		}
	}
	for key, n := range seen {
		if n != s.Reps {
			t.Fatalf("cell %+v enumerated %d times, want %d reps", key, n, s.Reps)
		}
	}
	// A sweep whose cache is prefilled from Jobs() simulates nothing:
	// Run dispatches exactly this enumeration.
	store, err := runcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s.Cache = store
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	s2 := s
	res, err := s2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheMisses != 0 || res.CacheHits != len(jobs) {
		t.Fatalf("warm rerun over Jobs()-filled cache: %d hits %d misses, want %d/0",
			res.CacheHits, res.CacheMisses, len(jobs))
	}
}
