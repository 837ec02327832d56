package experiment

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"unicode/utf8"

	"mtsim/internal/metrics"
	"mtsim/internal/packet"
	"mtsim/internal/scenario"
)

// requireArenaClean fails the test unless the arena's books are closed:
// every packet and frame released exactly once, no ledger violations.
func requireArenaClean(t *testing.T, a *packet.Arena, who string) {
	t.Helper()
	st := a.Stats()
	if live := a.LivePackets(); live != 0 {
		t.Errorf("%s: %d live packets after sweep (stats %+v)", who, live, st)
	}
	if live := a.LiveFrames(); live != 0 {
		t.Errorf("%s: %d live frames after sweep", who, live)
	}
	if st.DoubleReleases != 0 || st.ForeignReleases != 0 || st.PoisonTrips != 0 {
		t.Errorf("%s: dirty arena ledger: %+v", who, st)
	}
}

// TestSweepCancelRetiresWorkerState covers the first-error cancellation
// path end to end: an injected failing cell cancels outstanding jobs,
// the returned error names the cell, and every run the sweep simulated
// retired its packets cleanly. The Runner seam does DefaultRunner's work
// with each run's arena armed in Check mode, and keeps every arena.
func TestSweepCancelRetiresWorkerState(t *testing.T) {
	var (
		mu     sync.Mutex
		arenas []*packet.Arena
	)
	s := Sweep{
		Base:        quickBase(),
		Protocols:   []string{"AODV", "MTS"},
		Speeds:      []float64{2, 5, 10, 15, 20},
		Reps:        4,
		SeedBase:    1,
		Parallelism: 2,
		Runner: func(ctx *scenario.Context, cfg scenario.Config, w Watchdog) (*metrics.RunMetrics, error) {
			if cfg.Protocol == "AODV" && cfg.MaxSpeed == 5 && cfg.Seed == 2 {
				return nil, errors.New("injected cell failure")
			}
			sc, err := ctx.Build(cfg)
			if err != nil {
				return nil, err
			}
			sc.Arena.Check = true
			mu.Lock()
			arenas = append(arenas, sc.Arena)
			mu.Unlock()
			m, err := sc.RunWatched(scenario.Budget{MaxEvents: w.MaxEvents, WallClock: w.WallClock})
			if err != nil {
				return nil, err // RunWatched already retired the scenario
			}
			sc.Retire()
			return m, nil
		},
	}
	var ran int64
	s.OnRun = func(*metrics.RunMetrics) { atomic.AddInt64(&ran, 1) }
	_, err := s.Run()
	if err == nil {
		t.Fatal("sweep with an injected failing cell reported success")
	}
	for _, want := range []string{"AODV", "speed=5", "seed=2", "injected cell failure"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error lost cell attribution (%q missing): %v", want, err)
		}
	}
	total := int64(len(s.Protocols) * len(s.Speeds) * s.Reps)
	if ran >= total {
		t.Fatalf("all %d cells ran despite cancellation", total)
	}
	if len(arenas) == 0 {
		t.Fatal("runner seam simulated no run")
	}
	for i, a := range arenas {
		requireArenaClean(t, a, fmt.Sprintf("run %d", i))
	}
}

// TestCellAfterFailureBitIdentical: a failed cell costs its worker
// nothing. On one worker the first cell panics, errors or is killed by
// the watchdog and the second is healthy: the failure is recorded and
// journalled with its kind, and the healthy cell's metrics are
// byte-identical to a standalone run. An error or a watchdog kill leaves
// the worker's context reusable; a panic unwinds the simulator, so the
// engine must hand the next cell a different context.
func TestCellAfterFailureBitIdentical(t *testing.T) {
	cfg := quickBase()
	cfg.Protocol = "MTS"
	cfg.MaxSpeed = 10
	cfg.Seed = 2
	standalone, err := scenario.RunOne(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := json.Marshal(standalone)

	for _, kind := range []string{KindPanic, KindError, KindTimeout} {
		t.Run(kind, func(t *testing.T) {
			var (
				contexts []*scenario.Context // one worker: no lock needed
				journal  bytes.Buffer
			)
			s := Sweep{
				Base:        quickBase(),
				Protocols:   []string{"MTS"},
				Speeds:      []float64{10},
				Reps:        2,
				SeedBase:    1,
				Parallelism: 1,
				KeepGoing:   true,
				Journal:     NewJournal(&journal),
				Runner: func(ctx *scenario.Context, cfg scenario.Config, w Watchdog) (*metrics.RunMetrics, error) {
					contexts = append(contexts, ctx)
					if cfg.Seed == 1 {
						switch kind {
						case KindPanic:
							panic("injected panic")
						case KindError:
							return nil, errors.New("injected error")
						case KindTimeout:
							w.MaxEvents = 10
						}
					}
					return DefaultRunner(ctx, cfg, w)
				},
			}
			res, err := s.Run()
			if err != nil {
				t.Fatalf("KeepGoing sweep errored: %v", err)
			}
			if len(res.Failed) != 1 || res.Failed[0].Seed != 1 || res.Failed[0].Kind != kind {
				t.Fatalf("failed cells %+v, want seed 1 as %q", res.Failed, kind)
			}
			runs := res.Runs[CellKey{Protocol: "MTS", Speed: 10}]
			if len(runs) != 1 {
				t.Fatalf("%d runs retained, want 1", len(runs))
			}
			if got, _ := json.Marshal(runs[0]); string(got) != string(want) {
				t.Fatalf("cell after a %s differs from a standalone run\nwant: %s\ngot:  %s", kind, want, got)
			}
			if len(contexts) != 2 {
				t.Fatalf("runner saw %d cells, want 2", len(contexts))
			}
			if replaced := contexts[0] != contexts[1]; replaced != (kind == KindPanic) {
				t.Fatalf("context replaced = %v after a %s, want %v", replaced, kind, kind == KindPanic)
			}
			var outcomes []string
			for _, line := range strings.Split(strings.TrimSpace(journal.String()), "\n") {
				var rec AttemptRecord
				if err := json.Unmarshal([]byte(line), &rec); err != nil {
					t.Fatalf("journal line %q: %v", line, err)
				}
				outcomes = append(outcomes, fmt.Sprintf("%d:%s", rec.Seed, rec.Outcome))
			}
			if got, want := strings.Join(outcomes, ","), "1:"+kind+",2:ok"; got != want {
				t.Fatalf("journal outcomes %s, want %s", got, want)
			}
		})
	}
}

// TestRetryRecoversPanickingCell: a cell that panics mid-grid is
// recovered by re-running it, and the re-run is a resume over the run
// cache rather than an in-process retry. The KeepGoing sweep records the
// panic, caches nothing for that cell, and hands the worker's next cell
// a replacement context; the fault-free resume re-simulates only that
// cell and aggregates bit-identically to a sweep that never panicked.
func TestRetryRecoversPanickingCell(t *testing.T) {
	dir := t.TempDir()
	clean := cachedSweep(t, dir)
	clean.Cache = nil
	want, err := clean.Run()
	if err != nil {
		t.Fatal(err)
	}

	var contexts []*scenario.Context // one worker: no lock needed
	s := cachedSweep(t, dir)
	s.Parallelism = 1
	s.KeepGoing = true
	s.Runner = func(ctx *scenario.Context, cfg scenario.Config, w Watchdog) (*metrics.RunMetrics, error) {
		if len(contexts) == 0 || contexts[len(contexts)-1] != ctx {
			contexts = append(contexts, ctx)
		}
		if cfg.Protocol == "MTS" && cfg.MaxSpeed == 10 && cfg.Seed == 1 {
			panic("injected mid-run panic")
		}
		return DefaultRunner(ctx, cfg, w)
	}
	faulted, err := s.Run()
	if err != nil {
		t.Fatalf("KeepGoing sweep errored: %v", err)
	}
	if len(faulted.Failed) != 1 || faulted.Failed[0].Kind != KindPanic {
		t.Fatalf("failed cells %+v, want one %q", faulted.Failed, KindPanic)
	}
	// The panicking cell is neither the first nor the last, so exactly one
	// replacement context must have taken over the single worker.
	if len(contexts) != 2 {
		t.Fatalf("runner saw %d distinct contexts, want 2 (one replaced after the panic)", len(contexts))
	}

	resume := cachedSweep(t, dir)
	var journal bytes.Buffer
	resume.Journal = NewJournal(&journal)
	got, err := resume.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got.CacheMisses != 1 {
		t.Fatalf("resume simulated %d cells, want only the panicked one", got.CacheMisses)
	}
	var ran []string
	for _, line := range strings.Split(strings.TrimSpace(journal.String()), "\n") {
		var rec AttemptRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		if rec.Outcome != "cache-hit" {
			ran = append(ran, fmt.Sprintf("%s/%g/%d:%s", rec.Protocol, rec.Speed, rec.Seed, rec.Outcome))
		}
	}
	if strings.Join(ran, ",") != "MTS/10/1:ok" {
		t.Fatalf("resume journal shows runs %v, want only MTS/10/1:ok", ran)
	}
	for _, fig := range allFigures() {
		if want.Table(fig) != got.Table(fig) || want.CSV(fig) != got.CSV(fig) {
			t.Fatalf("%s: resumed sweep differs from the never-panicked sweep\nwant:\n%s\ngot:\n%s",
				fig.ID, want.Table(fig), got.Table(fig))
		}
	}
}

// TestKeepGoingRecordsFailures: with KeepGoing a sweep with failing
// cells completes the healthy grid, records each failed run with its
// kind, marks degraded cells in the renderers, and summarises the
// damage.
func TestKeepGoingRecordsFailures(t *testing.T) {
	s := Sweep{
		Base:      quickBase(),
		Protocols: []string{"AODV", "MTS"},
		Speeds:    []float64{2, 10},
		Reps:      2,
		SeedBase:  1,
		KeepGoing: true,
		Runner: func(ctx *scenario.Context, cfg scenario.Config, w Watchdog) (*metrics.RunMetrics, error) {
			// Every rep of (AODV, 2) fails — an all-failed cell; one rep of
			// (MTS, 10) fails — a degraded cell.
			if cfg.Protocol == "AODV" && cfg.MaxSpeed == 2 {
				return nil, errors.New("injected total failure")
			}
			if cfg.Protocol == "MTS" && cfg.MaxSpeed == 10 && cfg.Seed == 1 {
				return nil, errors.New("injected partial failure")
			}
			return DefaultRunner(ctx, cfg, w)
		},
	}
	var ran int64
	s.OnRun = func(*metrics.RunMetrics) { atomic.AddInt64(&ran, 1) }
	res, err := s.Run()
	if err != nil {
		t.Fatalf("KeepGoing sweep returned an error: %v", err)
	}
	total := int64(len(s.Protocols) * len(s.Speeds) * s.Reps)
	if ran != total-3 {
		t.Fatalf("healthy cells run: %d, want %d", ran, total-3)
	}
	if len(res.Failed) != 3 {
		t.Fatalf("recorded %d failed runs, want 3: %+v", len(res.Failed), res.Failed)
	}
	// Sorted by cell then seed, each with its kind and a cell-attributed
	// error.
	f := res.Failed[0]
	if f.Key.Protocol != "AODV" || f.Key.Speed != 2 || f.Seed != 1 {
		t.Fatalf("failures not sorted by cell then seed: first is %+v", f)
	}
	if f.Kind != KindError {
		t.Fatalf("failure kind %q, want %q", f.Kind, KindError)
	}
	if !strings.Contains(f.Err.Error(), "AODV speed=2") || !strings.Contains(f.Err.Error(), "injected total failure") {
		t.Fatalf("failed cell error lost attribution: %v", f.Err)
	}
	allFailedKey := CellKey{Protocol: "AODV", Speed: 2}
	degradedKey := CellKey{Protocol: "MTS", Speed: 10}
	if res.FailedReps(allFailedKey) != 2 || res.FailedReps(degradedKey) != 1 {
		t.Fatalf("FailedReps: all=%d degraded=%d, want 2/1",
			res.FailedReps(allFailedKey), res.FailedReps(degradedKey))
	}

	fig := allFigures()[0]
	table := res.Table(fig)
	if !strings.Contains(table, "FAILED") {
		t.Fatalf("table does not mark the all-failed cell:\n%s", table)
	}
	if !strings.Contains(table, "!") {
		t.Fatalf("table does not mark the degraded cell:\n%s", table)
	}
	// Every rendered row stays column-aligned despite the markers (rune
	// width — "±" is multi-byte).
	lines := strings.Split(strings.TrimRight(table, "\n"), "\n")
	for i := 2; i < len(lines); i++ {
		if got, want := utf8.RuneCountInString(lines[i]), utf8.RuneCountInString(lines[1]); got != want {
			t.Fatalf("row %d width %d != header width %d:\n%s", i, got, want, table)
		}
	}
	csv := res.CSV(fig)
	for _, line := range strings.Split(csv, "\n") {
		if strings.HasPrefix(line, "2,") {
			if !strings.HasPrefix(line, "2,,,") {
				t.Fatalf("all-failed cell not blanked in CSV row %q", line)
			}
		}
	}

	sum := res.FailedSummary()
	for _, want := range []string{"FAILED CELLS", "AODV", "MTS", "injected total failure", "seed"} {
		if !strings.Contains(sum, want) {
			t.Fatalf("failed summary missing %q:\n%s", want, sum)
		}
	}
	// The summary names the cell once, in its columns: the error column
	// carries the cause without the attribution FailedCell.Err keeps.
	for _, row := range strings.Split(strings.TrimRight(sum, "\n"), "\n")[2:] {
		if strings.Contains(row, "speed=") || strings.Contains(row, "seed=") {
			t.Fatalf("failed summary row repeats its cell in the error column: %q", row)
		}
		if !strings.HasSuffix(row, " injected total failure") && !strings.HasSuffix(row, " injected partial failure") {
			t.Fatalf("failed summary row does not end with the bare cause: %q", row)
		}
	}
	clean := Sweep{Base: quickBase(), Protocols: []string{"MTS"}, Speeds: []float64{2}, Reps: 1, SeedBase: 1}
	cres, err := clean.Run()
	if err != nil {
		t.Fatal(err)
	}
	if cres.FailedSummary() != "" {
		t.Fatalf("clean sweep rendered a failure summary: %q", cres.FailedSummary())
	}
}

// TestWatchdogEventBudget: the sweep-level watchdog kills livelocked
// runs via the real mid-run abort path and records each as one timeout.
func TestWatchdogEventBudget(t *testing.T) {
	s := Sweep{
		Base:      quickBase(),
		Protocols: []string{"MTS"},
		Speeds:    []float64{10},
		Reps:      1,
		SeedBase:  1,
		KeepGoing: true,
		Watchdog:  Watchdog{MaxEvents: 10},
	}
	res, err := s.Run()
	if err != nil {
		t.Fatalf("KeepGoing watchdog sweep errored: %v", err)
	}
	if len(res.Failed) != 1 {
		t.Fatalf("recorded %d failures, want 1", len(res.Failed))
	}
	f := res.Failed[0]
	if f.Kind != KindTimeout {
		t.Fatalf("failure kind %q, want %q (%+v)", f.Kind, KindTimeout, f)
	}
	if !strings.Contains(f.Err.Error(), "event-budget") || !strings.Contains(f.Err.Error(), "seed=1") {
		t.Fatalf("timeout error lost attribution: %v", f.Err)
	}
	var ae *scenario.AbortError
	if !errors.As(f.Err, &ae) {
		t.Fatalf("failed cell error does not unwrap to *scenario.AbortError: %v", f.Err)
	}
}

// erringCache is a Cache whose writes always fail — the sick-disk case
// the sweep must survive while still naming the first cause.
type erringCache struct{ calls int64 }

func (c *erringCache) Get(scenario.Config) (*metrics.RunMetrics, bool) { return nil, false }
func (c *erringCache) Put(scenario.Config, *metrics.RunMetrics) error {
	atomic.AddInt64(&c.calls, 1)
	return errors.New("write /bogus/cache/ab/deadbeef.json: read-only file system")
}

// TestCachePutErrSurfaced: a sweep over a cache that cannot persist
// still succeeds, counts every failed write, and retains the first
// error's path and cause for the summary (instead of only a count).
func TestCachePutErrSurfaced(t *testing.T) {
	cache := &erringCache{}
	s := Sweep{
		Base:      quickBase(),
		Protocols: []string{"MTS"},
		Speeds:    []float64{2, 10},
		Reps:      2,
		SeedBase:  1,
		Cache:     cache,
	}
	res, err := s.Run()
	if err != nil {
		t.Fatalf("sweep failed for a sick cache: %v", err)
	}
	total := len(s.Protocols) * len(s.Speeds) * s.Reps
	if res.CachePutErrs != total {
		t.Fatalf("CachePutErrs = %d, want %d", res.CachePutErrs, total)
	}
	if res.CacheFirstPutErr == nil || !strings.Contains(res.CacheFirstPutErr.Error(), "/bogus/cache/ab/deadbeef.json") {
		t.Fatalf("first put error lost its path: %v", res.CacheFirstPutErr)
	}
	if res.CacheMisses != total {
		t.Fatalf("CacheMisses = %d, want %d", res.CacheMisses, total)
	}
}

// TestJournalRecordsCacheHits: warm-cache cells appear in the journal as
// cache hits, so the journal is a complete account of where
// every cell's metrics came from.
func TestJournalRecordsCacheHits(t *testing.T) {
	dir := t.TempDir()
	cold := cachedSweep(t, dir)
	if _, err := cold.Run(); err != nil {
		t.Fatal(err)
	}
	warm := cachedSweep(t, dir)
	var buf bytes.Buffer
	warm.Journal = NewJournal(&buf)
	if _, err := warm.Run(); err != nil {
		t.Fatal(err)
	}
	total := len(warm.Protocols) * len(warm.Speeds) * warm.Reps
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != total {
		t.Fatalf("journal has %d lines, want %d", len(lines), total)
	}
	for _, line := range lines {
		var rec AttemptRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		if rec.Outcome != "cache-hit" {
			t.Fatalf("warm-cache journal record %+v, want a cache-hit", rec)
		}
		if rec.Protocol == "" || rec.Seed == 0 {
			t.Fatalf("journal record lost its cell: %+v", rec)
		}
	}
	if warm.Journal.Records() != total {
		t.Fatalf("Records() = %d, want %d", warm.Journal.Records(), total)
	}
}

// TestOpenJournalAppends: OpenJournal is append-mode, so consecutive
// sweeps over the same path accumulate one flake history.
func TestOpenJournalAppends(t *testing.T) {
	path := t.TempDir() + "/attempts.jsonl"
	for i := 0; i < 2; i++ {
		j, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		j.Record(AttemptRecord{Protocol: "MTS", Seed: int64(i + 1), Outcome: "ok"})
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j2.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 2 {
		t.Fatalf("journal has %d lines after two appends, want 2", len(lines))
	}
	var rec AttemptRecord
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Seed != 2 {
		t.Fatalf("second line seed %d, want 2", rec.Seed)
	}
}
