package experiment

// This file is the fault-tolerance layer of the sweep engine: per-cell
// panic isolation, the run watchdog, KeepGoing degradation with per-cell
// failure records, and the append-only JSONL attempt journal. A failed
// cell is not retried in place: the simulator is deterministic, so it
// would fail the same way again. It is recovered instead by a later
// sweep over the same run cache, which simulates only the cells that are
// missing and aggregates byte-identically to a never-failed sweep —
// internal/faultinject proves it with a seeded chaos suite.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"

	"mtsim/internal/metrics"
	"mtsim/internal/scenario"
)

// Watchdog is the per-run deadline pair the engine applies to every
// simulated cell: a simulated-event budget that catches livelocked runs
// and a wall-clock budget that catches hung ones. A tripped watchdog
// kills the cell cleanly (the scenario is retired mid-run, the worker's
// context stays reusable) and fails it with kind KindTimeout. The zero
// Watchdog is unlimited.
type Watchdog struct {
	MaxEvents uint64        // simulated-event budget per run; 0 = unlimited
	WallClock time.Duration // wall-clock budget per run; 0 = unlimited
}

// Runner simulates one cell on a worker's reusable context. It is
// the engine's injection seam: internal/faultinject wraps the default
// runner to panic, error, or squeeze the watchdog budget on selected
// cells. A Runner must honour the watchdog (DefaultRunner does) and must
// leave the context reusable on every non-panic return.
type Runner func(ctx *scenario.Context, cfg scenario.Config, w Watchdog) (*metrics.RunMetrics, error)

// DefaultRunner builds cfg on the context, runs it under the watchdog,
// and retires the scenario so the arena's books are closed whether the
// run completed or was killed.
func DefaultRunner(ctx *scenario.Context, cfg scenario.Config, w Watchdog) (*metrics.RunMetrics, error) {
	s, err := ctx.Build(cfg)
	if err != nil {
		return nil, err
	}
	m, err := s.RunWatched(scenario.Budget{MaxEvents: w.MaxEvents, WallClock: w.WallClock})
	if err != nil {
		return nil, err // RunWatched already retired the scenario
	}
	s.Retire()
	return m, nil
}

// Cache is the engine-facing slice of runcache.Store: result lookup by
// the worker that receives a cell, persistence after completion. It is an interface so
// fault injection (and future remote stores) can stand in for the
// on-disk implementation; *runcache.Store satisfies it. Implementations
// must be safe for concurrent use by the sweep's workers.
type Cache interface {
	Get(cfg scenario.Config) (*metrics.RunMetrics, bool)
	Put(cfg scenario.Config, m *metrics.RunMetrics) error
}

// Cell failure kinds (FailedCell.Kind, AttemptRecord.Outcome).
const (
	KindError   = "error"   // the runner returned an ordinary error
	KindPanic   = "panic"   // the runner panicked; recovered and isolated
	KindTimeout = "timeout" // the run watchdog killed the cell
)

// PanicError is a recovered per-cell panic: the panic value plus the
// stack at the point of the panic, attributed to the cell by the
// surrounding engine error. Isolating panics this way keeps one
// poisoned cell from killing a multi-hour sweep.
type PanicError struct {
	Value any
	Stack string
}

func (e *PanicError) Error() string { return fmt.Sprintf("panic: %v", e.Value) }

// errKind classifies a failed cell for records and the journal.
func errKind(err error) string {
	var pe *PanicError
	if errors.As(err, &pe) {
		return KindPanic
	}
	var ae *scenario.AbortError
	if errors.As(err, &ae) {
		return KindTimeout
	}
	return KindError
}

// FailedCell records one run that failed in a KeepGoing sweep: its cell,
// seed, failure kind (KindError, KindPanic or KindTimeout), and the
// cell-attributed error.
type FailedCell struct {
	Key  CellKey
	Seed int64
	Kind string
	Err  error
}

// AttemptRecord is one line of the JSONL attempt journal: every simulated
// cell (successes included) plus cache hits, with the cell flattened for
// easy post-mortem filtering. Records arrive in completion order,
// interleaved across workers, not in Jobs() order. Wall time and event
// counts are observability data, not results — they never feed the
// aggregates, so journal contents do not perturb determinism.
type AttemptRecord struct {
	Protocol       string  `json:"protocol"`
	Speed          float64 `json:"speed"`
	Adversary      string  `json:"adversary,omitempty"`
	Countermeasure string  `json:"countermeasure,omitempty"`
	Seed           int64   `json:"seed"`
	Outcome        string  `json:"outcome"` // "ok", "cache-hit", KindError, KindPanic, KindTimeout
	Error          string  `json:"error,omitempty"`
	Events         uint64  `json:"events,omitempty"` // simulated events (successful runs)
	WallMS         float64 `json:"wall_ms"`
}

// Journal is an append-only JSONL log of sweep attempts, safe for
// concurrent use by the workers, in the order runs and cache hits
// complete. Writes are best-effort — a sick journal
// never fails a sweep — with the first write error retained for
// inspection via Err.
type Journal struct {
	mu  sync.Mutex
	w   io.Writer
	c   io.Closer
	n   int
	err error
}

// NewJournal wraps an existing writer (a buffer in tests, a pipe to a
// log shipper) as an attempt journal.
func NewJournal(w io.Writer) *Journal { return &Journal{w: w} }

// OpenJournal opens (creating if needed) an append-mode journal file.
// Append mode means repeated sweeps over the same journal accumulate —
// the flake history of a grid spans invocations.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal: %w", err)
	}
	return &Journal{w: f, c: f}, nil
}

// Record appends one line. A record that cannot be marshalled
// (NaN speeds are the realistic case — encoding/json rejects them) is
// dropped like any other failed write: counted against Err, never
// against the sweep.
func (j *Journal) Record(rec AttemptRecord) {
	if j == nil {
		return
	}
	doc, err := json.Marshal(rec)
	if err != nil {
		j.mu.Lock()
		if j.err == nil {
			j.err = fmt.Errorf("journal: marshal: %w", err)
		}
		j.mu.Unlock()
		return
	}
	doc = append(doc, '\n')
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, werr := j.w.Write(doc); werr != nil {
		if j.err == nil {
			j.err = werr
		}
		return
	}
	j.n++
}

// Records reports how many lines were successfully appended.
func (j *Journal) Records() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.n
}

// Err returns the first write error, if any (best-effort logging: the
// sweep itself never fails for a sick journal).
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// Close closes the underlying file when the journal owns one.
func (j *Journal) Close() error {
	if j == nil || j.c == nil {
		return nil
	}
	return j.c.Close()
}

// CellJob is one grid cell: the aggregation key plus the complete
// configuration (seed included). The configuration is plain data — it
// survives a JSON round trip with its content address (runcache.Key)
// unchanged.
type CellJob struct {
	Key    CellKey         `json:"key"`
	Config scenario.Config `json:"config"`
}

// Jobs enumerates the sweep's full grid in the engine's deterministic
// dispatch order — protocol × speed × adversary × countermeasure ×
// repetition, repetition r seeded SeedBase+r. Run dispatches exactly
// these cells, so a cache that holds them all lets Run aggregate without
// simulating.
func (s Sweep) Jobs() []CellJob {
	specs, labels := axis(s.Adversaries, s.Base.Adversary)
	cmSpecs, cmLabels := axis(s.Countermeasures, s.Base.Countermeasure)
	var jobs []CellJob
	for _, p := range s.Protocols {
		for _, v := range s.Speeds {
			for a := range specs {
				for c := range cmSpecs {
					for r := 0; r < s.Reps; r++ {
						cfg := s.Base
						cfg.Protocol = p
						cfg.MaxSpeed = v
						cfg.Adversary = specs[a]
						cfg.Countermeasure = cmSpecs[c]
						cfg.Seed = s.SeedBase + int64(r)
						jobs = append(jobs, CellJob{
							Key:    CellKey{Protocol: p, Speed: v, Adversary: labels[a], Countermeasure: cmLabels[c]},
							Config: cfg,
						})
					}
				}
			}
		}
	}
	return jobs
}

// journalAttempt writes one run (or cache hit) to the journal, if any.
func (s Sweep) journalAttempt(j CellJob, outcome, errMsg string, events uint64, wall time.Duration) {
	if s.Journal == nil {
		return
	}
	s.Journal.Record(AttemptRecord{
		Protocol:       j.Key.Protocol,
		Speed:          j.Key.Speed,
		Adversary:      j.Key.Adversary,
		Countermeasure: j.Key.Countermeasure,
		Seed:           j.Config.Seed,
		Outcome:        outcome,
		Error:          errMsg,
		Events:         events,
		WallMS:         float64(wall) / float64(time.Millisecond),
	})
}

// cellError attributes a cell's error with everything a post-mortem
// needs: protocol, speed, both axis labels and seed. FailedSummary
// prints those as columns, so its error column shows only the cause.
type cellError struct {
	key  CellKey
	seed int64
	err  error
}

func (e *cellError) Error() string {
	return fmt.Sprintf("%s speed=%g adversary=%q countermeasure=%q seed=%d: %v",
		e.key.Protocol, e.key.Speed, e.key.Adversary, e.key.Countermeasure, e.seed, e.err)
}

func (e *cellError) Unwrap() error { return e.err }

// attempt simulates a cell with panic isolation: a panic
// anywhere in the simulator unwinds to here and becomes a *PanicError
// instead of killing the worker (and with it the whole sweep).
func (s Sweep) attempt(ctx *scenario.Context, cfg scenario.Config) (m *metrics.RunMetrics, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: string(debug.Stack())}
		}
	}()
	run := s.Runner
	if run == nil {
		run = DefaultRunner
	}
	return run(ctx, cfg, s.Watchdog)
}

// attemptEvents reports how many simulated events a failed run
// executed before dying: watchdog kills carry the count in their
// *scenario.AbortError, so livelock post-mortems in the journal see how
// far the run got instead of a flat zero.
func attemptEvents(err error) uint64 {
	var ae *scenario.AbortError
	if errors.As(err, &ae) {
		return ae.Events
	}
	return 0
}

// runCell simulates one cell once and journals the outcome.
func (s Sweep) runCell(ctx *scenario.Context, j CellJob) (*metrics.RunMetrics, error) {
	start := time.Now()
	m, err := s.attempt(ctx, j.Config)
	if err == nil {
		s.journalAttempt(j, "ok", "", m.EventsRun, time.Since(start))
		return m, nil
	}
	s.journalAttempt(j, errKind(err), err.Error(), attemptEvents(err), time.Since(start))
	return nil, &cellError{key: j.Key, seed: j.Config.Seed, err: err}
}

// Run executes the sweep. Repetition r uses seed SeedBase+r for every
// protocol, speed and adversary, pairing the comparisons: identical
// mobility and traffic endpoints across protocols and threat models.
//
// Every cell of Jobs() is dispatched to a pool of at most Parallelism
// workers. The worker that receives a cell probes Sweep.Cache for it and
// aggregates a hit without simulating, so a warm sweep reads the cache
// on every worker at once. A miss is simulated on the worker's one
// scenario.Context, built on its first miss and reused across its runs;
// a fully warm sweep builds none. Each simulated cell runs under the
// engine's fault-tolerance layer: panics are isolated into cell-attributed
// errors and the Watchdog kills livelocked or hung runs cleanly. Without
// KeepGoing the first failed cell cancels all outstanding jobs and is
// returned with its attribution; with KeepGoing the sweep degrades
// gracefully instead, recording every failed cell (with its kind) in
// Result.Failed while the rest of the grid completes. Failed cells are
// never cached, so a later sweep over the same Cache re-simulates
// exactly those cells and nothing else.
func (s Sweep) Run() (*Result, error) {
	res := &Result{
		Sweep:  s,
		Runs:   make(map[CellKey][]*metrics.RunMetrics),
		failed: make(map[CellKey]int),
	}

	jobs := s.Jobs()
	workers := s.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	var (
		mu       sync.Mutex
		firstErr error
	)
	done := make(chan struct{})
	var abortOnce sync.Once
	abort := func() { abortOnce.Do(func() { close(done) }) }
	jobCh := make(chan CellJob)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One reusable simulation context per worker, built on its
			// first miss: consecutive runs share its label caches
			// (bit-identical results; see scenario.Context).
			var ctx *scenario.Context
			for j := range jobCh {
				select {
				case <-done:
					continue // sweep aborted: drain without probing or simulating
				default:
				}
				if s.Cache != nil {
					if m, ok := s.Cache.Get(j.Config); ok {
						mu.Lock()
						res.CacheHits++
						res.Runs[j.Key] = append(res.Runs[j.Key], m)
						mu.Unlock()
						s.journalAttempt(j, "cache-hit", "", m.EventsRun, 0)
						if s.OnRun != nil {
							s.OnRun(m)
						}
						continue
					}
					mu.Lock()
					res.CacheMisses++
					mu.Unlock()
				}
				if ctx == nil {
					ctx = scenario.NewContext()
				}
				m, err := s.runCell(ctx, j)
				if err != nil {
					if s.KeepGoing {
						mu.Lock()
						res.Failed = append(res.Failed, FailedCell{
							Key: j.Key, Seed: j.Config.Seed, Kind: errKind(err), Err: err,
						})
						mu.Unlock()
						continue
					}
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					abort()
					continue
				}
				if s.Cache != nil {
					if perr := s.Cache.Put(j.Config, m); perr != nil {
						mu.Lock()
						res.CachePutErrs++
						if res.CacheFirstPutErr == nil {
							res.CacheFirstPutErr = perr
						}
						mu.Unlock()
					}
				}
				mu.Lock()
				res.Runs[j.Key] = append(res.Runs[j.Key], m)
				mu.Unlock()
				if s.OnRun != nil {
					s.OnRun(m)
				}
			}
		}()
	}
	// Feed until done: an abort stops the feeder, so outstanding jobs are
	// cancelled instead of the grid silently running to completion.
feed:
	for _, j := range jobs {
		select {
		case jobCh <- j:
		case <-done:
			break feed
		}
	}
	close(jobCh)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	// Deterministic ordering regardless of worker completion order: runs
	// sorted by seed, failures sorted by cell then seed.
	sort.Slice(res.Failed, func(i, j int) bool { return lessFailed(res.Failed[i], res.Failed[j]) })
	for _, f := range res.Failed {
		res.failed[f.Key]++
	}
	for _, runs := range res.Runs {
		sort.Slice(runs, func(i, j int) bool { return runs[i].Seed < runs[j].Seed })
	}
	return res, nil
}

func lessFailed(a, b FailedCell) bool {
	if a.Key.Protocol != b.Key.Protocol {
		return a.Key.Protocol < b.Key.Protocol
	}
	if a.Key.Speed != b.Key.Speed {
		return a.Key.Speed < b.Key.Speed
	}
	if a.Key.Adversary != b.Key.Adversary {
		return a.Key.Adversary < b.Key.Adversary
	}
	if a.Key.Countermeasure != b.Key.Countermeasure {
		return a.Key.Countermeasure < b.Key.Countermeasure
	}
	return a.Seed < b.Seed
}

// FailedReps reports how many repetitions of a cell failed
// (0 for a clean cell).
func (r *Result) FailedReps(key CellKey) int { return r.failed[key] }

// cellAllFailed reports a cell with failures and no surviving runs — the
// renderers mark it instead of printing a misleading zero.
func (r *Result) cellAllFailed(key CellKey) bool {
	return r.failed[key] > 0 && len(r.Runs[key]) == 0
}

// FailedSummary renders the failed cells as an aligned table (cell,
// seed, failure kind, error), or "" when nothing failed — the
// post-mortem view cmd/experiments prints before exiting non-zero.
func (r *Result) FailedSummary() string {
	if len(r.Failed) == 0 {
		return ""
	}
	var b strings.Builder
	total := 0
	for _, runs := range r.Runs {
		total += len(runs)
	}
	fmt.Fprintf(&b, "FAILED CELLS — %d of %d runs failed\n",
		len(r.Failed), total+len(r.Failed))
	fmt.Fprintf(&b, "%-10s %-8s %-18s %-16s %-6s %-9s %s\n",
		"protocol", "speed", "adversary", "countermeasure", "seed", "kind", "error")
	for _, f := range r.Failed {
		cause := f.Err
		var ce *cellError
		if errors.As(cause, &ce) {
			cause = ce.err
		}
		fmt.Fprintf(&b, "%-10s %-8g %-18s %-16s %-6d %-9s %s\n",
			f.Key.Protocol, f.Key.Speed, orBase(f.Key.Adversary, "base adversary"), orBase(f.Key.Countermeasure, "base"),
			f.Seed, f.Kind, cause)
	}
	return b.String()
}
