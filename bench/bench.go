// Package bench is the repository's benchmark. It runs one workload —
// a sweep of simulated cells, or replays of a primed run cache — through
// the simulator's own entry point (experiment.Sweep.Run with the default
// runner and a real runcache.Store), times it, checks every result, and
// reports the end-to-end metrics declared in BENCHMARK.json.
//
// A traced run reports per-layer metrics instead: it times the calls into
// each layer from wrappers at the engine's public seams (Sweep.Runner,
// Sweep.Cache, routing.Protocol), reads the layers' own counters, and
// charges CPU-profile samples to the innermost mtsim package on the stack.
// Tracing never changes a result: every traced cell must be byte-identical
// to its untraced run.
package bench

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"mtsim/internal/experiment"
	"mtsim/internal/metrics"
	"mtsim/internal/runcache"
	"mtsim/internal/scenario"
)

// Options selects one benchmark run.
type Options struct {
	Workload string
	Seed     int64
	// Seconds is how long the timed phase runs. Repetitions are whole:
	// the run stops starting new ones once the next would overrun, but it
	// always makes at least two, the minimum a determinism check needs.
	Seconds time.Duration
	// Trace selects a traced run, which reports per-layer metrics.
	Trace bool
	// WorkDir holds the run caches the workload creates; everything the
	// run puts there is removed before Run returns.
	WorkDir string

	size size
}

// Value is one reported metric.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N is the number of samples a percentile was taken over, where that
	// matters for reading it.
	N int `json:"n,omitempty"`
}

// Report is the outcome of one run: the metrics, the raw per-repetition
// samples behind them, and the correctness verdict.
type Report struct {
	Label     string           `json:"label,omitempty"`
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Trace     bool             `json:"trace"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
	// Samples holds an untraced run's timings per repetition (per set-up
	// for setup_s), in reference and in host seconds, and the calibrations
	// between them.
	Samples map[string][]float64 `json:"samples,omitempty"`
	// Digest fingerprints every cell's RunMetrics: it changes exactly
	// when simulated statistics move. It is information, not a metric.
	Digest   string   `json:"results_digest"`
	Problems []string `json:"problems,omitempty"`
}

// defs returns the declared metrics of a run kind in report order.
func defs(trace bool) []metricDef {
	if trace {
		return perLayer
	}
	return endToEnd
}

// Lines renders the report one metric per line: "workload metric value
// unit", in declaration order.
func (r *Report) Lines() []string {
	var out []string
	for _, d := range defs(r.Trace) {
		v := r.Metrics[d.name]
		line := fmt.Sprintf("%s %s %v %s", r.Workload, d.name, v.Value, v.Unit)
		if v.N > 0 {
			line += fmt.Sprintf(" (n=%d)", v.N)
		}
		out = append(out, line)
	}
	out = append(out, fmt.Sprintf("%s results_digest %s", r.Workload, r.Digest))
	if r.Attempted > 0 {
		out = append(out, fmt.Sprintf("%s failed_frac %v fraction (%d of %d ops)",
			r.Workload, float64(r.Failed)/float64(r.Attempted), r.Failed, r.Attempted))
	}
	return out
}

// Result is the one-line summary a benchmark driver reads: exactly the
// correctness verdict, the op counts and the metrics.
func (r *Report) Result() ([]byte, error) {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := make(map[string]metric, len(r.Metrics))
	for k, v := range r.Metrics {
		ms[k] = metric{v.Value, v.Unit}
	}
	return json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms})
}

// Run executes one workload. It returns an error only when the workload
// could not be set up at all; failed cells and failed checks are counted
// in the report instead.
func Run(o Options) (*Report, error) {
	w, ok := newWorkload(o.Workload, o.Seed, o.size)
	if !ok {
		return nil, fmt.Errorf("bench: unknown workload %q (have %s)", o.Workload, strings.Join(Workloads(), ", "))
	}
	if err := os.MkdirAll(o.WorkDir, 0o755); err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	work, err := os.MkdirTemp(o.WorkDir, w.name+"-")
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	defer os.RemoveAll(work)

	r := &runner{o: o, w: w, work: work, digests: map[string]string{}, models: map[string]string{}}
	for _, sw := range w.sweeps {
		for i, l := range sw.AdversaryLabels() {
			if len(sw.Adversaries) == 0 {
				r.models[l] = sw.Base.Adversary.EffectiveModel()
			} else {
				r.models[l] = sw.Adversaries[i].EffectiveModel()
			}
		}
	}
	return r.run()
}

// runner carries one run's state.
type runner struct {
	o    Options
	w    *workload
	work string
	dirs int

	// models maps each adversary cell label to the model its cells must
	// report.
	models map[string]string
	// digests holds every cell's RunMetrics digest from its first run;
	// later repetitions, traced ones included, must reproduce it.
	digests map[string]string
	// primed is the warm-replay cache and the rendering of the sweep
	// that filled it.
	primed       *runcache.Store
	primedRender string

	// cals are the calibration kernel's times, taken between the timed
	// phases of an untraced run.
	cals []time.Duration

	attempted, failed int
	problems          []string
}

func (r *runner) calibrate() { r.cals = append(r.cals, calibrate(r.o.size)) }

// scale converts host time to reference time for the work done between
// the i-th and the next calibration.
func (r *runner) scale(i int) float64 {
	return 2 * float64(refCalibration) / float64(r.cals[i]+r.cals[i+1])
}

func (r *runner) problem(format string, args ...any) {
	const keep = 20 // enough to diagnose; the count is in failed
	if len(r.problems) < keep {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// freshDir returns a new, empty directory under the run's work space.
func (r *runner) freshDir() string {
	r.dirs++
	return filepath.Join(r.work, fmt.Sprintf("cache-%d", r.dirs))
}

// setups is how often an untraced run sets up; setup_s is their median.
const setups = 3

func (r *runner) run() (*Report, error) {
	rep := &Report{Workload: r.w.name, Seed: r.o.Seed, Trace: r.o.Trace, Samples: map[string][]float64{}}
	n := setups
	if r.o.Trace {
		n = 1
	} else {
		r.calibrate()
	}
	var hostSetup []float64
	for i := 0; i < n; i++ {
		d, err := r.setup()
		if err != nil {
			return nil, err
		}
		hostSetup = append(hostSetup, d.Seconds())
	}

	vals := map[string]Value{}
	if r.o.Trace {
		if err := r.traced(vals); err != nil {
			return nil, err
		}
	} else {
		r.untraced(vals, rep.Samples)
		setupS := scaled(hostSetup, r.scale(0))
		vals["setup_s"] = Value{Value: median(setupS)}
		rep.Samples["setup_s"], rep.Samples["host_setup_s"] = setupS, hostSetup
		vals["peak_rss_mb"] = Value{Value: float64(peakRSSKiB()) / 1024}
	}
	rep.Metrics = map[string]Value{}
	for _, d := range defs(r.o.Trace) {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("bench: workload %s computed no %s", r.w.name, d.name)
		}
		v.Unit = d.unit
		rep.Metrics[d.name] = v
	}
	rep.Attempted, rep.Failed, rep.Problems = r.attempted, r.failed, r.problems
	rep.Correct = r.failed == 0 && len(r.problems) == 0 && r.attempted > 0
	rep.Digest = r.digest()
	return rep, nil
}

// setup does what precedes the first timed op: open a run cache, create
// a simulation context and cold-build and retire the workload's first
// configuration. warm-replay also primes its cache with every cell.
func (r *runner) setup() (time.Duration, error) {
	start := time.Now()
	var store *runcache.Store
	if r.w.cached {
		var err error
		if store, err = runcache.Open(r.freshDir()); err != nil {
			return 0, fmt.Errorf("bench: %w", err)
		}
	}
	ctx := scenario.NewContext()
	s, err := ctx.Build(r.w.sweeps[0].Jobs()[0].Config)
	if err != nil {
		return 0, fmt.Errorf("bench: build: %w", err)
	}
	s.Retire()
	if r.w.replayOps > 0 {
		sw := r.w.sweeps[0]
		sw.Cache = store
		res, err := sw.Run()
		if err != nil {
			return 0, fmt.Errorf("bench: priming sweep: %w", err)
		}
		if res.CachePutErrs > 0 {
			return 0, fmt.Errorf("bench: priming sweep: %w", res.CacheFirstPutErr)
		}
		if r.primed != nil {
			os.RemoveAll(r.primed.Dir())
		}
		r.primed, r.primedRender = store, render(res)
		r.checkCells(0, res)
	} else if store != nil {
		os.RemoveAll(store.Dir())
	}
	return time.Since(start), nil
}

// render is what a warm-replay op produces: the text and CSV tables of
// every paper figure.
func render(res *experiment.Result) string {
	var b strings.Builder
	for _, fig := range experiment.PaperFigures() {
		b.WriteString(res.Table(fig))
		b.WriteString(res.CSV(fig))
	}
	return b.String()
}

// repStats is one repetition's measurements.
type repStats struct {
	wall  time.Duration
	opMS  []float64
	ops   int
	sweep []time.Duration // Sweep.Run spans (traced only)

	cpu                                 time.Duration
	mallocs, allocBytes, gcs, gcPauseNs uint64
}

// untraced runs repetitions until the time box closes and fills the
// end-to-end metrics, in reference seconds (see calibrate.go).
func (r *runner) untraced(vals map[string]Value, samples map[string][]float64) {
	var reps []repStats
	start := time.Now()
	r.calibrate()
	for len(reps) < 2 || time.Since(start)+reps[len(reps)-1].wall <= r.o.Seconds {
		reps = append(reps, r.rep(nil))
		r.calibrate()
	}
	var walls, hostWalls, opMS, p50s, p90s []float64
	for i, s := range reps {
		f := r.scale(i + 1)
		ops := scaled(s.opMS, f)
		walls = append(walls, s.wall.Seconds()*f)
		hostWalls = append(hostWalls, s.wall.Seconds())
		opMS = append(opMS, ops...)
		p50s = append(p50s, quantile(ops, 0.5))
		p90s = append(p90s, quantile(ops, 0.9))
	}
	vals["wall_s"] = Value{Value: median(walls), N: len(walls)}
	vals["op_ms_p50"] = Value{Value: quantile(opMS, 0.5), N: len(opMS)}
	vals["op_ms_p90"] = Value{Value: quantile(opMS, 0.9), N: len(opMS)}
	samples["wall_s"], samples["op_ms_p50"], samples["op_ms_p90"] = walls, p50s, p90s
	samples["host_wall_s"] = hostWalls
	for _, c := range r.cals {
		samples["calibration_s"] = append(samples["calibration_s"], c.Seconds())
	}
}

func scaled(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}

func perOp(x float64, ops int) float64 {
	if ops == 0 {
		return 0
	}
	return x / float64(ops)
}

// rep runs one repetition, through the tracer's wrappers when tr is set.
func (r *runner) rep(tr *tracer) repStats {
	runtime.GC() // every repetition starts from a collected heap
	var memBefore, memAfter runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	cpuBefore := cpuTime()
	var s repStats
	if r.w.replayOps > 0 {
		s = r.replayRep(tr)
	} else {
		s = r.sweepRep(tr)
	}
	s.cpu = cpuTime() - cpuBefore
	runtime.ReadMemStats(&memAfter)
	s.mallocs = memAfter.Mallocs - memBefore.Mallocs
	s.allocBytes = memAfter.TotalAlloc - memBefore.TotalAlloc
	s.gcs = uint64(memAfter.NumGC - memBefore.NumGC)
	s.gcPauseNs = memAfter.PauseTotalNs - memBefore.PauseTotalNs
	return s
}

// sweepRep runs every cell of a simulating workload once. Its wall time
// is the sum of the Sweep.Run calls. Untraced, the per-cell times come
// from the sweep's own attempt journal.
func (r *runner) sweepRep(tr *tracer) repStats {
	var s repStats
	for i, sw := range r.w.sweeps {
		wall, opMS := r.runSweep(i, sw, tr)
		s.wall += wall
		s.opMS = append(s.opMS, opMS...)
		s.ops += len(sw.Jobs())
		if tr != nil {
			s.sweep = append(s.sweep, wall)
		}
	}
	return s
}

// runSweep runs one sweep of a repetition on a fresh run cache and checks
// its cells. It returns the time of the Sweep.Run call and the per-cell
// times.
func (r *runner) runSweep(idx int, sw experiment.Sweep, tr *tracer) (time.Duration, []float64) {
	ops := len(sw.Jobs())
	r.attempted += ops
	sw.KeepGoing = true // a failed cell is counted, not fatal
	if r.w.cached {
		store, err := runcache.Open(r.freshDir())
		if err != nil {
			r.failed += ops
			r.problem("open run cache: %v", err)
			return 0, nil
		}
		defer os.RemoveAll(store.Dir())
		sw.Cache = store
		if tr != nil {
			sw.Cache = tr.cache(store)
		}
	}
	var journal bytes.Buffer
	cellsBefore := 0
	if tr != nil {
		sw.Runner = tr.run
		cellsBefore = len(tr.cells)
	} else {
		sw.Journal = experiment.NewJournal(&journal)
	}

	start := time.Now()
	res, err := sw.Run()
	wall := time.Since(start)
	if err != nil {
		r.failed += ops
		r.problem("sweep: %v", err)
		return wall, nil
	}
	var opMS []float64
	if tr != nil {
		for _, c := range tr.cells[cellsBefore:] {
			opMS = append(opMS, ms(c.total))
		}
	} else {
		opMS = journalTimes(journal.Bytes())
	}
	for _, f := range res.Failed {
		r.failed++
		r.problem("cell %s seed %d: %v", cellName(f.Key), f.Seed, f.Err)
	}
	if res.CachePutErrs > 0 {
		r.problem("run cache: %d puts failed: %v", res.CachePutErrs, res.CacheFirstPutErr)
	}
	r.failed += r.checkCells(idx, res)
	return wall, opMS
}

// journalTimes extracts the wall time of every successful attempt.
func journalTimes(doc []byte) []float64 {
	var out []float64
	for _, line := range bytes.Split(doc, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var rec experiment.AttemptRecord
		if json.Unmarshal(line, &rec) == nil && rec.Outcome == "ok" {
			out = append(out, rec.WallMS)
		}
	}
	return out
}

// replaysPerOp is the size of a warm-replay op. A replay takes about
// 2 ms, but one in seven to one in two takes 60 % longer, a mode that all
// but vanishes when the process is pinned to one CPU. The share drifts
// between runs, so a median of single replays jumps between the two
// modes; ten replays per op average them.
const replaysPerOp = 10

// replayRep runs the warm-replay ops.
func (r *runner) replayRep(tr *tracer) repStats {
	var s repStats
	start := time.Now()
	for op := 0; op < r.w.replayOps; op++ {
		t0 := time.Now()
		ok := true
		for i := 0; i < replaysPerOp; i++ {
			ok = r.replay(tr, &s) && ok
		}
		s.opMS = append(s.opMS, ms(time.Since(t0)))
		r.attempted++
		if !ok {
			r.failed++
		}
	}
	s.wall = time.Since(start)
	s.ops = r.w.replayOps
	return s
}

// replay runs one sweep served wholly from the primed cache, renders every
// paper figure from it, and checks both.
func (r *runner) replay(tr *tracer, s *repStats) bool {
	sw := r.w.sweeps[0]
	sw.Cache = r.primed
	if tr != nil {
		sw.Cache = tr.cache(r.primed)
	}
	t0 := time.Now()
	res, err := sw.Run()
	t1 := time.Now()
	var out string
	if err == nil {
		out = render(res)
	}
	if tr != nil {
		s.sweep = append(s.sweep, t1.Sub(t0))
		tr.renders = append(tr.renders, time.Since(t1))
	}
	cells := len(sw.Jobs())
	switch {
	case err != nil:
		r.problem("replay: %v", err)
	case res.CacheMisses != 0 || res.CacheHits != cells:
		r.problem("replay: %d hits and %d misses, want %d hits", res.CacheHits, res.CacheMisses, cells)
	case out != r.primedRender:
		r.problem("replay: rendering differs from the priming sweep's")
	default:
		return true
	}
	return false
}

// checkCells checks every cell of the idx-th sweep's result and returns
// how many failed.
func (r *runner) checkCells(idx int, res *experiment.Result) int {
	failed := 0
	for key, runs := range res.Runs {
		for _, m := range runs {
			if !r.checkCell(fmt.Sprintf("#%d %s seed %d", idx, cellName(key), m.Seed), key, m) {
				failed++
			}
		}
	}
	return failed
}

// checkCell applies the per-cell checks: the invariants every run must
// satisfy, and equality with the cell's earlier runs.
func (r *runner) checkCell(id string, key experiment.CellKey, m *metrics.RunMetrics) bool {
	ok := true
	fail := func(format string, args ...any) {
		ok = false
		r.problem("cell %s: "+format, append([]any{id}, args...)...)
	}
	if m.DeliveryRate < 0 || m.DeliveryRate > 1 {
		fail("DeliveryRate %v outside [0, 1]", m.DeliveryRate)
	}
	if m.Distinct > m.Arrivals {
		fail("Distinct %d > Arrivals %d", m.Distinct, m.Arrivals)
	}
	if m.Distinct > m.SegmentsSent {
		fail("Distinct %d > SegmentsSent %d", m.Distinct, m.SegmentsSent)
	}
	if m.EventsRun == 0 {
		fail("no events ran")
	}
	if want := r.models[key.Adversary]; m.AdversaryModel != want {
		fail("AdversaryModel %q, want %q", m.AdversaryModel, want)
	}
	doc, err := json.Marshal(m)
	if err != nil {
		fail("encode RunMetrics: %v", err)
		return ok
	}
	sum := sha256.Sum256(doc)
	d := hex.EncodeToString(sum[:])
	if prev, seen := r.digests[id]; !seen {
		r.digests[id] = d
	} else if prev != d {
		fail("RunMetrics differ from the cell's first run")
	}
	return ok
}

func cellName(k experiment.CellKey) string {
	name := fmt.Sprintf("%s@%gm/s", k.Protocol, k.Speed)
	if k.Adversary != "" {
		name += "/" + k.Adversary
	}
	if k.Countermeasure != "" {
		name += "/" + k.Countermeasure
	}
	return name
}

// digest folds every cell digest, in cell order, into one short hex id.
func (r *runner) digest() string {
	ids := make([]string, 0, len(r.digests))
	for id := range r.digests {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	h := sha256.New()
	for _, id := range ids {
		fmt.Fprintf(h, "%s=%s\n", id, r.digests[id])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// traced makes one untraced repetition for reference, then traced ones
// under a CPU profile until the time box closes, and fills the per-layer
// metrics.
func (r *runner) traced(vals map[string]Value) error {
	start := time.Now()
	base := r.rep(nil)
	tr := &tracer{}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("bench: cpu profile: %w", err)
	}
	var traced []repStats
	for len(traced) == 0 || time.Since(start) < r.o.Seconds {
		traced = append(traced, r.rep(tr))
	}
	pprof.StopCPUProfile()
	p, err := parseProfile(prof.Bytes())
	if err != nil {
		return err
	}
	tr.fill(vals, base, traced, p)
	return nil
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSKiB is the process's peak resident set (Linux reports KiB).
func peakRSSKiB() int64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return ru.Maxrss
}
