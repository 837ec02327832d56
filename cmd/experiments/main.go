// Command experiments regenerates the paper's complete evaluation —
// Table I and Figs. 5–11 — and writes the aggregated tables and CSV series
// to a results directory.
//
// The full reproduction (the paper's 200 s × 5 repetitions):
//
//	experiments -out results
//
// A quick pass for smoke-testing the pipeline:
//
//	experiments -duration 30 -reps 2 -out /tmp/results
//
// Single artefacts:
//
//	experiments -only fig7
//	experiments -only table1
//
// The adversary sweep (threat model × k, beyond the paper's lone
// eavesdropper; see internal/adversary):
//
//	experiments -only adversary -ks 1,2,4 -duration 30 -reps 2
//
// The defender-vs-attacker grid (countermeasure × adversary at one speed;
// see internal/countermeasure — data shuffling and adversary-aware MTS
// against coalitions of taps):
//
//	experiments -only countermeasure -cms none,shuffle -ks 1,2 -duration 30 -reps 2
//
// Cached and resumable sweeps (see internal/runcache): with -cache-dir,
// every completed run is persisted under a content address of its full
// configuration and seed, so re-running any sweep serves identical cells
// from disk without simulating, and a killed sweep picks up where it left
// off:
//
//	experiments -out results -cache-dir .mtsim-cache            # cold: simulates and fills the cache
//	experiments -out results -cache-dir .mtsim-cache            # warm: zero simulations, identical output
//	experiments -out results -cache-dir .mtsim-cache -resume    # same, stating the intent after an interruption
//
// The cache applies to the sweep artefacts (figures, adversary grids);
// -only table1 and -only timeseries are single runs and always execute.
//
// Fault-tolerant sweeps (see internal/experiment): -keep-going completes
// the healthy grid and records failed cells instead of cancelling on the
// first failure (exit status 3, with a failed-cell summary on stderr, if
// any cell failed); -run-timeout and -run-events arm the per-run watchdog
// against hung and livelocked simulations; -journal appends one JSONL
// record per simulated cell and cache hit. A failed cell is not retried
// in place — the simulator is deterministic, so it would fail the same
// way again. Failed cells are never cached, so once the cause is dealt
// with, -resume over the same cache simulates exactly the missing cells:
//
//	experiments -keep-going -run-timeout 5m -journal attempts.jsonl -cache-dir .mtsim-cache -out results
//	experiments -resume -journal attempts.jsonl -cache-dir .mtsim-cache -out results
//
// -keep-going does not apply to -only coevolution, which is rejected: a
// best response computed from a payoff with missing repetitions would
// steer the game. A failed game is resumed the same way, with -resume.
//
// Profiling: -profile-dir writes a CPU profile of the whole invocation
// (all sweep workers) to <dir>/cpu.pprof for `go tool pprof`, so a slow
// grid ships its own perf artifact:
//
//	experiments -out results -profile-dir results/pprof
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"mtsim"
)

func main() {
	var (
		duration  = flag.Float64("duration", 200, "simulated seconds per run")
		reps      = flag.Int("reps", 5, "repetitions per (protocol, speed) cell")
		speeds    = flag.String("speeds", "2,5,10,15,20", "comma-separated MAXSPEED values (m/s)")
		protocols = flag.String("protocols", "DSR,AODV,MTS", "comma-separated protocols")
		nodes     = flag.Int("nodes", 50, "number of nodes")
		seedBase  = flag.Int64("seedbase", 1, "first seed; repetition r uses seedbase+r")
		parallel  = flag.Int("parallel", 0, "concurrent simulations (0 = GOMAXPROCS)")
		only      = flag.String("only", "all", "what to produce: all, table1, timeseries, adversary, countermeasure, fig5..fig11")
		outDir    = flag.String("out", "", "directory for CSV/markdown output (empty = stdout only)")
		quiet     = flag.Bool("q", false, "suppress progress output")
		advModels = flag.String("advmodels", "coalition,mobile,blackhole,grayhole",
			"comma-separated adversary models for -only adversary")
		advKs = flag.String("ks", "1,2,4", "comma-separated coalition sizes k for -only adversary/countermeasure")
		cms   = flag.String("cms", "none,shuffle,aware,shuffle+aware",
			"comma-separated countermeasure models for -only countermeasure")
		cmAdvModels = flag.String("cm-advmodels", "coalition",
			"comma-separated adversary models crossed against -cms for -only countermeasure")
		cmSpeed = flag.Float64("cm-speed", 10,
			"MAXSPEED (m/s) at which the -only countermeasure tables are rendered")
		coevAttackers = flag.String("coev-attackers", "eavesdropper,adaptive,wormhole,rushing",
			"comma-separated adversary models forming the attacker strategy set for -only coevolution (first entry is the opening strategy)")
		coevDefenders = flag.String("coev-defenders", "none,shuffle,trust",
			"comma-separated countermeasure models forming the defender strategy set for -only coevolution (first entry is the opening strategy)")
		coevRounds = flag.Int("coev-rounds", 8,
			"best-response round limit for -only coevolution")
		cacheDir = flag.String("cache-dir", "",
			"content-addressed run cache directory: sweep cells already cached are served without simulating, newly computed cells are persisted (empty = no cache)")
		noCache = flag.Bool("no-cache", false,
			"bypass -cache-dir entirely: every cell is recomputed and nothing is read from or written to the cache")
		resume = flag.Bool("resume", false,
			"resume an interrupted sweep from -cache-dir (asserts a cache is in use; completed cells are never recomputed)")
		keepGoing = flag.Bool("keep-going", false,
			"complete the healthy grid and record failed cells instead of cancelling the sweep on the first failure; exit status 3 if any cell failed (re-simulate them with -resume)")
		runTimeout = flag.Duration("run-timeout", 0,
			"wall-clock watchdog per run (e.g. 5m): hung runs are killed cleanly and count as failed cells (0 = unlimited)")
		runEvents = flag.Uint64("run-events", 0,
			"simulated-event watchdog budget per run: livelocked runs are killed cleanly (0 = unlimited)")
		journalPath = flag.String("journal", "",
			"append one JSONL record per simulated cell (successes and failures) and per cache hit to this file")
		profileDir = flag.String("profile-dir", "",
			"write a CPU profile of the whole invocation to <dir>/cpu.pprof (inspect with `go tool pprof`); covers the sweep workers, so long grids emit their own perf artifact")
	)
	flag.Parse()

	// Validate -only before any simulation: a typo like "fig12" must be
	// a fast, loud failure, not a full sweep that renders nothing.
	fail(validateOnly(*only))
	if *keepGoing && *only == "coevolution" {
		fail(fmt.Errorf("-keep-going does not apply to -only coevolution (a payoff missing repetitions would steer the game); re-run a failed game with -cache-dir and -resume to simulate only its missing cells"))
	}

	if *profileDir != "" {
		fail(startCPUProfile(*profileDir))
		defer stopCPUProfile()
	}

	if *resume && (*cacheDir == "" || *noCache) {
		fail(fmt.Errorf("-resume needs -cache-dir (and is incompatible with -no-cache): resumption works by serving completed cells from the cache"))
	}

	base := mtsim.DefaultConfig()
	base.Nodes = *nodes
	base.Duration = mtsim.Seconds(*duration)

	if *only == "table1" {
		out, err := mtsim.Table1(base, *seedBase)
		fail(err)
		fmt.Print(out)
		writeFile(*outDir, "table1.txt", out)
		return
	}

	if *only == "timeseries" {
		// Throughput over simulation time, one series per protocol (the
		// Fig. 9 caption's view), at MAXSPEED 10 m/s.
		var csv strings.Builder
		csv.WriteString("t_s")
		var series [][]mtsim.Sample
		protos := splitList(*protocols)
		for _, proto := range protos {
			cfg := base
			cfg.Protocol = proto
			cfg.MaxSpeed = 10
			cfg.Seed = *seedBase
			s, err := mtsim.Build(cfg)
			fail(err)
			ser, _ := s.RunSampled(10 * mtsim.Second)
			series = append(series, ser)
			csv.WriteString("," + proto + "_pps")
		}
		csv.WriteString("\n")
		for i := range series[0] {
			fmt.Fprintf(&csv, "%.0f", series[0][i].At.Seconds())
			for p := range series {
				fmt.Fprintf(&csv, ",%.2f", series[p][i].ThroughputPps)
			}
			csv.WriteString("\n")
		}
		fmt.Print(csv.String())
		writeFile(*outDir, "fig9_timeseries.csv", csv.String())
		return
	}

	sweep := mtsim.PaperSweep(base)
	sweep.Reps = *reps
	sweep.SeedBase = *seedBase
	sweep.Parallelism = *parallel
	sweep.Protocols = splitList(*protocols)
	sweep.Speeds = parseSpeeds(*speeds)
	var cache *mtsim.RunCache
	if *cacheDir != "" && !*noCache {
		var err error
		cache, err = mtsim.OpenRunCache(*cacheDir)
		fail(err)
		sweep.Cache = cache
	}
	sweep.KeepGoing = *keepGoing
	sweep.Watchdog = mtsim.Watchdog{MaxEvents: *runEvents, WallClock: *runTimeout}
	if *journalPath != "" {
		j, err := mtsim.OpenJournal(*journalPath)
		fail(err)
		sweep.Journal = j
	}

	if *only == "coevolution" {
		// Iterated best response over the attacker × defender strategy
		// sets at a single protocol and speed; the sweep's cache, watchdog
		// and journal plumbing carries over to every evaluation sweep.
		coev := mtsim.Coevolution{
			Base:        base,
			Speed:       *cmSpeed,
			Reps:        *reps,
			SeedBase:    *seedBase,
			MaxRounds:   *coevRounds,
			Parallelism: *parallel,
			Cache:       sweep.Cache,
			Watchdog:    sweep.Watchdog,
			Journal:     sweep.Journal,
		}
		for _, model := range splitList(*coevAttackers) {
			coev.Attackers = append(coev.Attackers, mtsim.AdversarySpec{Model: model})
		}
		for _, model := range splitList(*coevDefenders) {
			coev.Defenders = append(coev.Defenders, mtsim.CountermeasureSpec{Model: model})
		}
		start := time.Now()
		cres, err := coev.Run()
		closeJournal(sweep.Journal)
		fail(err)
		if !*quiet {
			fmt.Fprintf(os.Stderr, "coevolution finished in %v\n\n",
				time.Since(start).Round(time.Millisecond))
		}
		out := cres.PayoffTable() + "\n" + cres.History()
		fmt.Print(out)
		writeFile(*outDir, "coevolution.txt", out)
		writeFile(*outDir, "coevolution_payoffs.csv", cres.PayoffCSV())
		return
	}

	if *only == "adversary" {
		// Threat-model axis: every requested model at every coalition
		// size k, on top of the protocol × speed grid.
		for _, model := range splitList(*advModels) {
			for _, ks := range splitList(*advKs) {
				k, err := strconv.Atoi(ks)
				fail(err)
				sweep.Adversaries = append(sweep.Adversaries,
					mtsim.AdversarySpec{Model: model, K: k})
			}
		}
	}

	if *only == "countermeasure" {
		// Defender × attacker grid: every requested countermeasure against
		// every requested adversary (model × k), at the single -cm-speed
		// (the grid is already three axes deep; the speed sweep belongs to
		// the paper figures).
		sweep.Speeds = []float64{*cmSpeed}
		for _, model := range splitList(*cmAdvModels) {
			for _, ks := range splitList(*advKs) {
				k, err := strconv.Atoi(ks)
				fail(err)
				sweep.Adversaries = append(sweep.Adversaries,
					mtsim.AdversarySpec{Model: model, K: k})
			}
		}
		for _, model := range splitList(*cms) {
			sweep.Countermeasures = append(sweep.Countermeasures,
				mtsim.CountermeasureSpec{Model: model})
		}
	}

	total := len(sweep.Jobs())
	if !*quiet {
		fmt.Fprintf(os.Stderr, "running %d simulations (%s × %v m/s × %d reps, %.0fs each)...\n",
			total, *protocols, sweep.Speeds, sweep.Reps, *duration)
		// Workers finish cells concurrently; counting and printing under
		// one lock keeps the progress line monotone.
		var progress sync.Mutex
		done := 0
		sweep.OnRun = func(m *mtsim.Metrics) {
			progress.Lock()
			defer progress.Unlock()
			done++
			fmt.Fprintf(os.Stderr, "\r%3d/%d done", done, total)
		}
	}

	start := time.Now()
	res, err := sweep.Run()
	if err != nil {
		// The non-KeepGoing first-error exit bypasses conclude();
		// flush the journal here so the attempt log survives the crash
		// it just recorded.
		closeJournal(sweep.Journal)
		fail(err)
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "\rsweep finished in %v", time.Since(start).Round(time.Millisecond))
		if sweep.Cache != nil {
			fmt.Fprintf(os.Stderr, " — cache: %d hits, %d misses (%s)",
				res.CacheHits, res.CacheMisses, *cacheDir)
		}
		fmt.Fprintln(os.Stderr)
		fmt.Fprintln(os.Stderr)
	}
	if res.CachePutErrs > 0 {
		// An error signal, not progress output: never silenced by -q. A
		// sweep whose results failed to checkpoint will recompute them on
		// resume.
		fmt.Fprintf(os.Stderr, "warning: %d results could not be written to the cache", res.CachePutErrs)
		if res.CacheFirstPutErr != nil {
			fmt.Fprintf(os.Stderr, " (first: %v)", res.CacheFirstPutErr)
		}
		fmt.Fprintln(os.Stderr)
	}
	if cache != nil {
		if h := cache.Health(); h != (mtsim.CacheHealth{}) {
			fmt.Fprintf(os.Stderr, "warning: cache degraded: %d corrupt entries quarantined (under %s/quarantine), %d erroring reads, %d stale-version misses\n",
				h.Quarantined, *cacheDir, h.DegradedReads, h.StaleMisses)
		}
	}
	// conclude runs after the artefacts are rendered: a sweep that lost
	// cells prints the post-mortem summary on stderr and exits non-zero so
	// scripts and CI notice the degraded results.
	conclude := func() {
		closeJournal(sweep.Journal)
		if len(res.Failed) == 0 {
			return
		}
		fmt.Fprintln(os.Stderr)
		fmt.Fprint(os.Stderr, res.FailedSummary())
		fmt.Fprintf(os.Stderr, "results above are degraded: %d runs failed; with -cache-dir, -resume re-simulates only them\n", len(res.Failed))
		stopCPUProfile() // os.Exit skips defers; flush the profile first
		os.Exit(3)
	}

	if *only == "countermeasure" {
		// One defence-vs-metric table per figure and adversary: rows are
		// countermeasures, columns protocols — the defender-vs-attacker
		// grid (how much each defence claws back from each threat model).
		figs := mtsim.CountermeasureFigures()
		if ri, ok := mtsim.FigureByID("advRi"); ok {
			figs = append(figs, ri)
		}
		if dv, ok := mtsim.FigureByID("advDeliv"); ok {
			figs = append(figs, dv)
		}
		var md strings.Builder
		for _, fig := range figs {
			// The engine's canonical labels, not Spec.Label(): colliding
			// specs get "#n" suffixes and must render as distinct cells.
			for _, advLabel := range sweep.AdversaryLabels() {
				at := mtsim.CellKey{Speed: *cmSpeed, Adversary: advLabel}
				table := res.AxisTable(fig, mtsim.ByCountermeasure, at)
				fmt.Println(table)
				md.WriteString(table)
				md.WriteString("\n")
				writeFile(*outDir, fmt.Sprintf("%s_%s.csv", fig.ID, advLabel),
					res.AxisCSV(fig, mtsim.ByCountermeasure, at))
			}
			fmt.Println("expect:", fig.Expect)
			fmt.Println()
		}
		writeFile(*outDir, "countermeasure.txt", md.String())
		conclude()
		return
	}

	if *only == "adversary" {
		// One Ri-vs-adversary table per metric and speed, alongside the
		// paper's per-speed figures.
		var md strings.Builder
		for _, fig := range mtsim.AdversaryFigures() {
			for _, v := range sweep.Speeds {
				at := mtsim.CellKey{Speed: v}
				table := res.AxisTable(fig, mtsim.ByAdversary, at)
				fmt.Println(table)
				md.WriteString(table)
				md.WriteString("\n")
				writeFile(*outDir, fmt.Sprintf("%s_speed%g.csv", fig.ID, v),
					res.AxisCSV(fig, mtsim.ByAdversary, at))
			}
			fmt.Println("expect:", fig.Expect)
			fmt.Println()
		}
		writeFile(*outDir, "adversary.txt", md.String())
		conclude()
		return
	}

	var md strings.Builder
	for _, fig := range mtsim.PaperFigures() {
		if *only != "all" && *only != fig.ID {
			continue
		}
		table := res.Table(fig)
		fmt.Println(table)
		fmt.Println("paper:", fig.Expect)
		fmt.Println()
		md.WriteString(table)
		md.WriteString("paper: " + fig.Expect + "\n\n")
		writeFile(*outDir, fig.ID+".csv", res.CSV(fig))
	}
	if *only == "all" {
		out, err := mtsim.Table1(base, *seedBase)
		fail(err)
		fmt.Print(out)
		writeFile(*outDir, "table1.txt", out)
		writeFile(*outDir, "figures.txt", md.String())
	}
	conclude()
}

// closeJournal flushes the -journal file on every exit that wrote to it.
// A journal that lost records misleads the post-mortem it exists for, so
// the first failed write (or a failed close) is a warning on stderr,
// never silenced by -q; it does not change the exit status.
func closeJournal(j *mtsim.Journal) {
	if j == nil {
		return
	}
	err := j.Err()
	if cerr := j.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "warning: journal incomplete: %d records written; first failure: %v\n", j.Records(), err)
	}
}

// validateOnly rejects unknown -only values before anything simulates.
func validateOnly(only string) error {
	valid := []string{"all", "table1", "timeseries", "adversary", "countermeasure", "coevolution"}
	for _, fig := range mtsim.PaperFigures() {
		valid = append(valid, fig.ID)
	}
	for _, v := range valid {
		if only == v {
			return nil
		}
	}
	return fmt.Errorf("-only %q is not a known artefact; valid values: %s",
		only, strings.Join(valid, ", "))
}

func splitList(s string) []string {
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseSpeeds(s string) []float64 {
	var out []float64
	for _, p := range splitList(s) {
		v, err := strconv.ParseFloat(p, 64)
		fail(err)
		out = append(out, v)
	}
	return out
}

func writeFile(dir, name, content string) {
	if dir == "" {
		return
	}
	fail(os.MkdirAll(dir, 0o755))
	fail(os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644))
}

func fail(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		stopCPUProfile() // os.Exit skips defers; flush the profile first
		os.Exit(1)
	}
}

// profileStop flushes and closes the -profile-dir CPU profile exactly
// once; nil when profiling is off.
var profileStop func()

// startCPUProfile begins a whole-process CPU profile under dir. The
// profile is closed by stopCPUProfile, which every exit path calls
// (directly before os.Exit, or via main's defer).
func startCPUProfile(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	var once sync.Once
	profileStop = func() {
		once.Do(func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: closing cpu profile:", err)
				return
			}
			fmt.Fprintf(os.Stderr, "cpu profile written to %s\n", path)
		})
	}
	return nil
}

func stopCPUProfile() {
	if profileStop != nil {
		profileStop()
	}
}
