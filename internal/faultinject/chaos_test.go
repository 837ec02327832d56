package faultinject

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"mtsim/internal/adversary"
	"mtsim/internal/countermeasure"
	"mtsim/internal/experiment"
	"mtsim/internal/metrics"
	"mtsim/internal/runcache"
	"mtsim/internal/scenario"
	"mtsim/internal/sim"
)

func chaosBase() scenario.Config {
	cfg := scenario.DefaultConfig()
	cfg.Nodes = 20
	cfg.Duration = 5 * sim.Second
	cfg.TCPStart = sim.Time(500 * sim.Millisecond)
	return cfg
}

func chaosSweep() experiment.Sweep {
	return experiment.Sweep{
		Base:      chaosBase(),
		Protocols: []string{"AODV", "MTS"},
		Speeds:    []float64{2, 10},
		Reps:      2,
		SeedBase:  1,
	}
}

// chaosJournal returns the journal the chaos suite writes its attempt
// history to: a file under $CHAOS_JOURNAL_DIR when the CI chaos lane
// sets it (uploaded as a build artifact), an in-memory buffer otherwise.
// The journal is append-mode, so repeated invocations (the chaos lane
// runs the suite plain and again under -race) accumulate one history;
// the read-back closure returns only the lines this invocation wrote.
func chaosJournal(t *testing.T, name string) (*experiment.Journal, func() string) {
	t.Helper()
	if dir := os.Getenv("CHAOS_JOURNAL_DIR"); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		var start int64
		if fi, err := os.Stat(path); err == nil {
			start = fi.Size()
		}
		j, err := experiment.OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { j.Close() })
		return j, func() string {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			return string(data[start:])
		}
	}
	var buf bytes.Buffer
	return experiment.NewJournal(&buf), buf.String
}

// checkUnwoundContexts wraps next so the test fails if a run on a
// context that a panic unwound differs from the same run on a fresh
// context: the engine keeps a worker's context through a panic, so the
// context must hold nothing the panicking run could leave behind.
func checkUnwoundContexts(t *testing.T, next experiment.Runner) experiment.Runner {
	var (
		mu      sync.Mutex
		unwound = map[*scenario.Context]bool{}
	)
	return func(ctx *scenario.Context, cfg scenario.Config, w experiment.Watchdog) (*metrics.RunMetrics, error) {
		mu.Lock()
		reused := unwound[ctx]
		mu.Unlock()
		defer func() {
			if r := recover(); r != nil {
				mu.Lock()
				unwound[ctx] = true
				mu.Unlock()
				panic(r)
			}
		}()
		m, err := next(ctx, cfg, w)
		if reused && err == nil {
			fresh, ferr := experiment.DefaultRunner(scenario.NewContext(), cfg, w)
			got, _ := json.Marshal(m)
			want, _ := json.Marshal(fresh)
			if ferr != nil || string(got) != string(want) {
				t.Errorf("%s speed=%g seed=%d on a context a panic had unwound differs from a fresh context (%v)",
					cfg.Protocol, cfg.MaxSpeed, cfg.Seed, ferr)
			}
		}
		return m, err
	}
}

// TestChaosSweepBitIdentical is the suite's headline property, in two
// passes over one run cache. Pass 1 is a KeepGoing sweep under seeded
// faults at every seam — panicking cells, runs livelocked into the
// watchdog, erroring and torn cache writes: it must record exactly the
// faulted cells, each with its injected kind. Pass 2 is a fault-free
// resume over the bare store: it must aggregate bit-identically to the
// fault-free sweep while re-simulating exactly the cells the faults cost
// (failed cells, failed cache writes, quarantined torn entries).
func TestChaosSweepBitIdentical(t *testing.T) {
	clean, err := chaosSweep().Run()
	if err != nil {
		t.Fatal(err)
	}

	store, err := runcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	flaky := &FlakyCache{
		Store:  store,
		Faults: CacheFaults{Seed: 9, PutErrRate: 0.4, TearRate: 0.4, GetErrRate: 0.3},
	}
	// Plan seed 60 assigns this grid one erroring, one panicking (mid-grid,
	// so its worker runs on afterwards) and one livelocked cell and leaves
	// five healthy; cache seed 9 fails two of their writes and tears two.
	inj := New(Plan{Seed: 60, PanicRate: 0.3, ErrorRate: 0.3, SlowRate: 0.3})
	s := chaosSweep()
	s.Cache = flaky
	s.Runner = checkUnwoundContexts(t, inj.Runner(nil))
	s.KeepGoing = true
	journal, readJournal := chaosJournal(t, "chaos-attempts.jsonl")
	s.Journal = journal

	faulted, err := s.Run()
	if err != nil {
		t.Fatalf("KeepGoing chaos sweep errored: %v", err)
	}
	panics, errs, slows := inj.Counts()
	putErrs, tears, getErrs := flaky.Counts()
	t.Logf("injected: %d panics, %d errors, %d slow runs; cache: %d put errors, %d torn writes, %d read misses",
		panics, errs, slows, putErrs, tears, getErrs)
	if panics == 0 || errs == 0 || slows == 0 || putErrs == 0 || tears == 0 {
		t.Fatal("chaos plan missed a fault kind — re-pick the seeds")
	}

	// Pass 1: exactly the faulted cells failed, each with its own kind.
	if got := len(faulted.Failed); got != panics+errs+slows {
		t.Fatalf("%d failed cells recorded, injector faulted %d: %+v", got, panics+errs+slows, faulted.Failed)
	}
	kinds := map[string]int{}
	for _, f := range faulted.Failed {
		kinds[f.Kind]++
		for _, j := range s.Jobs() {
			if j.Key == f.Key && j.Config.Seed == f.Seed {
				if want := inj.Plan.faultKind(j.Config); f.Kind != want {
					t.Errorf("%+v seed %d failed as %q, injected %q", f.Key, f.Seed, f.Kind, want)
				}
			}
		}
	}
	if kinds[experiment.KindPanic] != panics || kinds[experiment.KindError] != errs || kinds[experiment.KindTimeout] != slows {
		t.Fatalf("failure kinds %v, injected %d/%d/%d", kinds, panics, errs, slows)
	}
	// The journal recorded every faulted cell as a failed run.
	var failedLines, okLines int
	for _, line := range strings.Split(strings.TrimSpace(readJournal()), "\n") {
		var rec experiment.AttemptRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		switch rec.Outcome {
		case "ok", "cache-hit":
			okLines++
		default:
			failedLines++
		}
	}
	total := len(s.Jobs())
	if failedLines != panics+errs+slows || okLines != total-failedLines {
		t.Fatalf("journal shows %d failed and %d successful cells, want %d and %d",
			failedLines, okLines, panics+errs+slows, total-panics-errs-slows)
	}

	// Pass 2: a fault-free resume over the bare store serves every
	// surviving entry, quarantines the torn ones and recomputes the rest.
	resume := chaosSweep()
	resume.Cache = store
	warm, err := resume.Run()
	if err != nil {
		t.Fatal(err)
	}
	if want := len(faulted.Failed) + putErrs + tears; warm.CacheMisses != want {
		t.Fatalf("resume missed %d cells, want %d (%d failed + %d unwritten + %d torn)",
			warm.CacheMisses, want, len(faulted.Failed), putErrs, tears)
	}
	if h := store.Health(); h.Quarantined != tears {
		t.Fatalf("quarantined %d entries, injected %d torn writes (health %+v)", h.Quarantined, tears, h)
	}
	for _, fig := range experiment.PaperFigures() {
		if clean.Table(fig) != warm.Table(fig) {
			t.Fatalf("%s: resumed sweep differs from fault-free sweep\nclean:\n%s\nresumed:\n%s",
				fig.ID, clean.Table(fig), warm.Table(fig))
		}
		if clean.CSV(fig) != warm.CSV(fig) {
			t.Fatalf("%s: resumed CSV differs", fig.ID)
		}
	}
}

// TestRetryBitIdentical: whatever an injected fault does to a cell, the
// cell's re-run is bit-identical to a run that was never faulted, and the
// fault costs its worker nothing. The re-run is a fault-free resume over
// the run cache, which holds nothing for the faulted cell; meanwhile the
// healthy cell that follows on the same worker is byte-identical to a
// standalone run.
func TestRetryBitIdentical(t *testing.T) {
	standalone := map[int64]string{}
	for _, seed := range []int64{3, 4} {
		cfg := chaosBase()
		cfg.Protocol = "MTS"
		cfg.MaxSpeed = 10
		cfg.Seed = seed
		m, err := scenario.RunOne(cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(m)
		standalone[seed] = string(b)
	}
	grid := func(store *runcache.Store) experiment.Sweep {
		return experiment.Sweep{
			Base:        chaosBase(),
			Protocols:   []string{"MTS"},
			Speeds:      []float64{10},
			Reps:        2,
			SeedBase:    3,
			Parallelism: 1,
			Cache:       store,
		}
	}

	for _, plan := range []Plan{
		{Seed: 1, ErrorRate: 1},
		{Seed: 1, PanicRate: 1},
		{Seed: 1, SlowRate: 1, SlowEvents: 8},
	} {
		store, err := runcache.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		// Only seed 3 goes through the injector; seed 4 runs on the same
		// worker right after it.
		inj := New(plan)
		faulty := inj.Runner(nil)
		s := grid(store)
		s.KeepGoing = true
		s.Runner = func(ctx *scenario.Context, cfg scenario.Config, w experiment.Watchdog) (*metrics.RunMetrics, error) {
			if cfg.Seed == 3 {
				return faulty(ctx, cfg, w)
			}
			return experiment.DefaultRunner(ctx, cfg, w)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatalf("plan %+v: KeepGoing sweep errored: %v", plan, err)
		}
		if panics, errs, slows := inj.Counts(); panics+errs+slows != 1 {
			t.Fatalf("plan %+v: injected %d faults, want 1", plan, panics+errs+slows)
		}
		if len(res.Failed) != 1 || res.Failed[0].Seed != 3 || res.Failed[0].Kind != plan.faultKind(s.Jobs()[0].Config) {
			t.Fatalf("plan %+v: failed cells %+v, want seed 3 with the injected kind", plan, res.Failed)
		}
		runs := res.Runs[experiment.CellKey{Protocol: "MTS", Speed: 10}]
		if len(runs) != 1 {
			t.Fatalf("plan %+v: %d runs retained, want 1", plan, len(runs))
		}
		if g, _ := json.Marshal(runs[0]); string(g) != standalone[4] {
			t.Fatalf("plan %+v: cell after the fault differs from a standalone run\nwant: %s\ngot:  %s",
				plan, standalone[4], g)
		}

		resumed, err := grid(store).Run()
		if err != nil {
			t.Fatalf("plan %+v: resume failed: %v", plan, err)
		}
		if resumed.CacheMisses != 1 {
			t.Fatalf("plan %+v: resume simulated %d cells, want only the faulted one", plan, resumed.CacheMisses)
		}
		for i, m := range resumed.Runs[experiment.CellKey{Protocol: "MTS", Speed: 10}] {
			if g, _ := json.Marshal(m); string(g) != standalone[int64(3+i)] {
				t.Fatalf("plan %+v: resumed seed %d differs from a never-faulted run\nwant: %s\ngot:  %s",
					plan, 3+i, standalone[int64(3+i)], g)
			}
		}
	}
}

// TestChaosWithoutRetriesRecordsFailures: with no retries each injected
// fault is exactly one Result.Failed entry whose kind matches what was
// injected — the graceful-degradation path under runner chaos alone,
// under a different chaos seed from the headline two-pass test.
func TestChaosWithoutRetriesRecordsFailures(t *testing.T) {
	inj := New(Plan{Seed: 7, PanicRate: 0.3, ErrorRate: 0.3, SlowRate: 0.3})
	s := chaosSweep()
	s.Runner = inj.Runner(nil)
	s.KeepGoing = true
	res, err := s.Run()
	if err != nil {
		t.Fatalf("KeepGoing chaos sweep errored: %v", err)
	}
	panics, errs, slows := inj.Counts()
	if panics+errs+slows == 0 {
		t.Fatal("chaos plan injected no faults — re-pick the seed")
	}
	if got := len(res.Failed); got != panics+errs+slows {
		t.Fatalf("%d failed cells recorded, injector faulted %d", got, panics+errs+slows)
	}
	kinds := map[string]int{}
	for _, f := range res.Failed {
		kinds[f.Kind]++
	}
	if kinds[experiment.KindPanic] != panics || kinds[experiment.KindError] != errs || kinds[experiment.KindTimeout] != slows {
		t.Fatalf("failure kinds %v, injected %d/%d/%d", kinds, panics, errs, slows)
	}
}

// TestFaultSelectionDeterministic: the same plan faults the same cells
// with the same kinds, run after run — chaos is reproducible by seed.
func TestFaultSelectionDeterministic(t *testing.T) {
	p := Plan{Seed: 42, PanicRate: 0.3, ErrorRate: 0.3, SlowRate: 0.3}
	var kinds []string
	for round := 0; round < 2; round++ {
		var got []string
		for seed := int64(1); seed <= 16; seed++ {
			cfg := chaosBase()
			cfg.Protocol = "MTS"
			cfg.MaxSpeed = 10
			cfg.Seed = seed
			got = append(got, p.faultKind(cfg))
		}
		if round == 0 {
			kinds = got
			continue
		}
		if strings.Join(got, ",") != strings.Join(kinds, ",") {
			t.Fatalf("fault selection drifted between rounds:\n%v\n%v", kinds, got)
		}
	}
	other := Plan{Seed: 43, PanicRate: 0.3, ErrorRate: 0.3, SlowRate: 0.3}
	var differs bool
	for seed := int64(1); seed <= 16; seed++ {
		cfg := chaosBase()
		cfg.Protocol = "MTS"
		cfg.MaxSpeed = 10
		cfg.Seed = seed
		if other.faultKind(cfg) != kinds[seed-1] {
			differs = true
		}
	}
	if !differs {
		t.Fatal("different chaos seeds selected identical faults for 16 cells")
	}
}

// chaosGame is the co-evolution loop over the chaos grid: two
// route-discovery attackers against the defence built for them, small
// enough that two full games stay in chaos-lane budget.
func chaosGame() experiment.Coevolution {
	return experiment.Coevolution{
		Base:     chaosBase(),
		Protocol: "MTS",
		Speed:    10,
		Attackers: []adversary.Spec{
			{Model: adversary.ModelEavesdropper},
			{Model: adversary.ModelWormhole},
		},
		Defenders: []countermeasure.Spec{
			{},
			{Model: countermeasure.ModelTrust},
		},
		Reps:     1,
		SeedBase: 3,
	}
}

// TestChaosCoevolutionBitIdentical extends the headline property to the
// attacker–defender loop: a game whose cell evaluations panic, error and
// tear cache writes under seeded chaos fails, and a fault-free game over
// the same store then converges to the same equilibrium with a
// byte-identical payoff table, CSV and move history as the fault-free
// game — the best-response scan never sees a faulted number because
// failed cells are never cached and the cache degrades instead of lying.
func TestChaosCoevolutionBitIdentical(t *testing.T) {
	clean, err := chaosGame().Run()
	if err != nil {
		t.Fatal(err)
	}
	if !clean.Converged {
		t.Fatalf("fault-free game did not converge:\n%s", clean.PayoffTable())
	}

	store, err := runcache.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	flaky := &FlakyCache{
		Store:  store,
		Faults: CacheFaults{Seed: 31, PutErrRate: 0.4, TearRate: 0.4, GetErrRate: 0.3},
	}
	// Plan seed 36 lets the first move's row finish (cache seed 31 fails
	// and tears some of its writes) and errors a cell of the defender's
	// move.
	inj := New(Plan{Seed: 36, PanicRate: 0.35, ErrorRate: 0.35, SlowRate: 0.3})
	g := chaosGame()
	g.Cache = flaky
	g.Runner = checkUnwoundContexts(t, inj.Runner(nil))
	if _, err := g.Run(); err == nil {
		t.Fatal("chaos game succeeded despite faulted cells")
	} else if !strings.Contains(err.Error(), "faultinject: injected") && !strings.Contains(err.Error(), "watchdog") {
		t.Fatalf("chaos game failed for a reason it did not inject: %v", err)
	}
	panics, errs, slows := inj.Counts()
	putErrs, tears, getErrs := flaky.Counts()
	t.Logf("injected: %d panics, %d errors, %d slow runs; cache: %d put errors, %d torn writes, %d read misses",
		panics, errs, slows, putErrs, tears, getErrs)
	if putErrs == 0 || tears == 0 {
		t.Fatal("cache chaos missed the cells the faulted game finished — re-pick the seed")
	}

	resume := chaosGame()
	resume.Cache = store
	resumed, err := resume.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := resumed.PayoffTable(), clean.PayoffTable(); got != want {
		t.Errorf("resumed game's payoff table differs from the fault-free game\nclean:\n%s\nresumed:\n%s", want, got)
	}
	if got, want := resumed.PayoffCSV(), clean.PayoffCSV(); got != want {
		t.Errorf("resumed game's payoff CSV differs from the fault-free game")
	}
	if got, want := resumed.History(), clean.History(); got != want {
		t.Errorf("resumed game's move history differs\nclean:\n%s\nresumed:\n%s", want, got)
	}
	if resumed.Attacker != clean.Attacker || resumed.Defender != clean.Defender {
		t.Errorf("resumed equilibrium (%d,%d) differs from clean (%d,%d)",
			resumed.Attacker, resumed.Defender, clean.Attacker, clean.Defender)
	}
	// Every torn cell reaches the quarantine once, whether the faulted
	// game or the resume read it.
	if h := store.Health(); h.Quarantined != tears {
		t.Fatalf("quarantined %d entries, injected %d torn writes (health %+v)", h.Quarantined, tears, h)
	}
}
