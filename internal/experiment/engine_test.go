package experiment

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mtsim/internal/adversary"
	"mtsim/internal/metrics"
	"mtsim/internal/packet"
	"mtsim/internal/runcache"
	"mtsim/internal/scenario"
)

func cachedSweep(t *testing.T, dir string) Sweep {
	t.Helper()
	store, err := runcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return Sweep{
		Base:      quickBase(),
		Protocols: []string{"AODV", "MTS"},
		Speeds:    []float64{2, 10},
		Reps:      2,
		SeedBase:  1,
		Cache:     store,
	}
}

// TestSweepWarmCacheRunsNothing is the headline cache guarantee: the
// second identical sweep simulates zero cells, and its Result — every
// retained run, every rendered table — is byte-identical to the cold one.
func TestSweepWarmCacheRunsNothing(t *testing.T) {
	dir := t.TempDir()
	s := cachedSweep(t, dir)
	cold, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	total := len(s.Protocols) * len(s.Speeds) * s.Reps
	if cold.CacheHits != 0 || cold.CacheMisses != total {
		t.Fatalf("cold run: hits=%d misses=%d, want 0/%d", cold.CacheHits, cold.CacheMisses, total)
	}
	if cold.CachePutErrs != 0 {
		t.Fatalf("cold run failed %d cache writes", cold.CachePutErrs)
	}

	s2 := cachedSweep(t, dir)
	var simulated int64
	s2.OnRun = func(*metrics.RunMetrics) { atomic.AddInt64(&simulated, 1) }
	warm, err := s2.Run()
	if err != nil {
		t.Fatal(err)
	}
	if warm.CacheHits != total || warm.CacheMisses != 0 {
		t.Fatalf("warm run: hits=%d misses=%d, want %d/0", warm.CacheHits, warm.CacheMisses, total)
	}
	// OnRun still fires for every cell (progress contract), just without
	// simulating.
	if simulated != int64(total) {
		t.Fatalf("OnRun fired %d times, want %d", simulated, total)
	}

	for key, runs := range cold.Runs {
		wruns := warm.Runs[key]
		if len(wruns) != len(runs) {
			t.Fatalf("cell %v: %d cold vs %d warm runs", key, len(runs), len(wruns))
		}
		for i := range runs {
			want, _ := json.Marshal(runs[i])
			got, _ := json.Marshal(wruns[i])
			if string(want) != string(got) {
				t.Fatalf("cell %v rep %d: cached metrics differ\ncold: %s\nwarm: %s",
					key, i, want, got)
			}
		}
	}
	for _, fig := range allFigures() {
		if cold.Table(fig) != warm.Table(fig) {
			t.Fatalf("%s: warm table differs\ncold:\n%s\nwarm:\n%s",
				fig.ID, cold.Table(fig), warm.Table(fig))
		}
		if cold.CSV(fig) != warm.CSV(fig) {
			t.Fatalf("%s: warm CSV differs", fig.ID)
		}
	}
}

// rendezvousCache holds every Get until a second Get is in flight, so a
// sweep that probes its cells one at a time stalls on the first probe;
// after rendezvousTimeout it records the stall and lets every probe through.
type rendezvousCache struct {
	Cache
	inFlight atomic.Int32
	met      chan struct{}
	once     sync.Once
	timedOut atomic.Bool
}

const rendezvousTimeout = 5 * time.Second

func (c *rendezvousCache) Get(cfg scenario.Config) (*metrics.RunMetrics, bool) {
	defer c.inFlight.Add(-1)
	if c.inFlight.Add(1) >= 2 {
		c.once.Do(func() { close(c.met) })
	}
	select {
	case <-c.met:
	case <-time.After(rendezvousTimeout):
		c.timedOut.Store(true)
		c.once.Do(func() { close(c.met) })
	}
	return c.Cache.Get(cfg)
}

// requireHitJournal checks that the journal holds exactly one attempt-0
// cache-hit record per cell of the sweep. Workers journal in completion
// order, so records and cells are compared as multisets.
func requireHitJournal(t *testing.T, s Sweep, journal []byte) {
	t.Helper()
	type cell struct {
		key  CellKey
		seed int64
	}
	want := map[cell]int{}
	for _, cj := range s.Jobs() {
		want[cell{cj.Key, cj.Config.Seed}]++
	}
	got := map[cell]int{}
	for _, line := range strings.Split(strings.TrimSpace(string(journal)), "\n") {
		var rec AttemptRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("journal line %q: %v", line, err)
		}
		if rec.Outcome != "cache-hit" {
			t.Fatalf("warm-cache journal record %+v, want a cache-hit", rec)
		}
		key := CellKey{rec.Protocol, rec.Speed, rec.Adversary, rec.Countermeasure}
		got[cell{key, rec.Seed}]++
	}
	if len(got) != len(want) {
		t.Fatalf("journal covers %d cells, want %d", len(got), len(want))
	}
	for c, n := range want {
		if got[c] != n {
			t.Fatalf("cell %+v seed %d journalled %d times, want %d", c.key, c.seed, got[c], n)
		}
	}
}

// TestWarmSweepProbesOnEveryWorker: cache probes run on the workers, not
// serially ahead of them, so at Parallelism 2 two probes are in flight at
// once; at Parallelism 1 the same warm sweep is still served wholly from
// the cache.
func TestWarmSweepProbesOnEveryWorker(t *testing.T) {
	dir := t.TempDir()
	cold := cachedSweep(t, dir)
	if _, err := cold.Run(); err != nil {
		t.Fatal(err)
	}
	total := len(cold.Jobs())

	for _, par := range []int{2, 1} {
		s := cachedSweep(t, dir)
		s.Parallelism = par
		var rc *rendezvousCache
		if par == 2 {
			rc = &rendezvousCache{Cache: s.Cache, met: make(chan struct{})}
			s.Cache = rc
		}
		var journal bytes.Buffer
		s.Journal = NewJournal(&journal)
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if rc != nil && rc.timedOut.Load() {
			t.Fatalf("Parallelism 2: no second probe joined the first within %v — probes are serial",
				rendezvousTimeout)
		}
		if res.CacheHits != total || res.CacheMisses != 0 {
			t.Fatalf("Parallelism %d: hits=%d misses=%d, want %d/0", par, res.CacheHits, res.CacheMisses, total)
		}
		requireHitJournal(t, s, journal.Bytes())
	}
}

// TestSweepResumesFromPartialCache models an interrupted sweep: a smaller
// sweep fills part of the grid, then the full sweep only simulates the
// remainder (the unit of checkpointing is the completed run).
func TestSweepResumesFromPartialCache(t *testing.T) {
	dir := t.TempDir()
	partial := cachedSweep(t, dir)
	partial.Speeds = []float64{2} // "killed" after the first speed column
	if _, err := partial.Run(); err != nil {
		t.Fatal(err)
	}

	full := cachedSweep(t, dir)
	res, err := full.Run()
	if err != nil {
		t.Fatal(err)
	}
	done := len(full.Protocols) * 1 * full.Reps
	total := len(full.Protocols) * len(full.Speeds) * full.Reps
	if res.CacheHits != done || res.CacheMisses != total-done {
		t.Fatalf("resume: hits=%d misses=%d, want %d/%d", res.CacheHits, res.CacheMisses, done, total-done)
	}
	// And the resumed result matches a cache-less run exactly.
	plain := cachedSweep(t, t.TempDir())
	plain.Cache = nil
	want, err := plain.Run()
	if err != nil {
		t.Fatal(err)
	}
	for key, runs := range want.Runs {
		for i := range runs {
			w, _ := json.Marshal(runs[i])
			g, _ := json.Marshal(res.Runs[key][i])
			if string(w) != string(g) {
				t.Fatalf("cell %v rep %d: resumed sweep differs from plain sweep", key, i)
			}
		}
	}
}

// TestSweepCancelsOnFirstError: a failing cell must cancel the rest of the
// grid (not silently run it) and surface its cell attribution.
func TestSweepCancelsOnFirstError(t *testing.T) {
	s := Sweep{
		Base:        quickBase(),
		Protocols:   []string{"BOGUS", "MTS"}, // the bad protocol fails first
		Speeds:      []float64{2, 5, 10, 15, 20},
		Reps:        4,
		SeedBase:    1,
		Parallelism: 2,
	}
	var ran int64
	s.OnRun = func(*metrics.RunMetrics) { atomic.AddInt64(&ran, 1) }
	_, err := s.Run()
	if err == nil {
		t.Fatal("sweep with a failing protocol reported success")
	}
	for _, want := range []string{"BOGUS", "speed=2", "seed="} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error lost cell attribution (%q missing): %v", want, err)
		}
	}
	total := int64(len(s.Protocols) * len(s.Speeds) * s.Reps)
	// All 40 cells would have run under the old drain-everything behaviour;
	// with cancellation at most the in-flight window completes.
	if ran > 4 {
		t.Fatalf("%d of %d cells ran after the first error", ran, total)
	}
}

// TestDefaultAdversaryMatchesAxisLabels is the label-drift regression: the
// adversary label figure tables aggregate over must be exactly the axis's
// first label, including for axes whose entries have colliding canonical
// labels, so Table/Series can never address an empty phantom cell.
func TestDefaultAdversaryMatchesAxisLabels(t *testing.T) {
	cases := []Sweep{
		{}, // plain paper sweep: blank label
		{Adversaries: []adversary.Spec{{Model: adversary.ModelCoalition, K: 2}}},
		{Adversaries: []adversary.Spec{ // colliding canonical labels
			{Model: adversary.ModelCoalition, K: 2},
			{Model: adversary.ModelCoalition, Nodes: []packet.NodeID{1, 2}},
		}},
	}
	for i, s := range cases {
		r := &Result{Sweep: s}
		labels := s.AdversaryLabels()
		if got := r.fixed(CellKey{}).Adversary; got != labels[0] {
			t.Fatalf("case %d: default adversary %q, axis label %q", i, got, labels[0])
		}
	}
}

// TestSeriesAggregatesARealCell pins Series/Table to cells the sweep
// actually produced when the axis disambiguates colliding labels.
func TestSeriesAggregatesARealCell(t *testing.T) {
	s := Sweep{
		Base:      quickBase(),
		Protocols: []string{"MTS"},
		Speeds:    []float64{10},
		Reps:      1,
		SeedBase:  1,
		Adversaries: []adversary.Spec{
			{Model: adversary.ModelCoalition, K: 2},
			{Model: adversary.ModelCoalition, Nodes: []packet.NodeID{3, 4}},
		},
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	series := res.Series("MTS", func(m *metrics.RunMetrics) float64 { return float64(m.AdversaryK) })
	if len(series) != 1 || series[0] != 2 {
		t.Fatalf("series aggregated a phantom cell: %v", series)
	}
	fig, _ := FigureByID("fig9")
	if res.Mean(res.fixed(CellKey{Protocol: "MTS", Speed: 10}), fig.Metric) == 0 {
		t.Log("note: zero throughput cell (acceptable for tiny sweeps), label addressing still verified above")
	}
}

// TestCustomFigureMetricHonoured: a caller-customised Figure that reuses a
// built-in ID must be rendered from its own Metric, not the built-in one.
func TestCustomFigureMetricHonoured(t *testing.T) {
	s := Sweep{
		Base:      quickBase(),
		Protocols: []string{"MTS"},
		Speeds:    []float64{10},
		Reps:      2,
		SeedBase:  1,
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	fig, _ := FigureByID("fig5")
	fig.Metric = func(*metrics.RunMetrics) float64 { return 1234.5 }
	if got := res.CSV(fig); got != "maxspeed,MTS_mean,MTS_ci95\n10,1234.500000,0.000000\n" {
		t.Fatalf("custom Figure metric ignored:\n%s", got)
	}
}
