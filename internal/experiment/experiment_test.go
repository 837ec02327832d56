package experiment

import (
	"strings"
	"sync/atomic"
	"testing"

	"mtsim/internal/adversary"
	"mtsim/internal/countermeasure"
	"mtsim/internal/geo"
	"mtsim/internal/metrics"
	"mtsim/internal/packet"
	"mtsim/internal/scenario"
	"mtsim/internal/sim"
)

// quickBase returns a small fast base config for harness tests.
func quickBase() scenario.Config {
	cfg := scenario.DefaultConfig()
	cfg.Nodes = 20
	cfg.Duration = 5 * sim.Second
	cfg.TCPStart = sim.Time(500 * sim.Millisecond)
	return cfg
}

func TestSweepRunsAllCells(t *testing.T) {
	s := Sweep{
		Base:      quickBase(),
		Protocols: []string{"AODV", "MTS"},
		Speeds:    []float64{2, 10},
		Reps:      2,
		SeedBase:  1,
	}
	var count int64
	s.OnRun = func(*metrics.RunMetrics) { atomic.AddInt64(&count, 1) }
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if count != 8 {
		t.Fatalf("ran %d simulations, want 8", count)
	}
	for _, p := range s.Protocols {
		for _, v := range s.Speeds {
			runs := res.Runs[CellKey{Protocol: p, Speed: v}]
			if len(runs) != 2 {
				t.Fatalf("cell %s/%g has %d runs", p, v, len(runs))
			}
			if runs[0].Seed >= runs[1].Seed {
				t.Fatal("runs not sorted by seed")
			}
		}
	}
}

func TestSweepPairing(t *testing.T) {
	// Same repetition index ⇒ same seed across protocols, so mobility and
	// endpoints are identical (paired comparison).
	s := Sweep{
		Base:      quickBase(),
		Protocols: []string{"AODV", "MTS"},
		Speeds:    []float64{5},
		Reps:      2,
		SeedBase:  7,
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	a := res.Runs[CellKey{Protocol: "AODV", Speed: 5}]
	b := res.Runs[CellKey{Protocol: "MTS", Speed: 5}]
	for i := range a {
		if a[i].Seed != b[i].Seed {
			t.Fatalf("rep %d seeds differ: %d vs %d", i, a[i].Seed, b[i].Seed)
		}
		if a[i].EavesdropperID != b[i].EavesdropperID {
			t.Fatalf("rep %d eavesdropper differs: %d vs %d",
				i, a[i].EavesdropperID, b[i].EavesdropperID)
		}
	}
}

func TestSweepDeterministicAcrossParallelism(t *testing.T) {
	mk := func(par int) *Result {
		s := Sweep{
			Base:        quickBase(),
			Protocols:   []string{"MTS"},
			Speeds:      []float64{5, 15},
			Reps:        2,
			SeedBase:    3,
			Parallelism: par,
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial := mk(1)
	parallel := mk(4)
	for key, runs := range serial.Runs {
		pruns := parallel.Runs[key]
		for i := range runs {
			if runs[i].Distinct != pruns[i].Distinct || runs[i].EventsRun != pruns[i].EventsRun {
				t.Fatalf("cell %v run %d differs between serial and parallel execution", key, i)
			}
		}
	}
}

func TestSweepAdversaryAxis(t *testing.T) {
	s := Sweep{
		Base:      quickBase(),
		Protocols: []string{"MTS"},
		Speeds:    []float64{10},
		Reps:      2,
		SeedBase:  1,
		Adversaries: []adversary.Spec{
			{Model: adversary.ModelEavesdropper},
			{Model: adversary.ModelCoalition, K: 2},
			{Model: adversary.ModelCoalition, K: 4},
		},
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 3 {
		t.Fatalf("cells = %d, want one per adversary", len(res.Runs))
	}
	for _, spec := range s.Adversaries {
		key := CellKey{Protocol: "MTS", Speed: 10, Adversary: spec.Label()}
		runs := res.Runs[key]
		if len(runs) != 2 {
			t.Fatalf("cell %v has %d runs, want 2", key, len(runs))
		}
		for _, m := range runs {
			if m.AdversaryK != spec.EffectiveK() {
				t.Fatalf("cell %v ran with k=%d", key, m.AdversaryK)
			}
		}
	}
	// Same seed ⇒ same mobility and endpoints across the axis: the k=1
	// coalition cell and the legacy cell must agree on the union Pe
	// after the k-distinct selection draws the same first node.
	e1 := res.Runs[CellKey{Protocol: "MTS", Speed: 10, Adversary: "eavesdropper×1"}]
	c2 := res.Runs[CellKey{Protocol: "MTS", Speed: 10, Adversary: "coalition×2"}]
	for i := range e1 {
		if e1[i].Seed != c2[i].Seed {
			t.Fatal("adversary axis broke seed pairing")
		}
		// A 2-coalition including more vantage points never hears less.
		if c2[i].CoalitionDistinct < e1[i].CoalitionDistinct {
			t.Fatalf("rep %d: coalition×2 union %d < single tap %d",
				i, c2[i].CoalitionDistinct, e1[i].CoalitionDistinct)
		}
	}

	// The adversary table renders one row per axis entry.
	fig, ok := FigureByID("advRi")
	if !ok {
		t.Fatal("advRi figure missing")
	}
	table := res.AxisTable(fig, ByAdversary, CellKey{Speed: 10})
	for _, want := range []string{"eavesdropper×1", "coalition×2", "coalition×4", "MTS"} {
		if !strings.Contains(table, want) {
			t.Fatalf("adversary table missing %q:\n%s", want, table)
		}
	}
	csv := res.AxisCSV(fig, ByAdversary, CellKey{Speed: 10})
	if !strings.HasPrefix(csv, "adversary,MTS_mean,MTS_ci95") {
		t.Fatalf("adversary csv header:\n%s", csv)
	}
	if len(strings.Split(strings.TrimSpace(csv), "\n")) != 4 {
		t.Fatalf("adversary csv rows:\n%s", csv)
	}
}

func TestSweepCountermeasureAxis(t *testing.T) {
	// The golden-fixture scenario rather than quickBase: the full 50-node
	// field at seed 5 reliably routes the flow through relays the
	// coalition overhears, so the undefended cell has non-zero contiguity
	// for the comparison below.
	base := scenario.DefaultConfig()
	base.Duration = 12 * sim.Second
	base.TCPStart = sim.Time(2 * sim.Second)
	s := Sweep{
		Base:      base,
		Protocols: []string{"MTS"},
		Speeds:    []float64{10},
		Reps:      2,
		SeedBase:  5,
		Adversaries: []adversary.Spec{
			{Model: adversary.ModelCoalition, K: 2},
		},
		Countermeasures: []countermeasure.Spec{
			{},
			{Model: countermeasure.ModelShuffle},
			{Model: countermeasure.ModelShuffleAware},
		},
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 3 {
		t.Fatalf("cells = %d, want one per countermeasure", len(res.Runs))
	}
	advLabel := s.Adversaries[0].Label()
	for _, spec := range s.Countermeasures {
		key := CellKey{Protocol: "MTS", Speed: 10, Adversary: advLabel, Countermeasure: spec.Label()}
		runs := res.Runs[key]
		if len(runs) != 2 {
			t.Fatalf("cell %v has %d runs, want 2", key, len(runs))
		}
		for _, m := range runs {
			if m.CountermeasureModel != spec.EffectiveModel() {
				t.Fatalf("cell %v run reports model %q", key, m.CountermeasureModel)
			}
			if spec.Shuffles() && m.ShuffledSegments == 0 {
				t.Fatalf("cell %v shuffled nothing", key)
			}
		}
	}
	// Defender rows render for every countermeasure figure, and the
	// shuffle rows move the contiguity metric.
	fig, ok := FigureByID("cmStreamBytes")
	if !ok {
		t.Fatal("cmStreamBytes figure missing")
	}
	at := CellKey{Speed: 10, Adversary: advLabel}
	table := res.AxisTable(fig, ByCountermeasure, at)
	for _, want := range []string{"none", "shuffle×8", "shuffle+aware×8"} {
		if !strings.Contains(table, want) {
			t.Fatalf("countermeasure table lacks row %q:\n%s", want, table)
		}
	}
	csv := res.AxisCSV(fig, ByCountermeasure, at)
	if !strings.HasPrefix(csv, "countermeasure,MTS_mean,MTS_ci95\n") {
		t.Fatalf("countermeasure CSV header malformed:\n%s", csv)
	}
	baseKey := CellKey{Protocol: "MTS", Speed: 10, Adversary: advLabel, Countermeasure: "none"}
	shufKey := CellKey{Protocol: "MTS", Speed: 10, Adversary: advLabel, Countermeasure: "shuffle×8"}
	baseMean, shufMean := res.Mean(baseKey, fig.Metric), res.Mean(shufKey, fig.Metric)
	if baseMean == 0 {
		t.Fatal("undefended cell intercepted no contiguous bytes; comparison proves nothing")
	}
	if shufMean >= baseMean {
		t.Errorf("shuffle cell mean contiguous bytes %.0f not below baseline %.0f", shufMean, baseMean)
	}
}

// TestCountermeasureFiguresComplete: every countermeasure figure must be
// resolvable by ID and carry a metric extractor.
func TestCountermeasureFiguresComplete(t *testing.T) {
	figs := CountermeasureFigures()
	if len(figs) == 0 {
		t.Fatal("no countermeasure figures")
	}
	for _, f := range figs {
		got, ok := FigureByID(f.ID)
		if !ok {
			t.Errorf("FigureByID(%q) missed", f.ID)
		}
		if got.Metric == nil {
			t.Errorf("figure %s has no metric", f.ID)
		}
	}
}

func TestAdvAxisDisambiguatesCollidingLabels(t *testing.T) {
	s := Sweep{
		Adversaries: []adversary.Spec{
			{Model: adversary.ModelCoalition, K: 2},
			{Model: adversary.ModelCoalition, Nodes: []packet.NodeID{1, 2}}, // same canonical label
			{Model: adversary.ModelMobile, K: 2},
		},
	}
	labels := s.AdversaryLabels()
	want := []string{"coalition×2", "coalition×2#2", "mobile×2"}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("labels = %v, want %v", labels, want)
		}
	}
}

func TestAdversaryFiguresComplete(t *testing.T) {
	for _, f := range AdversaryFigures() {
		if f.ID == "" || f.Metric == nil || f.Title == "" || f.Expect == "" {
			t.Fatalf("incomplete adversary figure %+v", f)
		}
		got, ok := FigureByID(f.ID)
		if !ok || got.Title != f.Title {
			t.Fatalf("FigureByID cannot find %q", f.ID)
		}
	}
}

func TestSweepErrorPropagates(t *testing.T) {
	base := quickBase()
	base.Flows = []scenario.FlowSpec{{Src: 0, Dst: 0}} // invalid
	s := Sweep{Base: base, Protocols: []string{"MTS"}, Speeds: []float64{5}, Reps: 1}
	if _, err := s.Run(); err == nil {
		t.Fatal("invalid config did not propagate an error")
	}
}

func TestTableAndCSVRendering(t *testing.T) {
	s := Sweep{
		Base:      quickBase(),
		Protocols: []string{"AODV", "MTS"},
		Speeds:    []float64{2, 10},
		Reps:      2,
		SeedBase:  1,
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	fig, ok := FigureByID("fig10")
	if !ok {
		t.Fatal("fig10 missing")
	}
	table := res.Table(fig)
	if !strings.Contains(table, "fig10") || !strings.Contains(table, "AODV") {
		t.Fatalf("table rendering:\n%s", table)
	}
	lines := strings.Split(strings.TrimSpace(table), "\n")
	if len(lines) != 2+len(s.Speeds) {
		t.Fatalf("table has %d lines:\n%s", len(lines), table)
	}
	csv := res.CSV(fig)
	if !strings.HasPrefix(csv, "maxspeed,AODV_mean,AODV_ci95,MTS_mean,MTS_ci95") {
		t.Fatalf("csv header:\n%s", csv)
	}
	if len(strings.Split(strings.TrimSpace(csv), "\n")) != 1+len(s.Speeds) {
		t.Fatalf("csv rows:\n%s", csv)
	}
}

func TestPaperFiguresComplete(t *testing.T) {
	figs := PaperFigures()
	if len(figs) != 7 {
		t.Fatalf("figures = %d, want 7 (Figs. 5-11)", len(figs))
	}
	seen := map[string]bool{}
	for _, f := range figs {
		if f.Metric == nil || f.Title == "" || f.Expect == "" {
			t.Fatalf("incomplete figure %q", f.ID)
		}
		if seen[f.ID] {
			t.Fatalf("duplicate figure id %q", f.ID)
		}
		seen[f.ID] = true
	}
	for _, id := range []string{"fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11"} {
		if !seen[id] {
			t.Fatalf("missing %s", id)
		}
	}
	if _, ok := FigureByID("fig99"); ok {
		t.Fatal("phantom figure found")
	}
}

func TestTable1Rendering(t *testing.T) {
	base := quickBase()
	// Static chain so the participating set is predictable.
	base.Placement = []geo.Point{{X: 0, Y: 0}, {X: 200, Y: 0}, {X: 400, Y: 0}, {X: 600, Y: 0}}
	base.Field = geo.Field(700, 100)
	base.Flows = []scenario.FlowSpec{{Src: 0, Dst: 3}}
	base.Adversary.Nodes = []packet.NodeID{1}
	base.Duration = 10 * sim.Second
	out, err := Table1(base, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Table I", "β", "γ", "α", "σ", "%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table I missing %q:\n%s", want, out)
		}
	}
}

func TestSeriesOrder(t *testing.T) {
	s := Sweep{
		Base:      quickBase(),
		Protocols: []string{"MTS"},
		Speeds:    []float64{2, 10, 20},
		Reps:      1,
		SeedBase:  1,
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	series := res.Series("MTS", func(m *metrics.RunMetrics) float64 { return m.MaxSpeed })
	want := []float64{2, 10, 20}
	for i := range want {
		if series[i] != want[i] {
			t.Fatalf("series order: %v", series)
		}
	}
	_ = packet.NodeID(0)
}
