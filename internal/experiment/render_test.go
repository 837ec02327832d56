package experiment

// Golden pins for every text and CSV renderer, driven by hand-filled
// Results (no simulation): a healthy cell, a partly failed cell ("!"), an
// all-failed cell (FAILED / empty CSV fields) and colliding "#2" labels.
// Renderer refactors must leave these files byte-identical. Regenerate
// after an intentional output change with:
//
//	go test ./internal/experiment -run TestRenderGolden -update

import (
	"errors"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"mtsim/internal/adversary"
	"mtsim/internal/countermeasure"
	"mtsim/internal/metrics"
	"mtsim/internal/packet"
)

var updateRender = flag.Bool("update", false, "rewrite testdata/render golden files")

// syntheticResult fills a Result for every cell s.Jobs() enumerates, with
// metric values that vary by cell and repetition (so CIs are non-zero).
// Repetitions for which fail reports true become FailedCells instead.
func syntheticResult(s Sweep, fail func(CellKey, int) bool) *Result {
	res := &Result{
		Sweep:  s,
		Runs:   make(map[CellKey][]*metrics.RunMetrics),
		failed: make(map[CellKey]int),
	}
	for i, cj := range s.Jobs() {
		key, rep := cj.Key, int(cj.Config.Seed-s.SeedBase)
		if fail(key, rep) {
			res.Failed = append(res.Failed, FailedCell{
				Key: key, Seed: cj.Config.Seed, Kind: KindError,
				Err: errors.New("injected failure"),
			})
			res.failed[key]++
			continue
		}
		x := float64(i)
		res.Runs[key] = append(res.Runs[key], &metrics.RunMetrics{
			Protocol:               key.Protocol,
			MaxSpeed:               key.Speed,
			Seed:                   cj.Config.Seed,
			Participating:          10 + i%7 + rep,
			DeliveryRate:           0.5 + 0.01*x + 0.003*float64(rep*rep),
			InterceptionRatio:      0.1 + 0.002*x - 0.01*float64(rep),
			InterceptedStreamBytes: uint64(1000 + 37*i + 250*rep),
		})
	}
	sort.Slice(res.Failed, func(i, j int) bool { return lessFailed(res.Failed[i], res.Failed[j]) })
	return res
}

// axisSweep has both threat-model axes, each with a colliding label pair.
func axisSweep() Sweep {
	return Sweep{
		Protocols: []string{"AODV", "MTS"},
		Speeds:    []float64{2, 10},
		Reps:      3,
		SeedBase:  1,
		Adversaries: []adversary.Spec{
			{Model: adversary.ModelCoalition, K: 2},
			{Model: adversary.ModelCoalition, Nodes: []packet.NodeID{1, 2}}, // coalition×2#2
			{Model: adversary.ModelBlackhole, K: 1},
		},
		Countermeasures: []countermeasure.Spec{
			{},
			{Model: countermeasure.ModelShuffle},
			{Model: countermeasure.ModelShuffle}, // shuffle×8#2
		},
	}
}

// axisFailures: MTS at 10 m/s against the first adversary and defender
// loses one repetition; AODV at 2 m/s there loses all three.
func axisFailures(k CellKey, rep int) bool {
	if k.Adversary != "coalition×2" || k.Countermeasure != "none" {
		return false
	}
	return (k.Protocol == "MTS" && k.Speed == 10 && rep == 1) ||
		(k.Protocol == "AODV" && k.Speed == 2)
}

// plainSweep is the paper's sweep shape: no threat-model axes, so every
// cell carries blank adversary and countermeasure labels.
func plainSweep() Sweep {
	return Sweep{Protocols: []string{"DSR", "MTS"}, Speeds: []float64{5, 15}, Reps: 2, SeedBase: 4}
}

func plainFailures(k CellKey, rep int) bool {
	return k.Protocol == "DSR" && k.Speed == 15 && rep == 0
}

func mustFigure(t *testing.T, id string) Figure {
	t.Helper()
	fig, ok := FigureByID(id)
	if !ok {
		t.Fatalf("figure %s missing", id)
	}
	return fig
}

func checkRender(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "render", name+".txt")
	if *updateRender {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (generate with -update): %v", path, err)
	}
	if string(want) != got {
		t.Errorf("%s changed (regenerate with -update if intended)\nwant:\n%s\ngot:\n%s", path, want, got)
	}
}

func TestRenderGolden(t *testing.T) {
	grid := syntheticResult(axisSweep(), axisFailures)
	plain := syntheticResult(plainSweep(), plainFailures)

	t.Run("table", func(t *testing.T) {
		var b strings.Builder
		for _, res := range []*Result{grid, plain} {
			for _, id := range []string{"fig5", "fig10"} {
				fig := mustFigure(t, id)
				b.WriteString(res.Table(fig) + "\n" + res.CSV(fig) + "\n")
			}
		}
		checkRender(t, "table", b.String())
	})
	t.Run("adversary", func(t *testing.T) {
		var b strings.Builder
		fig := mustFigure(t, "advRi")
		for _, v := range grid.Sweep.Speeds {
			at := CellKey{Speed: v}
			b.WriteString(grid.AxisTable(fig, ByAdversary, at) + "\n" + grid.AxisCSV(fig, ByAdversary, at) + "\n")
		}
		checkRender(t, "adversary", b.String())
	})
	t.Run("adversary-base", func(t *testing.T) {
		// No adversary axis: the blank label renders as "base adversary",
		// like the countermeasure view and FailedSummary.
		fig := mustFigure(t, "advRi")
		at := CellKey{Speed: 15}
		checkRender(t, "adversary-base", plain.AxisTable(fig, ByAdversary, at)+"\n"+plain.AxisCSV(fig, ByAdversary, at))
	})
	t.Run("countermeasure", func(t *testing.T) {
		var b strings.Builder
		fig := mustFigure(t, "cmStreamBytes")
		for _, adv := range grid.Sweep.AdversaryLabels() {
			at := CellKey{Speed: 10, Adversary: adv}
			b.WriteString(grid.AxisTable(fig, ByCountermeasure, at) + "\n" + grid.AxisCSV(fig, ByCountermeasure, at) + "\n")
		}
		// No axes: the blank labels render as "base" / "base adversary".
		at := CellKey{Speed: 5}
		b.WriteString(plain.AxisTable(fig, ByCountermeasure, at) + "\n" + plain.AxisCSV(fig, ByCountermeasure, at) + "\n")
		checkRender(t, "countermeasure", b.String())
	})
	t.Run("failed", func(t *testing.T) {
		checkRender(t, "failed", grid.FailedSummary()+"\n"+plain.FailedSummary())
	})
	t.Run("payoff", func(t *testing.T) {
		r := &CoevolutionResult{
			Attacker: 1, Defender: 2, Rounds: 2, Converged: true,
			AttackerLabels: []string{"eavesdropper×1", "wormhole×2", "wormhole×2#2"},
			DefenderLabels: []string{"", "shuffle×8", "trust"},
			Payoffs: map[[2]int]*Payoff{
				{0, 0}: {Delivery: 0.91, Intercept: 0.4, ThroughputKbps: 101.5, Score: 0.51},
				{1, 0}: {Delivery: 0.7, Intercept: 0.45, ThroughputKbps: 80.25, Score: 0.25},
				{2, 0}: {Delivery: 0.72, Intercept: 0.5, ThroughputKbps: 82, Score: 0.22},
				{2, 1}: {Delivery: 0.8, Intercept: 0.1, ThroughputKbps: 90, Score: 0.7},
				{1, 2}: {Delivery: 0.85, Intercept: 0.05, ThroughputKbps: 95.125, Score: 0.8},
			},
			Moves: []Move{
				{Round: 1, Player: "attacker", From: 0, To: 2},
				{Round: 1, Player: "defender", From: 0, To: 1},
				{Round: 2, Player: "attacker", From: 2, To: 1},
				{Round: 2, Player: "defender", From: 1, To: 2},
			},
		}
		checkRender(t, "payoff", r.PayoffTable()+"\n"+r.PayoffCSV()+"\n"+r.History())
	})
}
