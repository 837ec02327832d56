// Benchmarks regenerating the paper's evaluation artefacts. One benchmark
// per table/figure: each logs the aggregated series for its figure (from a
// shared reduced sweep — the full-length reproduction is cmd/experiments)
// and measures the cost of the representative simulation behind it.
// Ablation benchmarks cover the checking period, the stored-path bound and
// best-route switching (docs/PAPER_MAP.md maps each to the paper), plus
// RTS/CTS and AODV's expanding ring.
package mtsim

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"mtsim/internal/scenario"
)

// benchSweep is the shared reduced grid behind the figure benchmarks:
// 3 protocols × {2,10,20} m/s × 2 repetitions at 20 simulated seconds.
var (
	benchOnce   sync.Once
	benchResult *Result
	benchErr    error
)

func benchBase() Config {
	cfg := DefaultConfig()
	cfg.Duration = 20 * Second
	cfg.TCPStart = Time(2 * Second)
	return cfg
}

func sharedSweep(b *testing.B) *Result {
	benchOnce.Do(func() {
		sw := PaperSweep(benchBase())
		sw.Speeds = []float64{2, 10, 20}
		sw.Reps = 2
		benchResult, benchErr = sw.Run()
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchResult
}

// benchFigure logs the figure's series once, then measures one
// representative MTS run per iteration, reporting the figure's metric.
func benchFigure(b *testing.B, figID string) {
	res := sharedSweep(b)
	fig, ok := FigureByID(figID)
	if !ok {
		b.Fatalf("unknown figure %s", figID)
	}
	b.Logf("\n%s\npaper: %s", res.Table(fig), fig.Expect)

	cfg := benchBase()
	cfg.Protocol = "MTS"
	cfg.MaxSpeed = 10
	var acc float64
	var events uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		m, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		acc += fig.Metric(m)
		events += m.EventsRun
	}
	unit := strings.ReplaceAll(fig.Unit, " ", "_") + "/run"
	b.ReportMetric(acc/float64(b.N), unit)
	b.ReportMetric(float64(events)/float64(b.N), "events/run")
}

func BenchmarkTable1RelayNormalization(b *testing.B) {
	cfg := benchBase()
	var out string
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		out, err = Table1(cfg, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Logf("\n%s", out)
}

func BenchmarkFigure5ParticipatingNodes(b *testing.B)  { benchFigure(b, "fig5") }
func BenchmarkFigure6RelayStdDev(b *testing.B)         { benchFigure(b, "fig6") }
func BenchmarkFigure7HighestInterception(b *testing.B) { benchFigure(b, "fig7") }
func BenchmarkFigure8Delay(b *testing.B)               { benchFigure(b, "fig8") }
func BenchmarkFigure9Throughput(b *testing.B)          { benchFigure(b, "fig9") }
func BenchmarkFigure10DeliveryRate(b *testing.B)       { benchFigure(b, "fig10") }
func BenchmarkFigure11ControlOverhead(b *testing.B)    { benchFigure(b, "fig11") }

// --- ablations ---

// ablationRow runs a single configuration n times (different seeds) and
// returns mean throughput and worst-case interception.
func ablationRow(b *testing.B, cfg Config, runs int) (tput, intercept float64) {
	for r := 0; r < runs; r++ {
		cfg.Seed = int64(r + 1)
		m, err := Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		tput += m.ThroughputPps
		intercept += m.HighestInterception
	}
	return tput / float64(runs), intercept / float64(runs)
}

var ablationOnce sync.Once

// BenchmarkAblationCheckPeriod sweeps the MTS route-checking period (the
// paper recommends 2–4 s, §III-D).
func BenchmarkAblationCheckPeriod(b *testing.B) {
	ablationOnce.Do(func() {}) // reserved: keeps ablation set extensible
	var table string
	for _, sec := range []float64{1, 2, 3, 4, 8} {
		cfg := benchBase()
		cfg.Protocol = "MTS"
		cfg.MaxSpeed = 10
		cfg.MTS.CheckPeriod = Seconds(sec)
		tput, ic := ablationRow(b, cfg, 2)
		table += fmt.Sprintf("  Tcheck=%4.0fs  throughput=%7.1f pkt/s  worst-case interception=%.3f\n", sec, tput, ic)
	}
	b.Logf("\nMTS checking-period ablation (10 m/s):\n%s", table)
	cfg := benchBase()
	cfg.Protocol = "MTS"
	cfg.MaxSpeed = 10
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationMaxPaths sweeps the stored disjoint-path bound (the
// paper fixes five, §III-B).
func BenchmarkAblationMaxPaths(b *testing.B) {
	var table string
	for _, k := range []int{1, 2, 3, 5} {
		cfg := benchBase()
		cfg.Protocol = "MTS"
		cfg.MaxSpeed = 10
		cfg.MTS.MaxPaths = k
		tput, ic := ablationRow(b, cfg, 2)
		table += fmt.Sprintf("  maxpaths=%d  throughput=%7.1f pkt/s  worst-case interception=%.3f\n", k, tput, ic)
	}
	b.Logf("\nMTS stored-path bound ablation (10 m/s):\n%s", table)
	cfg := benchBase()
	cfg.Protocol = "MTS"
	cfg.MaxSpeed = 10
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationNoSwitching isolates MTS's first contribution: with
// SwitchOnCheck disabled the protocol degrades to a backup-path scheme
// (switching only after failures), which should concentrate traffic and
// raise the interception metrics.
func BenchmarkAblationNoSwitching(b *testing.B) {
	var table string
	for _, on := range []bool{true, false} {
		cfg := benchBase()
		cfg.Protocol = "MTS"
		cfg.MaxSpeed = 10
		cfg.MTS.SwitchOnCheck = on
		tput, ic := ablationRow(b, cfg, 3)
		table += fmt.Sprintf("  switching=%-5v  throughput=%7.1f pkt/s  worst-case interception=%.3f\n", on, tput, ic)
	}
	b.Logf("\nMTS best-route switching ablation (10 m/s):\n%s", table)
	cfg := benchBase()
	cfg.Protocol = "MTS"
	cfg.MTS.SwitchOnCheck = false
	cfg.MaxSpeed = 10
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationRTSCTS compares the MAC with and without the RTS/CTS
// exchange (hidden-terminal protection vs handshake overhead).
func BenchmarkAblationRTSCTS(b *testing.B) {
	var table string
	for _, on := range []bool{true, false} {
		cfg := benchBase()
		cfg.Protocol = "MTS"
		cfg.MaxSpeed = 10
		if !on {
			cfg.MAC.RTSThreshold = 1 << 30
		}
		tput, _ := ablationRow(b, cfg, 2)
		table += fmt.Sprintf("  rts/cts=%-5v  throughput=%7.1f pkt/s\n", on, tput)
	}
	b.Logf("\n802.11 RTS/CTS ablation (MTS, 10 m/s):\n%s", table)
	cfg := benchBase()
	cfg.Protocol = "MTS"
	cfg.MAC.RTSThreshold = 1 << 30
	cfg.MaxSpeed = 10
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationExpandingRing compares AODV with draft-compliant
// expanding-ring search against immediate network-wide flooding.
func BenchmarkAblationExpandingRing(b *testing.B) {
	var table string
	for _, on := range []bool{true, false} {
		cfg := benchBase()
		cfg.Protocol = "AODV"
		cfg.MaxSpeed = 10
		cfg.AODV.ExpandingRing = on
		tput, _ := ablationRow(b, cfg, 2)
		table += fmt.Sprintf("  expanding-ring=%-5v  throughput=%7.1f pkt/s\n", on, tput)
	}
	b.Logf("\nAODV expanding-ring ablation (10 m/s):\n%s", table)
	cfg := benchBase()
	cfg.Protocol = "AODV"
	cfg.MaxSpeed = 10
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRelatedWorkProtocols compares MTS against the §II related-work
// schemes: SMR (concurrent split multipath — Lim et al. showed it hurts
// TCP) and SMR-BACKUP (one primary + standby). This regenerates the
// motivation behind the paper's single-active-route design.
func BenchmarkRelatedWorkProtocols(b *testing.B) {
	var table string
	for _, proto := range []string{"MTS", "SMR", "SMR-BACKUP", "AODV"} {
		cfg := benchBase()
		cfg.Protocol = proto
		cfg.MaxSpeed = 10
		tput, ic := ablationRow(b, cfg, 2)
		table += fmt.Sprintf("  %-11s throughput=%7.1f pkt/s  worst-case interception=%.3f\n", proto, tput, ic)
	}
	b.Logf("\nrelated-work comparison (10 m/s):\n%s", table)
	cfg := benchBase()
	cfg.Protocol = "SMR"
	cfg.MaxSpeed = 10
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- sweep engine ---

// sweepWallClockGrid is the reduced grid behind BenchmarkSweepWallClock:
// 2 protocols × 2 speeds × 2 reps at 20 simulated seconds (8 runs).
func sweepWallClockGrid(parallelism int, cache *RunCache) Sweep {
	sw := PaperSweep(benchBase())
	sw.Protocols = []string{"AODV", "MTS"}
	sw.Speeds = []float64{2, 10}
	sw.Reps = 2
	sw.Parallelism = parallelism
	sw.Cache = cache
	return sw
}

// BenchmarkSweepWallClock measures end-to-end sweep latency through the
// engine: cold (every cell simulated, cache being filled) vs warm (every
// cell served from the content-addressed cache), serially and on the full
// worker pool. The cold/warm ratio is the price of a repeated or resumed
// sweep; see PERFORMANCE.md for recorded numbers.
func BenchmarkSweepWallClock(b *testing.B) {
	for _, mode := range []struct {
		name        string
		parallelism int
	}{{"serial", 1}, {"parallel", 0}} {
		b.Run("cold/"+mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cache, err := OpenRunCache(b.TempDir())
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				res, err := sweepWallClockGrid(mode.parallelism, cache).Run()
				if err != nil {
					b.Fatal(err)
				}
				if res.CacheHits != 0 {
					b.Fatalf("cold sweep hit the cache %d times", res.CacheHits)
				}
			}
		})
		b.Run("warm/"+mode.name, func(b *testing.B) {
			cache, err := OpenRunCache(b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sweepWallClockGrid(mode.parallelism, cache).Run(); err != nil {
				b.Fatal(err) // prime the cache
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := sweepWallClockGrid(mode.parallelism, cache).Run()
				if err != nil {
					b.Fatal(err)
				}
				if res.CacheMisses != 0 {
					b.Fatalf("warm sweep missed %d cells", res.CacheMisses)
				}
			}
		})
	}
}

// BenchmarkScale1000Nodes is the control-plane arena's acceptance smoke:
// a 1000-node, 20-flow MTS run at the paper's node density, built through
// a reused context and executed under watchdog defaults (an unlimited
// Budget, exactly like the CLI). allocs/op here is the whole-run
// allocation figure at scale (the control-plane arena entry in
// PERFORMANCE.md's history). Routers
// are built fresh on every run, so their maps scale with node count; a
// regression in the pooled route buffers or RNG reuse shows up as this
// number growing faster than that.
func BenchmarkScale1000Nodes(b *testing.B) {
	cfg := benchBase()
	cfg.Protocol = "MTS"
	cfg.MaxSpeed = 10
	cfg.Nodes = 1000
	side := 1000 * math.Sqrt(1000.0/50)
	cfg.Field = Field(side, side)
	cfg.Duration = 4 * Second
	cfg.TCPStart = Time(1 * Second)
	for i := 0; i < 20; i++ {
		cfg.Flows = append(cfg.Flows, FlowSpec{Src: NodeID(i), Dst: NodeID(500 + i)})
	}
	ctx := NewRunContext()
	var events uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg.Seed = int64(i + 1)
		s, err := ctx.Build(cfg)
		if err != nil {
			b.Fatal(err)
		}
		m, err := s.RunWatched(scenario.Budget{})
		if err != nil {
			b.Fatal(err)
		}
		s.Retire()
		events += m.EventsRun
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
}

// BenchmarkSimulatorEventRate measures the raw event-processing rate of
// the full stack at increasing node counts. The 50-node case is the
// paper's default scenario; the larger fields keep the same node density
// (the field area grows with the population) so neighbourhood size — and
// hence per-transmission work — stays realistic while total population
// grows.
func BenchmarkSimulatorEventRate(b *testing.B) {
	for _, nodes := range []int{50, 100, 200} {
		cfg := benchBase()
		cfg.Protocol = "MTS"
		cfg.MaxSpeed = 10
		cfg.Nodes = nodes
		// Constant density: the default is 50 nodes / 1000x1000 m.
		side := 1000 * math.Sqrt(float64(nodes)/50)
		cfg.Field = Field(side, side)
		b.Run(fmt.Sprintf("nodes=%d", nodes), func(b *testing.B) {
			var events uint64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cfg.Seed = int64(i + 1)
				m, err := Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
				events += m.EventsRun
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
		})
	}
}
