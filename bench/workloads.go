package bench

import (
	"math"
	"math/rand"
	"runtime"

	"mtsim/internal/adversary"
	"mtsim/internal/countermeasure"
	"mtsim/internal/experiment"
	"mtsim/internal/geo"
	"mtsim/internal/packet"
	"mtsim/internal/scenario"
	"mtsim/internal/sim"
)

// Workload names, in the order the benchmark runs them.
const (
	PaperGrid    = "paper-grid"
	Dense1000    = "dense-1000"
	AttackMatrix = "attack-matrix"
	WarmReplay   = "warm-replay"
)

// Workloads lists every workload name.
func Workloads() []string { return []string{PaperGrid, Dense1000, AttackMatrix, WarmReplay} }

// size scales a workload. full is the benchmark; tiny keeps every
// mechanism of a workload but shrinks it to milliseconds, for the smoke
// test. It is deliberately not reachable from the command line.
type size int

const (
	full size = iota
	tiny
)

// workload is one workload's generated inputs. The simulator sees only
// the sweeps (configurations and seeds) built here from the benchmark seed.
type workload struct {
	name string
	// sweeps are the grids one repetition runs, in order: every cell of a
	// simulating workload, or the cells warm-replay primes and replays.
	sweeps []experiment.Sweep
	// cached gives each repetition a real runcache.Store: a fresh
	// directory per repetition for the simulating workloads, the primed
	// one for warm-replay.
	cached bool
	// replayOps is the number of ops per warm-replay repetition; 0 marks
	// a simulating workload, whose ops are its cells.
	replayOps int
}

// workers is the sweep parallelism: two workers, or one on a single-CPU
// host, so load never exceeds the cores.
func workers() int { return min(2, runtime.NumCPU()) }

// newWorkload derives a workload's inputs from the seed. Equal seeds give
// equal inputs.
func newWorkload(name string, seed int64, sz size) (*workload, bool) {
	rng := rand.New(rand.NewSource(seed))
	seedBase := func() int64 { return 1 + rng.Int63n(1<<40) }
	small := sz == tiny

	// paperBase is the §IV-A field shortened to 20 simulated seconds with
	// TCP from 2 s, as the repository's own figure benchmarks run it.
	paperBase := func() scenario.Config {
		cfg := scenario.DefaultConfig()
		cfg.Duration = 20 * sim.Second
		cfg.TCPStart = sim.Time(2 * sim.Second)
		if small {
			cfg.Nodes = 20
			cfg.Duration = 2 * sim.Second
			cfg.TCPStart = sim.Time(sim.Second / 2)
		}
		return cfg
	}
	paperSweep := func(speeds []float64, seeds int) experiment.Sweep {
		sw := experiment.PaperSweep(paperBase())
		sw.Speeds = speeds
		sw.Reps = pick(small, 1, seeds)
		sw.SeedBase = seedBase()
		sw.Parallelism = workers()
		return sw
	}
	paperSpeeds := []float64{2, 10, 20}

	switch name {
	case PaperGrid:
		// The 108-cell §IV-A grid: 3 protocols × 3 speeds × 12 seeds. A
		// seed's flow decides most of its cells' cost, so each speed gets
		// seeds of its own: 36 flows per repetition rather than 12, while
		// the protocols still share seeds as the paper pairs them.
		var sweeps []experiment.Sweep
		for _, v := range paperSpeeds {
			sweeps = append(sweeps, paperSweep([]float64{v}, 12))
		}
		return &workload{name: name, sweeps: sweeps, cached: true}, true

	case Dense1000:
		cfg := scenario.DefaultConfig()
		cfg.Protocol = "MTS"
		cfg.Nodes = pick(small, 100, 1000)
		// Paper density: 50 nodes per km².
		side := 1000 * math.Sqrt(float64(cfg.Nodes)/50)
		cfg.Field = geo.Field(side, side)
		cfg.Duration = pick(small, sim.Second, 3*sim.Second)
		cfg.TCPStart = sim.Time(pick(small, sim.Second/2, sim.Second))
		cfg.Flows = randomFlows(rng, cfg.Nodes, pick(small, 2, 20))
		return &workload{name: name, sweeps: []experiment.Sweep{{
			Base:      cfg,
			Protocols: []string{"MTS"},
			Speeds:    []float64{10},
			Reps:      pick(small, 1, 4),
			SeedBase:  seedBase(),
			// One worker: the second core stays idle, which is where
			// intra-run sharding would show.
			Parallelism: 1,
		}}}, true

	case AttackMatrix:
		// A sweep's cells share its flows, its seed and so its mobility and
		// adversary placement, which decide most of a cell's cost. So each
		// protocol × defence pair runs the four attacks in a world of its
		// own: the matrix is covered once per repetition, over nine worlds.
		var sweeps []experiment.Sweep
		for _, cm := range []string{countermeasure.ModelNone, countermeasure.ModelShuffle, countermeasure.ModelTrust} {
			for _, proto := range []string{"MTS", "DSR", "AODV"} {
				cfg := paperBase()
				cfg.Flows = randomFlows(rng, cfg.Nodes, pick(small, 2, 5))
				sweeps = append(sweeps, experiment.Sweep{
					Base:      cfg,
					Protocols: []string{proto},
					Speeds:    []float64{10},
					Adversaries: []adversary.Spec{
						{Model: adversary.ModelCoalition, K: 5},
						{Model: adversary.ModelWormhole},
						{Model: adversary.ModelRushing, K: 2},
						{Model: adversary.ModelGrayhole, K: 3},
					},
					Countermeasures: []countermeasure.Spec{{Model: cm}},
					Reps:            1,
					SeedBase:        seedBase(),
					Parallelism:     workers(),
				})
			}
		}
		return &workload{name: name, sweeps: sweeps, cached: true}, true

	case WarmReplay:
		// Priming is set-up, repeated for setup_s, so the replayed grid is
		// the paper grid at four seeds: 36 cells.
		return &workload{name: name, sweeps: []experiment.Sweep{paperSweep(paperSpeeds, 4)}, cached: true,
			replayOps: pick(small, 2, 60)}, true
	}
	return nil, false
}

func pick[T any](small bool, tinyV, fullV T) T {
	if small {
		return tinyV
	}
	return fullV
}

// randomFlows draws k distinct source→destination pairs.
func randomFlows(rng *rand.Rand, nodes, k int) []scenario.FlowSpec {
	seen := map[scenario.FlowSpec]bool{}
	var out []scenario.FlowSpec
	for len(out) < k {
		f := scenario.FlowSpec{Src: packet.NodeID(rng.Intn(nodes)), Dst: packet.NodeID(rng.Intn(nodes))}
		if f.Src == f.Dst || seen[f] {
			continue
		}
		seen[f] = true
		out = append(out, f)
	}
	return out
}
