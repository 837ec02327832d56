// Package mtsim is a discrete-event simulator for TCP over multipath
// routing in mobile ad hoc wireless networks. It reproduces, from scratch
// and in pure Go, the system evaluated in:
//
//	Zhi Li and Yu-Kwong Kwok, "A New Multipath Routing Approach to
//	Enhancing TCP Security in Ad Hoc Wireless Networks",
//	Proc. International Conference on Parallel Processing Workshops
//	(ICPPW 2005), pp. 372–379.
//
// The package bundles a deterministic event-driven simulation kernel, a
// unit-disc radio channel with an IEEE 802.11b DCF MAC, random-waypoint
// mobility, a packet-granularity TCP Reno implementation, three routing
// protocols — DSR and AODV as baselines and MTS (Multipath TCP Security,
// the paper's contribution) — plus the eavesdropper instrumentation and
// metrics from the paper's evaluation (interception ratio, participating
// nodes, relay-distribution σ, delay, throughput, delivery rate, control
// overhead).
//
// # Quick start
//
//	cfg := mtsim.DefaultConfig()     // the paper's §IV-A setup
//	cfg.Protocol = "MTS"
//	cfg.MaxSpeed = 10                // m/s
//	cfg.Seed = 42
//	m, err := mtsim.Run(cfg)
//	if err != nil { ... }
//	fmt.Printf("interception ratio: %.3f\n", m.InterceptionRatio)
//
// Full sweeps (the paper's Figs. 5–11) are driven by Sweep / PaperSweep;
// see cmd/experiments for the command-line harness and docs/PAPER_MAP.md
// for where each of the paper's figures and claims lives in the code.
package mtsim

import (
	"io"

	"mtsim/internal/adversary"
	"mtsim/internal/countermeasure"
	"mtsim/internal/experiment"
	"mtsim/internal/geo"
	"mtsim/internal/metrics"
	"mtsim/internal/packet"
	"mtsim/internal/runcache"
	"mtsim/internal/scenario"
	"mtsim/internal/sim"
	"mtsim/internal/trace"
)

// NodeID identifies a node in a scenario (0 … Nodes-1).
type NodeID = packet.NodeID

// Config declares a single simulation run (nodes, field, mobility,
// protocol, flows, eavesdropper, stack parameters). Obtain a baseline with
// DefaultConfig and adjust.
type Config = scenario.Config

// FlowSpec names one TCP connection inside a Config.
type FlowSpec = scenario.FlowSpec

// Metrics is the complete result of one run: the paper's security metrics
// (Figs. 5–7, Table I) and TCP metrics (Figs. 8–11) plus diagnostics.
type Metrics = metrics.RunMetrics

// RelayRow is one participating node's β/γ entry (Table I).
type RelayRow = metrics.RelayRow

// AdversarySpec declares a threat model for Config.Adversary: k static
// taps (the paper's eavesdropper, or a colluding coalition), one roaming
// tap (mobile or adaptive), blackhole/grayhole dropping relays, or the
// wormhole and rushing route-discovery attacks. Every model is one
// Scenario.Adversary sharing one interception ledger. The zero Spec is the
// paper's single random eavesdropper.
type AdversarySpec = adversary.Spec

// AdversaryMember is one vantage point's interception accounting inside
// Metrics.AdversaryMembers.
type AdversaryMember = metrics.AdversaryMember

// Adversary model names for AdversarySpec.Model.
const (
	AdversaryEavesdropper = adversary.ModelEavesdropper
	AdversaryCoalition    = adversary.ModelCoalition
	AdversaryMobile       = adversary.ModelMobile
	AdversaryBlackhole    = adversary.ModelBlackhole
	AdversaryGrayhole     = adversary.ModelGrayhole
	AdversaryAdaptive     = adversary.ModelAdaptive
	AdversaryWormhole     = adversary.ModelWormhole
	AdversaryRushing      = adversary.ModelRushing
)

// AdversaryModels lists every selectable adversary model.
func AdversaryModels() []string { return adversary.Models() }

// CountermeasureSpec declares a defence for Config.Countermeasure: data
// shuffling at the traffic sources (with per-packet dispersal across
// MTS's disjoint paths), adversary-aware MTS path selection, both, or
// trust-scored path selection at every node. Every model is one
// Scenario.Countermeasure. The zero Spec is the paper's undefended
// baseline.
type CountermeasureSpec = countermeasure.Spec

// Countermeasure model names for CountermeasureSpec.Model.
const (
	CountermeasureNone         = countermeasure.ModelNone
	CountermeasureShuffle      = countermeasure.ModelShuffle
	CountermeasureAware        = countermeasure.ModelAware
	CountermeasureShuffleAware = countermeasure.ModelShuffleAware
	CountermeasureTrust        = countermeasure.ModelTrust
)

// CountermeasureModels lists every selectable countermeasure model.
func CountermeasureModels() []string { return countermeasure.Models() }

// Sweep declares a protocol × speed × repetition experiment grid.
type Sweep = experiment.Sweep

// Result aggregates all runs of a sweep.
type Result = experiment.Result

// CellKey identifies one (protocol, speed, adversary-label) aggregation
// cell of a Result; the Adversary field is blank for sweeps without an
// adversary axis.
type CellKey = experiment.CellKey

// Figure describes one of the paper's evaluation figures.
type Figure = experiment.Figure

// Axis selects the row dimension of Result.AxisTable and Result.AxisCSV.
type Axis = experiment.Axis

// Row axes for Result.AxisTable and Result.AxisCSV.
const (
	BySpeed          = experiment.BySpeed
	ByAdversary      = experiment.ByAdversary
	ByCountermeasure = experiment.ByCountermeasure
)

// Watchdog is the per-run deadline pair (Sweep.Watchdog): a
// simulated-event budget catching livelocked runs and a wall-clock
// budget catching hung ones. A tripped watchdog kills the run cleanly
// and attributes the timeout.
type Watchdog = experiment.Watchdog

// FailedCell is one run of a KeepGoing sweep that failed, recorded in
// Result.Failed with its failure kind and cell-attributed error.
type FailedCell = experiment.FailedCell

// Journal is the sweep engine's append-only JSONL attempt log
// (Sweep.Journal): one record per simulated cell, successes, failures
// and cache hits included.
type Journal = experiment.Journal

// AttemptRecord is one line of a Journal.
type AttemptRecord = experiment.AttemptRecord

// CellJob is one sweep grid cell: the aggregation key plus the complete
// configuration. Sweep.Jobs enumerates them in the engine's dispatch
// order.
type CellJob = experiment.CellJob

// Coevolution is the iterated best-response harness closing the
// attacker–defender loop: alternate attacker/defender moves over
// cache-backed sweeps until the strategy pair reaches a fixed point of
// the empirical payoff matrix.
type Coevolution = experiment.Coevolution

// CoevolutionResult is a completed co-evolution game: the equilibrium,
// every payoff cell evaluated along the way, and the move history.
type CoevolutionResult = experiment.CoevolutionResult

// Payoff is one attacker × defender payoff cell (delivery, intercepted
// contiguity, throughput, and the scalar defender score).
type Payoff = experiment.Payoff

// NewJournal wraps an existing writer as an attempt journal.
func NewJournal(w io.Writer) *Journal { return experiment.NewJournal(w) }

// OpenJournal opens (creating if needed) an append-mode journal file, so
// repeated sweeps accumulate one flake history.
func OpenJournal(path string) (*Journal, error) { return experiment.OpenJournal(path) }

// Scenario is a built simulation; use Build for mid-run inspection and
// custom instrumentation, or Run for the common path. Its Adversary holds
// the interception accounting (Adversary.Members()[0].Node is the paper's
// eavesdropper) and its Countermeasure the attached defence.
type Scenario = scenario.Scenario

// Sample is one point of a throughput-over-time series (Scenario.RunSampled).
type Sample = scenario.Sample

// Rect is an axis-aligned field rectangle in metres (Config.Field).
type Rect = geo.Rect

// Field returns the w×h field anchored at the origin, the usual simulation
// field shape.
func Field(w, h float64) Rect { return geo.Field(w, h) }

// Time is virtual time in nanoseconds; Duration a span thereof.
type Time = sim.Time

// Duration is a span of virtual time in nanoseconds.
type Duration = sim.Duration

// Common virtual-time units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Seconds converts floating-point seconds to a Duration.
func Seconds(s float64) Duration { return sim.Seconds(s) }

// DefaultConfig returns the paper's §IV-A simulation setup: 50 nodes on a
// 1000 m × 1000 m field, random waypoint with 1 s pause, 250 m radio range,
// IEEE 802.11b, one FTP/TCP-Reno flow, a random eavesdropper, 200 s.
func DefaultConfig() Config { return scenario.DefaultConfig() }

// Protocols lists the paper's routing protocols: DSR, AODV, MTS.
func Protocols() []string { return scenario.Protocols() }

// AllProtocols additionally includes the §II related-work baselines:
// SMR (split multipath) and SMR-BACKUP (Lim's backup-path scheme).
func AllProtocols() []string { return scenario.AllProtocols() }

// Run builds and executes one simulation, returning its metrics.
func Run(cfg Config) (*Metrics, error) { return scenario.RunOne(cfg) }

// Build wires a simulation without running it, for callers that want to
// attach instrumentation or advance virtual time manually.
func Build(cfg Config) (*Scenario, error) { return scenario.Build(cfg) }

// PaperSweep returns the paper's evaluation grid (DSR/AODV/MTS ×
// {2,5,10,15,20} m/s × 5 repetitions) over the given base configuration.
func PaperSweep(base Config) Sweep { return experiment.PaperSweep(base) }

// RunCache is a content-addressed on-disk cache of run results, keyed by a
// canonical hash of the full Config (seed included) plus a code-version
// salt. Attach one to Sweep.Cache and repeated sweeps skip every identical
// cell; an interrupted sweep resumes from its completed runs.
type RunCache = runcache.Store

// OpenRunCache creates (if needed) and opens a run cache directory.
func OpenRunCache(dir string) (*RunCache, error) { return runcache.Open(dir) }

// RunCacheKey returns the content address a configuration is cached under.
func RunCacheKey(cfg Config) (string, error) { return runcache.Key(cfg) }

// CacheHealth is a RunCache's degradation counters (corrupt entries
// quarantined, erroring reads degraded to misses, stale-version misses).
// All zeros is a healthy cache.
type CacheHealth = runcache.Health

// RunContext recycles RNG state (math/rand sources and derivation labels)
// across consecutive runs on one goroutine; every run still builds its
// own scheduler, channel, collector and packet arena, and results are
// bit-identical to fresh Builds. Sweep workers use one per goroutine
// automatically — reach for it directly when running many configurations
// in your own loop.
type RunContext = scenario.Context

// NewRunContext returns an empty reusable simulation context.
func NewRunContext() *RunContext { return scenario.NewContext() }

// PaperFigures returns the definitions of the paper's Figs. 5–11: metric
// extractors, units, and the qualitative shape the paper reports.
func PaperFigures() []Figure { return experiment.PaperFigures() }

// AdversaryFigures returns the extension figures for adversary sweeps
// (coalition interception ratio, union Pe, adversarial drops, delivery).
func AdversaryFigures() []Figure { return experiment.AdversaryFigures() }

// CountermeasureFigures returns the defender-side extension figures
// (intercepted stream contiguity, reassemblable runs, shuffle accounting)
// for defender-vs-attacker grids (Sweep.Countermeasures).
func CountermeasureFigures() []Figure { return experiment.CountermeasureFigures() }

// FigureByID looks up a figure definition ("fig5" … "fig11").
func FigureByID(id string) (Figure, bool) { return experiment.FigureByID(id) }

// Table1 runs the paper's Table I demonstration (per-node relay counts and
// their normalization for one DSR scenario) and renders it.
func Table1(base Config, seed int64) (string, error) { return experiment.Table1(base, seed) }

// RenderTable1 formats an existing run's relay table in Table I layout.
func RenderTable1(m *Metrics) string { return experiment.RenderTable1(m) }

// AttachTrace mirrors every MAC-level send and receive of the scenario's
// nodes into w as ns-2-style trace lines. Call between Build and Run.
func AttachTrace(s *Scenario, w io.Writer) {
	tr := trace.New(w, s.Sched)
	for _, n := range s.Nodes {
		tr.AttachNode(n)
	}
}
