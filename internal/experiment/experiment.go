// Package experiment runs the paper's evaluation: parameter sweeps over
// protocol × MAXSPEED × adversary × repetition, executed by a sweep engine
// on a worker pool (one goroutine per independent simulation — the
// simulator itself is single-threaded and deterministic), aggregated into
// the series behind each figure and rendered as aligned text/CSV/markdown
// tables.
//
// The engine is built for sweep-scale throughput:
//
//   - Each grid cell is looked up by the worker that receives it in an
//     optional content-addressed result cache (internal/runcache) and
//     persisted after completion, so repeated sweeps skip identical
//     cells, a warm sweep reads the cache on every worker, and an
//     interrupted sweep resumes from the completed runs on disk.
//   - Each worker owns one reusable scenario.Context, built on its first
//     cache miss, so consecutive runs re-seed recycled RNG sources
//     instead of reallocating them; every run builds the rest of its
//     scaffolding (scheduler, channel, grid, arena) fresh.
//   - The first simulation error cancels all outstanding work (with the
//     failing cell named in the error) instead of silently finishing the
//     rest of the grid.
package experiment

import (
	"fmt"
	"strings"

	"mtsim/internal/adversary"
	"mtsim/internal/countermeasure"
	"mtsim/internal/metrics"
	"mtsim/internal/scenario"
	"mtsim/internal/stats"
)

// Sweep declares a protocol × speed × adversary × repetition grid over a
// base configuration.
type Sweep struct {
	Base      scenario.Config
	Protocols []string
	Speeds    []float64 // MAXSPEED values (m/s)
	Reps      int
	SeedBase  int64
	// Adversaries is the optional threat-model axis (model × k). Empty
	// runs the base configuration's adversary and leaves the cell keys'
	// Adversary field blank, preserving the paper's plain sweep.
	Adversaries []adversary.Spec
	// Countermeasures is the optional defender axis (none / shuffle /
	// aware / shuffle+aware). Empty runs the base configuration's
	// countermeasure and leaves the cell keys' Countermeasure field
	// blank. Crossed with Adversaries it forms the defender-vs-attacker
	// grid behind experiments -only countermeasure.
	Countermeasures []countermeasure.Spec
	// Parallelism bounds the sweep's workers, and with them concurrent
	// cache probes as well as concurrent simulations; 0 means GOMAXPROCS.
	Parallelism int
	// Cache, when non-nil, short-circuits every grid cell whose result is
	// already stored (the run is skipped entirely, its cached metrics are
	// aggregated as if just computed) and persists every newly computed
	// result. Each worker probes the cache for the cell it receives, so
	// Get and Put are called from up to Parallelism goroutines at once. Because the store is content-addressed by the full
	// configuration and seed, this doubles as checkpoint/restore: a killed
	// sweep re-run with the same cache resumes after its completed cells.
	// *runcache.Store is the on-disk implementation; the interface exists
	// for fault injection and future remote stores.
	Cache Cache
	// Watchdog is the per-run deadline pair (simulated-event budget and
	// wall clock) applied to every simulated cell. The zero value is
	// unlimited.
	Watchdog Watchdog
	// KeepGoing degrades gracefully instead of cancelling on the first
	// failed cell: the failure (with its kind) is recorded in
	// Result.Failed and the rest of the grid completes.
	KeepGoing bool
	// Journal, when non-nil, receives one JSONL record per simulated
	// cell (and per cache hit) — the sweep's append-only flake history.
	Journal *Journal
	// Runner, when non-nil, replaces DefaultRunner for every simulated
	// cell — the seam internal/faultinject injects chaos through.
	Runner Runner
	// OnRun, when set, is called after each completed run — including
	// cache hits — for progress reporting. It may be called from multiple
	// goroutines and must be safe for concurrent use.
	OnRun func(m *metrics.RunMetrics)
}

// PaperSweep returns the paper's §IV-A evaluation grid over the given base
// configuration: DSR/AODV/MTS at MAXSPEED ∈ {2,5,10,15,20} m/s, 5
// repetitions.
func PaperSweep(base scenario.Config) Sweep {
	return Sweep{
		Base:      base,
		Protocols: []string{"DSR", "AODV", "MTS"},
		Speeds:    []float64{2, 5, 10, 15, 20},
		Reps:      5,
		SeedBase:  1,
	}
}

// CellKey identifies one aggregation cell. Adversary is the
// adversary.Spec label ("coalition×4") and Countermeasure the
// countermeasure.Spec label ("shuffle×8"); each stays "" when the sweep
// has no such axis.
type CellKey struct {
	Protocol       string
	Speed          float64
	Adversary      string
	Countermeasure string
}

// Result holds the outcome of a sweep: every run indexed by cell, the
// failure records and the cache accounting.
type Result struct {
	Sweep Sweep
	// Runs maps each cell to its surviving repetitions, sorted by seed.
	Runs map[CellKey][]*metrics.RunMetrics
	// CacheHits and CacheMisses count cells served from / missing in the
	// sweep's cache (both 0 when no cache was attached). CachePutErrs
	// counts results that ran fine but could not be persisted (the sweep
	// itself is not failed for a sick cache); CacheFirstPutErr retains the
	// first such error so the summary can name the path and cause instead
	// of only a count.
	CacheHits        int
	CacheMisses      int
	CachePutErrs     int
	CacheFirstPutErr error
	// Failed records every run of a KeepGoing sweep that failed, sorted
	// by cell then seed. Empty on a clean sweep (and
	// always empty without KeepGoing — there the first failure cancels the
	// sweep and is returned as the error instead).
	Failed []FailedCell
	// failed counts failed repetitions per cell, so the
	// renderers can mark degraded cells instead of printing misleading
	// zeros.
	failed map[CellKey]int
}

// axis returns one threat-model axis's effective entries and their
// canonical cell labels: the declared entries, or the base configuration's
// entry under the blank label when none were declared. Entries whose Spec
// labels collide (e.g. two pinned-node variants of the same model × k) get
// a "#n" suffix so no two cells ever merge. It is the one place cell
// labels are derived.
func axis[S interface{ Label() string }](declared []S, base S) ([]S, []string) {
	if len(declared) == 0 {
		return []S{base}, []string{""}
	}
	labels := make([]string, len(declared))
	counts := make(map[string]int, len(declared))
	for i, s := range declared {
		l := s.Label()
		counts[l]++
		if c := counts[l]; c > 1 {
			l = fmt.Sprintf("%s#%d", l, c)
		}
		labels[i] = l
	}
	return declared, labels
}

// AdversaryLabels returns the adversary axis's canonical cell labels in
// axis order — Spec labels plus the "#n" collision suffixes the engine
// keys cells with. Callers addressing cells by label must use these, not
// re-derived Spec.Label()s, or a sweep with colliding specs would query
// cells that do not exist.
func (s Sweep) AdversaryLabels() []string {
	_, labels := axis(s.Adversaries, s.Base.Adversary)
	return labels
}

// CountermeasureLabels is AdversaryLabels for the defender axis.
func (s Sweep) CountermeasureLabels() []string {
	_, labels := axis(s.Countermeasures, s.Base.Countermeasure)
	return labels
}

// orBase renders a blank no-axis label readably.
func orBase(label, blank string) string {
	if label == "" {
		return blank
	}
	return label
}

// allFigures returns every built-in figure definition.
func allFigures() []Figure {
	figs := append(PaperFigures(), AdversaryFigures()...)
	return append(figs, CountermeasureFigures()...)
}

// Mean returns the mean of metric over a cell's repetitions.
func (r *Result) Mean(key CellKey, metric func(*metrics.RunMetrics) float64) float64 {
	return stats.Mean(r.values(key, metric))
}

// CI returns the 95% confidence half-width of metric over a cell.
func (r *Result) CI(key CellKey, metric func(*metrics.RunMetrics) float64) float64 {
	return stats.CI95(r.values(key, metric))
}

func (r *Result) values(key CellKey, metric func(*metrics.RunMetrics) float64) []float64 {
	runs := r.Runs[key]
	out := make([]float64, 0, len(runs))
	for _, m := range runs {
		out = append(out, metric(m))
	}
	return out
}

// cellText renders one 20-character table cell: mean ± CI for a healthy
// cell, a FAILED marker when every repetition of the cell failed (a zero
// there would read as a measurement), and a trailing "!" when some
// repetitions are missing so the mean rests on fewer runs than its
// neighbours. Clean sweeps render byte-identically to the pre-failure
// engine.
func (r *Result) cellText(key CellKey, fig Figure) string {
	if r.cellAllFailed(key) {
		return fmt.Sprintf("%20s", "FAILED")
	}
	vals := r.values(key, fig.Metric)
	mean, ci := stats.Mean(vals), stats.CI95(vals)
	if r.failed[key] > 0 {
		return fmt.Sprintf("%12.4f ±%5.3f!", mean, ci)
	}
	return fmt.Sprintf("%13.4f ±%5.3f", mean, ci)
}

// cellCSV is cellText for the CSV renderers: empty mean/ci fields for an
// all-failed cell (parsers see missing data, not zeros), normal fields
// otherwise.
func (r *Result) cellCSV(key CellKey, fig Figure) string {
	if r.cellAllFailed(key) {
		return ",,"
	}
	vals := r.values(key, fig.Metric)
	return fmt.Sprintf(",%.6f,%.6f", stats.Mean(vals), stats.CI95(vals))
}

// fixed resolves the coordinates a table holds constant: a blank adversary
// or countermeasure label means that axis's first entry — the blank label
// itself when the sweep has no such axis, and never a cell that was not
// produced when it has one.
func (r *Result) fixed(at CellKey) CellKey {
	if at.Adversary == "" {
		at.Adversary = r.Sweep.AdversaryLabels()[0]
	}
	if at.Countermeasure == "" {
		at.Countermeasure = r.Sweep.CountermeasureLabels()[0]
	}
	return at
}

// Series returns the per-speed means for one protocol, in Speeds order,
// at the first entry of each threat-model axis.
func (r *Result) Series(proto string, metric func(*metrics.RunMetrics) float64) []float64 {
	at := r.fixed(CellKey{Protocol: proto})
	out := make([]float64, 0, len(r.Sweep.Speeds))
	for _, v := range r.Sweep.Speeds {
		at.Speed = v
		out = append(out, r.Mean(at, metric))
	}
	return out
}

// Axis selects the row dimension of a figure table.
type Axis int

const (
	// BySpeed has one row per MAXSPEED: the paper's Figs. 5–11.
	BySpeed Axis = iota
	// ByAdversary has one row per adversary (model × k) at a fixed speed —
	// the Ri-vs-coalition-size view the paper's Fig. 7 generalizes to.
	ByAdversary
	// ByCountermeasure has one row per countermeasure at a fixed speed and
	// adversary — the defender-vs-attacker view (how much each defence
	// claws back from that adversary).
	ByCountermeasure
)

// Table renders the figure data as an aligned text table: one row per
// speed, one column per protocol, mean ± 95% CI.
func (r *Result) Table(fig Figure) string { return r.pivot(fig, BySpeed, CellKey{}, false) }

// CSV renders the figure data as CSV (speed, then mean and ci per
// protocol).
func (r *Result) CSV(fig Figure) string { return r.pivot(fig, BySpeed, CellKey{}, true) }

// AxisTable renders the figure data as an aligned text table with one row
// per entry of the rows axis (in axis order), one column per protocol,
// mean ± 95% CI. at holds the other coordinates: its Speed for adversary
// and countermeasure rows, its Adversary and Countermeasure for the rows
// that do not vary them, a blank label meaning that axis's first entry.
// Its Protocol and its row coordinate are ignored.
func (r *Result) AxisTable(fig Figure, rows Axis, at CellKey) string {
	return r.pivot(fig, rows, at, false)
}

// AxisCSV is AxisTable as CSV (row label, then mean and ci per protocol).
func (r *Result) AxisCSV(fig Figure, rows Axis, at CellKey) string {
	return r.pivot(fig, rows, at, true)
}

// pivot is the one figure-table renderer behind Table, CSV, AxisTable and
// AxisCSV: one row per entry of the rows axis, one column per protocol,
// each cell from cellText or (csv) cellCSV. Blank axis labels print as
// "base adversary" / "base".
func (r *Result) pivot(fig Figure, rows Axis, at CellKey, csv bool) string {
	at = r.fixed(at)
	var (
		header, title string
		width         int
		labels        []string
		keys          []CellKey
	)
	switch rows {
	case BySpeed:
		header, width = "maxspeed(m/s)", 14
		if csv {
			header = "maxspeed"
		}
		for _, v := range r.Sweep.Speeds {
			k := at
			k.Speed = v
			labels, keys = append(labels, fmt.Sprintf("%g", v)), append(keys, k)
		}
	case ByAdversary:
		header, width = "adversary", 18
		title = fmt.Sprintf(" at %g m/s", at.Speed)
		for _, l := range r.Sweep.AdversaryLabels() {
			k := at
			k.Adversary = l
			labels, keys = append(labels, orBase(l, "base adversary")), append(keys, k)
		}
	case ByCountermeasure:
		header, width = "countermeasure", 20
		title = fmt.Sprintf(" at %g m/s vs %s", at.Speed, orBase(at.Adversary, "base adversary"))
		for _, l := range r.Sweep.CountermeasureLabels() {
			k := at
			k.Countermeasure = l
			labels, keys = append(labels, orBase(l, "base")), append(keys, k)
		}
	default:
		panic(fmt.Sprintf("experiment: unknown row axis %d", rows))
	}

	var b strings.Builder
	if csv {
		b.WriteString(header)
		for _, p := range r.Sweep.Protocols {
			fmt.Fprintf(&b, ",%s_mean,%s_ci95", p, p)
		}
	} else {
		fmt.Fprintf(&b, "%s — %s", fig.ID, fig.Title)
		if fig.Unit != "" {
			fmt.Fprintf(&b, " (%s)", fig.Unit)
		}
		fmt.Fprintf(&b, "%s\n%-*s", title, width, header)
		for _, p := range r.Sweep.Protocols {
			fmt.Fprintf(&b, "%20s", p)
		}
	}
	b.WriteString("\n")
	for i, key := range keys {
		if csv {
			b.WriteString(labels[i])
		} else {
			fmt.Fprintf(&b, "%-*s", width, labels[i])
		}
		for _, p := range r.Sweep.Protocols {
			key.Protocol = p
			if csv {
				b.WriteString(r.cellCSV(key, fig))
			} else {
				b.WriteString(r.cellText(key, fig))
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}
