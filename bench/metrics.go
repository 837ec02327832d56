package bench

import (
	"math"
	"sort"
	"time"
)

// metricDef declares one metric the benchmark emits. BENCHMARK.json at
// the repository root lists the same names and units (the smoke test
// holds the two in step); bounds live only there.
type metricDef struct {
	name, unit string
	// gated marks a per-layer metric that is a function of the simulated
	// inputs: two runs of one seed must agree on it, exactly or, where tol
	// is set, within that share of the base run's value.
	gated bool
	tol   float64
}

// EndToEnd are the metrics of an untraced run: what a user of the
// simulator waits on or pays for.
var endToEnd = []metricDef{
	{name: "wall_s", unit: "s"},
	{name: "op_ms_p50", unit: "ms"},
	{name: "op_ms_p90", unit: "ms"},
	{name: "setup_s", unit: "s"},
	{name: "peak_rss_mb", unit: "MB"},
}

// selfLayers are the layers the CPU profile charges self time to: one per
// mtsim/internal package the workloads execute, plus runtime (samples
// with no mtsim frame) and trace (the benchmark's own frames).
var selfLayers = []string{
	"sim", "phy", "geo", "mobility", "mac", "packet", "node", "routing",
	"dsr", "aodv", "smr", "core", "tcp", "app", "eaves", "adversary",
	"countermeasure", "metrics", "scenario", "experiment", "runcache",
	"stats", "runtime", "trace",
}

// perLayer are the metrics of a traced run.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{name: "scenario.build_ms_p50", unit: "ms"},
		{name: "sim.run_ms_p50", unit: "ms"},
		{name: "metrics.gather_ms_p50", unit: "ms"},
		{name: "scenario.retire_ms_p50", unit: "ms"},
		{name: "runcache.get_us_p50", unit: "us"},
		{name: "runcache.get_us_p90", unit: "us"},
		{name: "runcache.put_us_p50", unit: "us"},
		{name: "routing.send_calls_per_op", unit: "count/op", gated: true},
		{name: "routing.receive_calls_per_op", unit: "count/op", gated: true},
		{name: "routing.linkfailed_calls_per_op", unit: "count/op", gated: true},
		{name: "routing.incl_ms_per_op", unit: "ms/op"},
		{name: "experiment.sweep_ms_p50", unit: "ms"},
		{name: "experiment.render_ms_p50", unit: "ms"},
		{name: "trace.overhead_frac", unit: "fraction"},
		{name: "trace.profile_samples", unit: "count"},
	}
	for _, l := range selfLayers {
		defs = append(defs, metricDef{name: l + ".self_frac", unit: "fraction"})
	}
	return append(defs, []metricDef{
		{name: "sim.ns_per_event", unit: "ns"},
		{name: "phy.us_per_frame", unit: "us"},
		{name: "sim.events_per_op", unit: "count/op", gated: true},
		{name: "phy.frames_per_op", unit: "count/op", gated: true},
		{name: "phy.collided_frac", unit: "fraction", gated: true},
		{name: "mac.rts_per_op", unit: "count/op", gated: true},
		{name: "mac.cts_per_op", unit: "count/op", gated: true},
		{name: "mac.data_per_op", unit: "count/op", gated: true},
		{name: "mac.ack_per_op", unit: "count/op", gated: true},
		{name: "mac.retries_per_op", unit: "count/op", gated: true},
		{name: "mac.queue_drops_per_op", unit: "count/op", gated: true},
		{name: "mac.link_failures_per_op", unit: "count/op", gated: true},
		{name: "routing.control_per_op", unit: "count/op", gated: true},
		{name: "routing.discoveries_per_op", unit: "count/op", gated: true},
		{name: "core.switches_per_op", unit: "count/op", gated: true},
		{name: "core.checks_per_op", unit: "count/op", gated: true},
		{name: "dsr.salvages_per_op", unit: "count/op", gated: true},
		{name: "tcp.segments_per_op", unit: "count/op", gated: true},
		{name: "tcp.retx_per_op", unit: "count/op", gated: true},
		{name: "tcp.timeouts_per_op", unit: "count/op", gated: true},
		{name: "tcp.goodput_frac", unit: "fraction", gated: true},
		{name: "adversary.dropped_per_op", unit: "count/op", gated: true},
		{name: "adversary.attracted_per_op", unit: "count/op", gated: true},
		{name: "eaves.frames_per_op", unit: "count/op", gated: true},
		{name: "countermeasure.trust_drops_per_op", unit: "count/op", gated: true},
		{name: "countermeasure.shuffled_per_op", unit: "count/op", gated: true},
		{name: "runcache.hit_frac", unit: "fraction", gated: true},
		// Allocation counts barely move between runs of one seed but are
		// heavy-tailed across seeds, so they are gated per seed here.
		{name: "runtime.mallocs_per_op", unit: "count/op", gated: true, tol: 0.01},
		{name: "runtime.alloc_mb_per_op", unit: "MB/op"},
		{name: "runtime.gc_cycles_per_op", unit: "count/op"},
		{name: "runtime.gc_pause_ms_per_op", unit: "ms/op"},
		{name: "engine.cpu_s", unit: "s"},
		{name: "engine.cores_busy", unit: "cores"},
	}...)
}()

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(xs, n=4) computes them (its default "exclusive"
// method), which is how run-to-run spread is judged.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	at := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(3)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

func durationsUS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = us(d)
	}
	return out
}
