package experiment

import (
	"fmt"
	"strings"

	"mtsim/internal/metrics"
	"mtsim/internal/scenario"
)

// Figure describes one of the paper's evaluation figures: which metric it
// plots and what qualitative shape the paper reports.
type Figure struct {
	ID     string
	Title  string
	Unit   string
	Metric func(*metrics.RunMetrics) float64
	// Expect documents the paper's qualitative result; cmd/experiments
	// prints it beneath the figure's table.
	Expect string
}

// PaperFigures returns the definitions of Figs. 5–11 in paper order.
func PaperFigures() []Figure {
	return []Figure{
		{
			ID:     "fig5",
			Title:  "Number of participating nodes",
			Unit:   "nodes",
			Metric: func(m *metrics.RunMetrics) float64 { return float64(m.Participating) },
			Expect: "MTS highest at every speed (source keeps switching across disjoint paths); DSR and AODV lower.",
		},
		{
			ID:     "fig6",
			Title:  "Standard deviation of number of relayed packets (normalized, Eq. 4)",
			Unit:   "σ of γ",
			Metric: func(m *metrics.RunMetrics) float64 { return m.RelayStdDev },
			Expect: "MTS lowest: relaying is spread evenly, no single node dominates.",
		},
		{
			ID:     "fig7",
			Title:  "Highest interception ratio (worst-case eavesdropper, max β / Pr)",
			Unit:   "ratio",
			Metric: func(m *metrics.RunMetrics) float64 { return m.HighestInterception },
			Expect: "MTS lowest: the most-used relay sees the smallest share of traffic.",
		},
		{
			ID:     "fig8",
			Title:  "Average end-to-end delay",
			Unit:   "s",
			Metric: func(m *metrics.RunMetrics) float64 { return m.AvgDelaySec },
			Expect: "MTS lowest (always rides the currently fastest path); DSR < AODV at low speed (cache hits).",
		},
		{
			ID:     "fig9",
			Title:  "Average TCP throughput",
			Unit:   "pkt/s",
			Metric: func(m *metrics.RunMetrics) float64 { return m.ThroughputPps },
			Expect: "MTS highest; DSR degrades as speed grows (stale caches idle the connection).",
		},
		{
			ID:     "fig10",
			Title:  "Average rate of successful delivery",
			Unit:   "fraction",
			Metric: func(m *metrics.RunMetrics) float64 { return m.DeliveryRate },
			Expect: "DSR drops sharply with speed; AODV and MTS stay roughly flat.",
		},
		{
			ID:     "fig11",
			Title:  "Control overhead (routing packet transmissions)",
			Unit:   "packets",
			Metric: func(m *metrics.RunMetrics) float64 { return float64(m.ControlPkts) },
			Expect: "MTS highest (periodic checking packets); DSR lowest (cache idleness).",
		},
	}
}

// AdversaryFigures returns the extension figures for the adversary sweep
// (internal/adversary): how interception and delivery respond as the
// threat model strengthens from the paper's lone eavesdropper to
// coalitions, mobile taps and dropping relays.
func AdversaryFigures() []Figure {
	return []Figure{
		{
			ID:     "advRi",
			Title:  "Coalition interception ratio (union Pe / Pr, Eq. 1 generalized)",
			Unit:   "ratio",
			Metric: func(m *metrics.RunMetrics) float64 { return m.InterceptionRatio },
			Expect: "Grows with coalition size k for every protocol; MTS lowest at each k (paths disjoint, no tap sees much).",
		},
		{
			ID:     "advPe",
			Title:  "Distinct data packets intercepted (union Pe)",
			Unit:   "packets",
			Metric: func(m *metrics.RunMetrics) float64 { return float64(m.CoalitionDistinct) },
			Expect: "Union grows sublinearly in k: colluding taps overhear overlapping traffic.",
		},
		{
			ID:     "advDrop",
			Title:  "Data packets dropped by adversarial relays",
			Unit:   "packets",
			Metric: func(m *metrics.RunMetrics) float64 { return float64(m.AdversaryDropped) },
			Expect: "Zero for passive models; blackholes drop more than grayholes at equal k.",
		},
		{
			ID:     "advDeliv",
			Title:  "Delivery rate under adversary",
			Unit:   "fraction",
			Metric: func(m *metrics.RunMetrics) float64 { return m.DeliveryRate },
			Expect: "Dropping relays depress delivery; multipath protocols route around them faster.",
		},
	}
}

// CountermeasureFigures returns the defender-side extension figures
// (internal/countermeasure): how much of the intercepted stream remains
// reassemblable once data shuffling fragments it, and what the defences
// cost. Together with advRi/advDeliv they form the defender-vs-attacker
// grid of experiments -only countermeasure.
func CountermeasureFigures() []Figure {
	return []Figure{
		{
			ID:     "cmStreamRun",
			Title:  "Longest in-order intercepted streak",
			Unit:   "packets",
			Metric: func(m *metrics.RunMetrics) float64 { return float64(m.InterceptedStreamRun) },
			Expect: "Shuffling collapses streaks toward the block size's reciprocal; undefended TCP streams for hundreds of packets.",
		},
		{
			ID:     "cmStreamBytes",
			Title:  "Intercepted contiguous bytes as heard (in-order streaks ≥ 2 × payload)",
			Unit:   "bytes",
			Metric: func(m *metrics.RunMetrics) float64 { return float64(m.InterceptedStreamBytes) },
			Expect: "Shuffling lowest at equal delivery rate — the committed defender-vs-attacker claim.",
		},
		{
			ID:     "cmStreamRatio",
			Title:  "Stream contiguity ratio (in-order intercepted packets / Pe)",
			Unit:   "fraction",
			Metric: func(m *metrics.RunMetrics) float64 { return m.InterceptedStreamRatio },
			Expect: "Near 1 undefended (TCP emits in order); drops sharply under shuffle.",
		},
		{
			ID:     "cmReasmRun",
			Title:  "Longest reassemblable run (set view, offline reordering allowed)",
			Unit:   "packets",
			Metric: func(m *metrics.RunMetrics) float64 { return float64(m.InterceptedLongestRun) },
			Expect: "Moves only where dispersal keeps whole segments out of the taps' radio range.",
		},
		{
			ID:     "cmShuffled",
			Title:  "Segments released in permuted order",
			Unit:   "packets",
			Metric: func(m *metrics.RunMetrics) float64 { return float64(m.ShuffledSegments) },
			Expect: "Zero for none/aware; tracks SegmentsSent for shuffle models.",
		},
	}
}

// FigureByID finds a figure definition, searching the paper's figures and
// the adversary/countermeasure extension figures.
func FigureByID(id string) (Figure, bool) {
	for _, f := range allFigures() {
		if f.ID == id {
			return f, true
		}
	}
	return Figure{}, false
}

// Table1 runs the paper's Table I demonstration: one DSR scenario, the
// per-participating-node relay counts, their normalization, and σ.
func Table1(base scenario.Config, seed int64) (string, error) {
	cfg := base
	cfg.Protocol = "DSR"
	cfg.Seed = seed
	m, err := scenario.RunOne(cfg)
	if err != nil {
		return "", err
	}
	return RenderTable1(m), nil
}

// RenderTable1 formats a run's relay table in the layout of Table I.
func RenderTable1(m *metrics.RunMetrics) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table I — Normalization of the received packets in the participating nodes (%s, maxspeed=%g m/s, seed=%d)\n",
		m.Protocol, m.MaxSpeed, m.Seed)
	fmt.Fprintf(&b, "%-8s%12s%12s\n", "Node ID", "β", "γ")
	for _, row := range m.RelayRows {
		fmt.Fprintf(&b, "%-8d%12d%11.5f%%\n", row.Node, row.Beta, row.Gamma*100)
	}
	fmt.Fprintf(&b, "%-8s%12d\n", "α", m.Alpha)
	fmt.Fprintf(&b, "%-8s%11.2f%%\n", "σ", m.RelayStdDev*100)
	return b.String()
}
