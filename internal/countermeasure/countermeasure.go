// Package countermeasure is the defender-side mirror of
// internal/adversary: pluggable countermeasures that reduce what an
// eavesdropping adversary can reconstruct from the traffic it intercepts.
// Where the adversary subsystem generalizes the paper's lone tap into
// coalitions, roaming taps and insider relays, this package models the
// three defences the related work proposes on top of multipath routing,
// all attached as one Defence whose model decides which parts it holds:
//
//   - Data shuffling (the Shuffling baseline of PAPERS.md, arXiv
//     1307.4076): outgoing TCP segments are buffered into small blocks at
//     the source and released in a permuted order drawn from a
//     deterministic per-node RNG; combined with per-packet dispersal
//     across MTS's disjoint paths (core.New's disperse), a tapped relay
//     no longer observes a contiguous byte stream — the intercepted
//     DataIDs fragment into short runs the attacker cannot reassemble.
//     Measured by the intercepted-contiguity metrics in
//     metrics.RunMetrics (InterceptedLongestRun and friends).
//
//   - Adversary-aware MTS (in the spirit of security-aware routing, arXiv
//     1609.02288): a path-selection policy that penalises routes through
//     relays that have already carried a large share of this source's
//     data (core.New's awarePenalty). The heuristic uses only the
//     source's own forwarding observations — no oracle knowledge of where
//     the taps sit — and caps the worst-case single-relay exposure
//     (Fig. 7's highest interception ratio).
//
//   - Trust-scored path selection (arXiv 2006.01404): every node keeps
//     per-neighbour trust scores fed by its own watchdog and MAC
//     evidence (TrustTable), and all four protocols route around
//     distrusted links.
//
// Invariants: the zero Spec attaches nothing, derives no RNG stream and
// perturbs no bit of a legacy run. Shuffling never creates or destroys
// packets — it releases exactly the segments it claimed, a permutation
// per block (property-tested) — and every segment still buffered at the
// run horizon is handed back to the arena by Retire, keeping the
// leak-accounting ledger closed.
package countermeasure

import (
	"fmt"

	"mtsim/internal/node"
	"mtsim/internal/sim"
)

// Model names accepted in Spec.Model.
const (
	// ModelNone is the explicit no-countermeasure baseline (what the zero
	// Spec and the paper's scenarios run).
	ModelNone = "none"
	// ModelShuffle is data shuffling: permuted block release at the
	// source plus per-packet dispersal across MTS's disjoint paths.
	ModelShuffle = "shuffle"
	// ModelAware is adversary-aware MTS path selection: checking-round
	// switches are re-scored by each path's observed forwarding share.
	ModelAware = "aware"
	// ModelShuffleAware combines both defences.
	ModelShuffleAware = "shuffle+aware"
	// ModelTrust is trust-scored path selection (the trust-based secure
	// multipath defence of arXiv 2006.01404): every node keeps
	// per-neighbour trust scores fed by forwarding evidence — watchdog
	// overhearing, MAC link failures — and all four protocols fold the
	// scores into path selection as a trust-weighted cost, routing around
	// low-trust links (wormhole endpoints, rushers that turn dropper,
	// black/grayholes).
	ModelTrust = "trust"
)

// Models lists every selectable countermeasure model.
func Models() []string {
	return []string{ModelNone, ModelShuffle, ModelAware, ModelShuffleAware, ModelTrust}
}

// maxHold bounds Spec.Hold. The flush timer is armed whenever a block
// opens, and a hold near the clock's range would overflow the deadline
// of a timer armed late in a run; no experiment wants a block to wait
// longer than an hour of simulated time.
const maxHold = 3600 * sim.Second

// Spec declares a countermeasure in a scenario configuration. The zero
// Spec means "no countermeasure" — the paper's undefended baseline.
type Spec struct {
	// Model selects the defence; empty means ModelNone.
	Model string
	// Depth is the shuffle block size in segments; 0 means 8.
	Depth int
	// Hold is how long a partial shuffle block waits for more segments
	// before being flushed anyway; 0 means 25 ms. At most one hour.
	Hold sim.Duration
	// Penalty is the aware policy's usage-skew weight: the nominated
	// (fastest) path loses a switch only to a path whose first-hop
	// forwarding share is more than Penalty lower. 0 means 0.15.
	Penalty float64
	// Threshold is the trust model's distrust cutoff: a neighbour whose
	// score falls below it is routed around when an alternative exists.
	// 0 means 0.35.
	Threshold float64
}

// EffectiveModel resolves an empty Model to ModelNone.
func (s Spec) EffectiveModel() string {
	if s.Model == "" {
		return ModelNone
	}
	return s.Model
}

// Shuffles reports whether the spec asks for data shuffling.
func (s Spec) Shuffles() bool {
	m := s.EffectiveModel()
	return m == ModelShuffle || m == ModelShuffleAware
}

// Aware reports whether the spec asks for adversary-aware path selection.
func (s Spec) Aware() bool {
	m := s.EffectiveModel()
	return m == ModelAware || m == ModelShuffleAware
}

// Trusts reports whether the spec asks for trust-scored path selection.
func (s Spec) Trusts() bool { return s.EffectiveModel() == ModelTrust }

// EffectiveDepth returns the shuffle block size the spec asks for.
func (s Spec) EffectiveDepth() int {
	if s.Depth <= 0 {
		return 8
	}
	return s.Depth
}

// EffectiveHold returns the partial-block flush timeout.
func (s Spec) EffectiveHold() sim.Duration {
	if s.Hold <= 0 {
		return 25 * sim.Millisecond
	}
	return s.Hold
}

// EffectivePenalty returns the aware policy's usage-skew weight.
func (s Spec) EffectivePenalty() float64 {
	if s.Penalty <= 0 {
		return 0.15
	}
	return s.Penalty
}

// EffectiveThreshold returns the trust model's distrust cutoff.
func (s Spec) EffectiveThreshold() float64 {
	if s.Threshold <= 0 {
		return 0.35
	}
	return s.Threshold
}

// Validate rejects knobs the selected model would silently ignore — a
// shuffle experiment mistyped as "aware" must fail loudly, not report
// undefended contiguity numbers (the same contract adversary.Spec.Validate
// enforces for DropRate/Interval).
func (s Spec) Validate() error {
	// A negative knob would silently fall back to its default.
	if s.Depth < 0 || s.Hold < 0 || !(s.Penalty >= 0) {
		return fmt.Errorf("countermeasure: negative knob (Depth %d, Hold %v, Penalty %g)",
			s.Depth, s.Hold, s.Penalty)
	}
	if s.Hold > maxHold {
		return fmt.Errorf("countermeasure: Hold %v is longer than %v", s.Hold, maxHold)
	}
	if !(s.Threshold >= 0 && s.Threshold <= 1) {
		return fmt.Errorf("countermeasure: Threshold %g is not a score in [0, 1]", s.Threshold)
	}
	if s.Threshold != 0 && s.EffectiveModel() != ModelTrust {
		return fmt.Errorf("countermeasure: Threshold applies to %q only, not %q",
			ModelTrust, s.EffectiveModel())
	}
	switch m := s.EffectiveModel(); m {
	case ModelNone:
		if s.Depth != 0 || s.Hold != 0 || s.Penalty != 0 {
			return fmt.Errorf("countermeasure: model %q takes no tuning knobs", m)
		}
	case ModelShuffle:
		if s.Penalty != 0 {
			return fmt.Errorf("countermeasure: Penalty applies to %q/%q only, not %q",
				ModelAware, ModelShuffleAware, m)
		}
	case ModelAware:
		if s.Depth != 0 || s.Hold != 0 {
			return fmt.Errorf("countermeasure: Depth/Hold apply to %q/%q only, not %q",
				ModelShuffle, ModelShuffleAware, m)
		}
	case ModelShuffleAware:
	case ModelTrust:
		if s.Depth != 0 || s.Hold != 0 || s.Penalty != 0 {
			return fmt.Errorf("countermeasure: model %q takes only the Threshold knob", m)
		}
	default:
		return fmt.Errorf("countermeasure: unknown model %q", s.Model)
	}
	return nil
}

// Label is the spec's canonical sweep-axis identity: "none", "shuffle×8"
// (model × block depth), "aware@p0.15", "shuffle+aware×8@p0.15" —
// explicitly set knobs appended so differently tuned specs never collapse
// into one aggregation cell. It names cells and table rows.
func (s Spec) Label() string {
	m := s.EffectiveModel()
	lbl := m
	if s.Shuffles() {
		lbl += fmt.Sprintf("×%d", s.EffectiveDepth())
		if s.Hold > 0 {
			lbl += fmt.Sprintf("@%gms", s.Hold.Seconds()*1000)
		}
	}
	if s.Aware() && s.Penalty > 0 {
		lbl += fmt.Sprintf("@p%g", s.Penalty)
	}
	if s.Trusts() && s.Threshold > 0 {
		lbl += fmt.Sprintf("@t%g", s.Threshold)
	}
	return lbl
}

// Defence is one attached countermeasure: its model, the shufflers at
// the traffic sources and the per-node trust tables, each present only
// when the model asks for it. The aware policy's effect is counted by the
// MTS router itself (core.Stats.AwareOverrides).
type Defence struct {
	spec      Spec
	shufflers []*Shuffler
	tables    []*TrustTable
}

// New starts the defence a validated spec declares, with nothing attached
// yet. The aware half of a spec is not built here: it is a path-selection
// policy inside the MTS router, enabled by the scenario builder through
// core.New's awarePenalty. The defence wires what lives outside the
// protocol, through AttachTrust and AttachShufflers.
func New(spec Spec) *Defence {
	return &Defence{spec: spec}
}

// AttachTrust registers a trust table as a stage on h when the model
// keeps trust, and returns it (nil otherwise). Trust wants a table on
// every node, attached before the node's routing protocol is constructed:
// routers capture the node's trust oracle at New.
func (d *Defence) AttachTrust(h Host) *TrustTable {
	if !d.spec.Trusts() {
		return nil
	}
	tbl := NewTrustTable(h.ID(), h.Scheduler(), d.spec.EffectiveThreshold())
	d.tables = append(d.tables, tbl)
	h.AddStage(node.Stage{Sent: tbl.NoteSend, LinkFailed: tbl.NoteLinkFailure, Tap: tbl.TapFrame, Trust: tbl})
	return tbl
}

// AttachShufflers installs one shuffler on each traffic source node when
// the model shuffles, and does nothing otherwise. rng is the defence's own
// derived stream; per-node shuffle streams are derived from it by stable
// labels, so attaching a defender perturbs nothing but what it is
// modelled to perturb.
func (d *Defence) AttachShufflers(sources []Host, rng *sim.RNG) error {
	spec := d.spec
	if !spec.Shuffles() {
		return nil
	}
	if len(sources) == 0 {
		return fmt.Errorf("countermeasure: no traffic source nodes to shuffle at")
	}
	if rng == nil {
		return fmt.Errorf("countermeasure: model %q needs an RNG stream", spec.EffectiveModel())
	}
	for _, h := range sources {
		sh := NewShuffler(h, rng.Derive(fmt.Sprintf("shuffle/%d", h.ID())),
			spec.EffectiveDepth(), spec.EffectiveHold())
		d.shufflers = append(d.shufflers, sh)
	}
	return nil
}

// Model returns the model name (ModelShuffle etc.).
func (d *Defence) Model() string { return d.spec.EffectiveModel() }

// Shuffled returns the number of segments released in permuted order.
func (d *Defence) Shuffled() uint64 {
	var n uint64
	for _, sh := range d.shufflers {
		n += sh.Shuffled
	}
	return n
}

// Blocks returns the number of shuffle blocks flushed.
func (d *Defence) Blocks() uint64 {
	var n uint64
	for _, sh := range d.shufflers {
		n += sh.Blocks
	}
	return n
}

// Retire hands every segment still buffered at the run horizon back to
// the arena (leak accounting; see packet.Arena). Trust tables hold no
// packets. Idempotent.
func (d *Defence) Retire() {
	for _, sh := range d.shufflers {
		sh.Retire()
	}
}
