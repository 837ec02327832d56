// Package adversary generalizes the paper's single eavesdropping node
// (§IV-B) into a pluggable threat-model subsystem. The paper measures the
// interception ratio Ri = Pe/Pr against one randomly placed passive tap,
// but its threat model worries about stronger opponents: related work
// assumes cooperating interceptors (Shuffling) and insider relays that
// drop, tunnel or rush (AODVSEC). This package models them as one
// Adversary type whose interception accounting is a shared eaves.Ledger;
// only Build's per-model wiring differs:
//
//   - eavesdropper, coalition: k static taps whose Pe is the union of
//     distinct DataIDs intercepted by any member;
//   - mobile, adaptive: one roaming tap over k hosts that re-taps every
//     Interval — to the next host on its tour, or to whichever host
//     overheard the most data since the last move;
//   - blackhole, grayhole: compromised relays that route like honest nodes
//     but drop the data packets they are asked to forward — always, or
//     with probability DropRate — while still collecting what they hear;
//   - wormhole, rushing: relays that manipulate route discovery (a
//     control-plane tunnel, jitter-free RREQ floods) to attract routes.
//
// All models are passive with respect to the random streams of legitimate
// traffic: taps never touch protocol RNGs or timers, so attaching an
// adversary perturbs nothing but what it is modelled to perturb (droppers
// remove frames from the air; pure eavesdroppers change no bit of the
// run). A coalition of k=1 is the paper's lone eavesdropper.
package adversary

import (
	"fmt"
	"slices"

	"mtsim/internal/eaves"
	"mtsim/internal/node"
	"mtsim/internal/packet"
	"mtsim/internal/sim"
)

// Model names accepted in Spec.Model.
const (
	// ModelEavesdropper is the paper's §IV-B adversary: one static
	// passive tap. It is the default.
	ModelEavesdropper = "eavesdropper"
	// ModelCoalition is k colluding static taps sharing what they hear.
	ModelCoalition = "coalition"
	// ModelMobile is one tap that moves to a new host every Interval.
	ModelMobile = "mobile"
	// ModelBlackhole is k compromised relays dropping all forwarded data.
	ModelBlackhole = "blackhole"
	// ModelGrayhole is k compromised relays dropping forwarded data with
	// probability DropRate.
	ModelGrayhole = "grayhole"
	// ModelAdaptive is one tap that re-taps every Interval toward whichever
	// vantage point has recently overheard the most traffic, instead of
	// touring blindly.
	ModelAdaptive = "adaptive"
	// ModelWormhole is a pair of colluding relays joined by an out-of-band
	// tunnel that teleports route-discovery control traffic between them,
	// advertising a phantom one-hop link that attracts routes (AODVSEC's
	// wormhole attack).
	ModelWormhole = "wormhole"
	// ModelRushing is k compromised relays that strip the broadcast jitter
	// from the route-request floods they forward, winning the duplicate-
	// suppression race so discovered routes run through them (AODVSEC's
	// rushing attack).
	ModelRushing = "rushing"
)

// Models lists every selectable adversary model.
func Models() []string {
	return []string{ModelEavesdropper, ModelCoalition, ModelMobile, ModelBlackhole, ModelGrayhole,
		ModelAdaptive, ModelWormhole, ModelRushing}
}

// Spec declares an adversary in a scenario configuration. The zero Spec
// means "the paper's default": a single random eavesdropper.
type Spec struct {
	// Model selects the adversary class; empty means ModelEavesdropper.
	Model string
	// K is the number of vantage points: coalition members, hosts on a
	// mobile eavesdropper's tour, or compromised relays. 0 means 1.
	K int
	// Nodes pins the compromised nodes explicitly (len overrides K); for
	// ModelMobile it also fixes the tour order. Empty picks K random
	// nodes that are not flow endpoints.
	Nodes []packet.NodeID
	// Interval is the mobile eavesdropper's re-tap period; 0 means 10 s.
	Interval sim.Duration
	// DropRate is the grayhole's per-packet drop probability; 0 means 0.5.
	// Blackholes always drop.
	DropRate float64
}

// EffectiveK returns the number of vantage points the spec asks for. A
// wormhole is always a pair of tunnel endpoints.
func (s Spec) EffectiveK() int {
	if len(s.Nodes) > 0 {
		return len(s.Nodes)
	}
	if s.K <= 0 {
		if s.Model == ModelWormhole {
			return 2
		}
		return 1
	}
	return s.K
}

// EffectiveModel resolves an empty Model the same way everywhere (labels,
// Build, scenario wiring): one vantage point defaults to the paper's
// eavesdropper, several imply a coalition.
func (s Spec) EffectiveModel() string {
	if s.Model != "" {
		return s.Model
	}
	if s.EffectiveK() > 1 {
		return ModelCoalition
	}
	return ModelEavesdropper
}

// Label is the spec's canonical sweep-axis identity, "model×k"
// (e.g. "coalition×4"), with explicitly-set tuning knobs appended
// ("grayhole×2@p0.3", "mobile×3@5s") so differently-tuned specs never
// collapse into one aggregation cell. It names cells and table rows.
func (s Spec) Label() string {
	lbl := fmt.Sprintf("%s×%d", s.EffectiveModel(), s.EffectiveK())
	if s.DropRate > 0 {
		lbl += fmt.Sprintf("@p%g", s.DropRate)
	}
	if s.Interval > 0 {
		lbl += fmt.Sprintf("@%gs", s.Interval.Seconds())
	}
	return lbl
}

// Validate rejects specs Build would refuse or whose knobs the selected
// model would silently ignore — a grayhole experiment mistyped as a
// coalition must fail loudly, not report clean-network numbers. The
// scenario builder calls it before any node is built.
func (s Spec) Validate() error {
	model := s.EffectiveModel()
	if !slices.Contains(Models(), model) {
		return fmt.Errorf("adversary: unknown model %q", s.Model)
	}
	if s.K < 0 {
		return fmt.Errorf("adversary: negative K %d", s.K)
	}
	if s.Interval < 0 {
		return fmt.Errorf("adversary: negative Interval %v", s.Interval)
	}
	if !(s.DropRate >= 0 && s.DropRate <= 1) {
		return fmt.Errorf("adversary: DropRate %g is not a probability in [0, 1]", s.DropRate)
	}
	if s.DropRate != 0 && model != ModelGrayhole {
		return fmt.Errorf("adversary: DropRate applies to %q only, not %q", ModelGrayhole, model)
	}
	if s.Interval != 0 && model != ModelMobile && model != ModelAdaptive {
		return fmt.Errorf("adversary: Interval applies to %q or %q only, not %q", ModelMobile, ModelAdaptive, model)
	}
	return nil
}

// Adversary is one attached threat model. Its embedded ledger reports the
// per-run interception metrics after the simulation has run (Members,
// Distinct, Frames, Ratio, Dropped, Attracted, Contiguity).
type Adversary struct {
	eaves.Ledger
	model string
	hosts []*node.Node // vantage points, in member order

	// Roaming taps (mobile, adaptive): the host currently listening, and
	// for adaptive the data frames each host overheard since the last move.
	active int
	recent []uint64
	moves  uint64

	// Grayhole coin flips; rate 1 is a blackhole.
	rate float64
	rng  *sim.RNG

	// Wormhole control packets in tunnel flight.
	pend       []*tunnelled
	tunnelledN uint64
}

// Model returns the model name (ModelCoalition etc.).
func (a *Adversary) Model() string { return a.model }

// Active returns the node a roaming tap currently listens at (tests, demos).
func (a *Adversary) Active() packet.NodeID { return a.hosts[a.active].ID() }

// Moves returns how many re-tap decisions a roaming tap has made (tests).
func (a *Adversary) Moves() uint64 { return a.moves }

// Build attaches the spec's adversary model to the given host nodes
// (already selected by the scenario builder; len(hosts) == EffectiveK).
// The spec must have passed Validate. rng drives model-internal
// randomness only — a roaming tap's tour order, a grayhole's coin flips —
// and must be a stream independent of the legitimate stack's streams so
// that adding an adversary does not perturb mobility, traffic or protocol
// behaviour. It may be nil for models that need no randomness.
func Build(spec Spec, hosts []*node.Node, rng *sim.RNG) (*Adversary, error) {
	if len(hosts) == 0 {
		return nil, fmt.Errorf("adversary: no host nodes")
	}
	model := spec.EffectiveModel()
	a := &Adversary{Ledger: eaves.NewLedger(), model: model, hosts: hosts}
	switch model {
	case ModelEavesdropper, ModelCoalition:
		if model == ModelEavesdropper && len(hosts) != 1 {
			return nil, fmt.Errorf("adversary: model %q wants exactly 1 node, have %d", model, len(hosts))
		}
		for _, h := range hosts {
			a.Tap(h)
		}
	case ModelMobile, ModelAdaptive:
		// An explicitly pinned tour is honoured in the declared order;
		// only randomly selected hosts get a shuffled tour.
		if len(spec.Nodes) > 0 {
			rng = nil
		}
		a.roam(spec.Interval, rng)
	case ModelBlackhole, ModelGrayhole:
		a.rate = 1
		if model == ModelGrayhole {
			a.rate, a.rng = spec.DropRate, rng
			if a.rate <= 0 {
				a.rate = 0.5
			}
		}
		for _, h := range hosts {
			a.Tap(h)
			self := h.ID()
			h.AddStage(node.Stage{Send: func(p *packet.Packet, _ packet.NodeID) node.Verdict {
				return a.drop(self, p)
			}})
		}
	case ModelWormhole, ModelRushing:
		if model == ModelWormhole && len(hosts) != 2 {
			return nil, fmt.Errorf("adversary: model %q wants exactly 2 endpoints, have %d", model, len(hosts))
		}
		for i, h := range hosts {
			a.Tap(h)
			a.TapAttracted(h)
			if model == ModelWormhole {
				h.AddStage(node.Stage{Send: func(p *packet.Packet, next packet.NodeID) node.Verdict {
					return a.tunnelControl(i, p, next)
				}})
			} else {
				h.AddStage(node.Stage{Jitter: rushJitter})
			}
		}
	default:
		return nil, fmt.Errorf("adversary: unknown model %q", spec.Model)
	}
	return a, nil
}

// roam attaches a single tap that listens at one host at a time: it
// starts at the first host of the tour (shuffled by one rng.Perm when rng
// is non-nil) and re-taps every Interval (default 10 s). Only the active
// host collects; an adaptive tap also counts, at every host, the data
// frames it overhears, so the next move can chase the traffic.
//
// Determinism: the tour order is the only randomness — at most one Perm at
// construction and zero draws afterwards (TestAdaptiveRNGDraws).
func (a *Adversary) roam(interval sim.Duration, rng *sim.RNG) {
	if rng != nil {
		perm := rng.Perm(len(a.hosts))
		tour := make([]*node.Node, len(a.hosts))
		for i, j := range perm {
			tour[i] = a.hosts[j]
		}
		a.hosts = tour
	}
	if a.model == ModelAdaptive {
		a.recent = make([]uint64, len(a.hosts))
	}
	for _, h := range a.hosts {
		i := a.Join(h)
		h.AddStage(node.Stage{Tap: func(f *packet.Frame) {
			if !eaves.Counts(f) {
				return
			}
			if a.recent != nil {
				a.recent[i]++
			}
			if i == a.active {
				a.Hear(i, f.Payload.DataID)
			}
		}})
	}
	if interval <= 0 {
		interval = 10 * sim.Second
	}
	sched := a.hosts[0].Scheduler()
	var move func()
	move = func() {
		a.retap()
		sched.After(interval, move)
	}
	sched.After(interval, move)
}

// retap moves the roaming tap to the next host on its tour or, for an
// adaptive tap, to the host that overheard the most data frames since the
// previous move (ties go to the earlier tour position; an all-quiet field
// falls back to the next host), then resets the counters so the next
// decision reflects only fresh evidence.
func (a *Adversary) retap() {
	a.moves++
	next, most := (a.active+1)%len(a.hosts), uint64(0)
	for i, c := range a.recent {
		if c > most {
			next, most = i, c
		}
	}
	a.active = next
	clear(a.recent)
}

// drop is a dropping relay's Send stage, the insider policy: only
// transit data packets are dropped. Packets the relay originates itself,
// and all routing control traffic, pass through — a dropper that broke
// discovery would never be routed through in the first place.
func (a *Adversary) drop(self packet.NodeID, p *packet.Packet) node.Verdict {
	if p.Kind != packet.KindData || p.DataID == 0 || p.Src == self {
		return node.Pass
	}
	if a.rate < 1 && a.rng != nil && a.rng.Float64() >= a.rate {
		return node.Pass
	}
	a.CountDrop()
	return node.Drop
}
