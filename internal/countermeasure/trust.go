package countermeasure

import (
	"mtsim/internal/packet"
	"mtsim/internal/sim"
)

// WatchdogTimeout is how long a neighbour is given to re-air a data
// packet it accepted for forwarding before the obligation counts as a
// drop. Generous relative to MAC contention + queueing under load, so an
// honest but busy relay is not falsely accused; a wormhole endpoint or
// blackhole NEVER airs the frame, so it accumulates expiries regardless.
const WatchdogTimeout = 500 * sim.Millisecond

// trustCostWeight scales distrust into path-selection cost: a neighbour
// with score s adds (1-s)*trustCostWeight to any path through it, in
// hop-count units. 8 means a fully distrusted hop outweighs an 8-hop
// detour — comfortably more than the shortcut a field-spanning phantom
// wormhole link offers.
const trustCostWeight = 8.0

// maxPendingObligations bounds the per-neighbour watchdog queue; the
// oldest obligation is force-expired (counted as a drop) when a new send
// would overflow it. A neighbour that is 64 unforwarded packets behind
// has earned the penalty either way.
const maxPendingObligations = 64

// obligation is one unfulfilled forwarding promise: the neighbour
// accepted a data packet at deadline-WatchdogTimeout and has not been
// overheard re-airing it yet.
type obligation struct {
	dataID   uint64
	deadline sim.Time
}

// score is the per-neighbour trust ledger. The trust value is the
// Laplace-smoothed forwarding rate (1+forwards)/(1+forwards+drops): a
// fresh neighbour starts fully trusted at 1, a consistent dropper decays
// toward 0, and evidence in both directions moves it monotonically.
type score struct {
	forwards uint64
	drops    uint64
	pend     []obligation
}

func (sc *score) value() float64 {
	return float64(1+sc.forwards) / float64(1+sc.forwards+sc.drops)
}

// expire folds every obligation past now into the drop count. Called
// lazily from the evidence and query paths — the table schedules no
// events of its own, so attaching it perturbs no event ordering.
func (sc *score) expire(now sim.Time) {
	kept := sc.pend[:0]
	for _, ob := range sc.pend {
		if ob.deadline <= now {
			sc.drops++
		} else {
			kept = append(kept, ob)
		}
	}
	sc.pend = kept
}

// TrustTable is one node's per-neighbour trust state: a
// routing.TrustOracle fed by the three kinds of forwarding evidence the
// node can observe first-hand, with no oracle knowledge of who is
// compromised:
//
//   - watchdog sends: handing a unicast data packet to the MAC opens an
//     obligation on the next hop (NoteSend, a Sent stage);
//   - promiscuous confirmation: overhearing the neighbour re-air that
//     DataID closes the obligation as a forward (TapFrame — sound because
//     RTS/CTS means a DATA frame only airs when the next hop actually
//     answered, so a relay whose "next hop" is a phantom link never airs);
//   - MAC feedback: retry exhaustion toward the neighbour counts as a
//     drop immediately (NoteLinkFailure, the same MAC path NotifyDrop
//     rides for routing-layer drops).
//
// The table draws no RNG stream and schedules no events (obligations
// expire lazily at evidence/query time), so a trust-defended run differs
// from an undefended one only through the path choices the scores change.
type TrustTable struct {
	self      packet.NodeID
	sched     *sim.Scheduler
	threshold float64
	scores    map[packet.NodeID]*score
}

// NewTrustTable builds an empty table for one node.
func NewTrustTable(self packet.NodeID, sched *sim.Scheduler, threshold float64) *TrustTable {
	return &TrustTable{
		self:      self,
		sched:     sched,
		threshold: threshold,
		scores:    make(map[packet.NodeID]*score),
	}
}

func (t *TrustTable) score(id packet.NodeID) *score {
	sc := t.scores[id]
	if sc == nil {
		sc = &score{}
		t.scores[id] = sc
	}
	return sc
}

// NoteSend is the table's Sent stage: a unicast data packet handed to
// the MAC opens a watchdog obligation on next, unless next is the
// packet's final destination (destinations consume, they owe no re-air).
// It runs after every Send verdict, so a packet this node dropped itself
// opens none.
func (t *TrustTable) NoteSend(p *packet.Packet, next packet.NodeID) {
	if p.Kind != packet.KindData || next == packet.Broadcast || next == p.Dst || p.DataID == 0 {
		return
	}
	now := t.sched.Now()
	sc := t.score(next)
	sc.expire(now)
	if len(sc.pend) >= maxPendingObligations {
		sc.drops++
		sc.pend = sc.pend[1:]
	}
	sc.pend = append(sc.pend, obligation{dataID: p.DataID, deadline: now + sim.Time(WatchdogTimeout)})
}

// NoteLinkFailure is the table's LinkFailed stage: MAC retry exhaustion
// toward next counts as a drop.
func (t *TrustTable) NoteLinkFailure(_ *packet.Packet, next packet.NodeID) {
	t.score(next).drops++
}

// TapFrame is the watchdog ear (the table's Tap stage): overhearing a
// neighbour transmit a data frame closes any matching obligation as a
// confirmed forward.
func (t *TrustTable) TapFrame(f *packet.Frame) {
	if f.Kind != packet.FrameData || f.Payload == nil ||
		f.Payload.Kind != packet.KindData || f.Payload.DataID == 0 {
		return
	}
	sc := t.scores[f.TxFrom]
	if sc == nil || len(sc.pend) == 0 {
		return
	}
	id := f.Payload.DataID
	for i, ob := range sc.pend {
		if ob.dataID == id {
			sc.pend = append(sc.pend[:i], sc.pend[i+1:]...)
			sc.forwards++
			return
		}
	}
}

// Score returns the neighbour's current trust value in [0,1], after
// lazily expiring overdue obligations.
func (t *TrustTable) Score(neighbour packet.NodeID) float64 {
	sc := t.scores[neighbour]
	if sc == nil {
		return 1
	}
	sc.expire(t.sched.Now())
	return sc.value()
}

// Distrusted implements routing.TrustOracle.
func (t *TrustTable) Distrusted(neighbour packet.NodeID) bool {
	return t.Score(neighbour) < t.threshold
}

// Cost implements routing.TrustOracle: (1-score)·weight, in hop units.
func (t *TrustTable) Cost(neighbour packet.NodeID) float64 {
	return (1 - t.Score(neighbour)) * trustCostWeight
}

// evidence sums the table's ledger (defence accounting).
func (t *TrustTable) evidence() (forwards, drops uint64, distrusted int) {
	now := t.sched.Now()
	for _, sc := range t.scores {
		sc.expire(now)
		forwards += sc.forwards
		drops += sc.drops
		if sc.value() < t.threshold {
			distrusted++
		}
	}
	return
}

// Forwards returns the total confirmed-forward evidence across all nodes.
func (d *Defence) Forwards() uint64 {
	var n uint64
	for _, t := range d.tables {
		f, _, _ := t.evidence()
		n += f
	}
	return n
}

// Drops returns the total drop evidence (expired watchdog obligations +
// link failures) across all nodes.
func (d *Defence) Drops() uint64 {
	var n uint64
	for _, t := range d.tables {
		_, dr, _ := t.evidence()
		n += dr
	}
	return n
}

// DistrustedLinks returns how many (observer, neighbour) pairs sit below
// the distrust threshold at the run horizon.
func (d *Defence) DistrustedLinks() uint64 {
	var n uint64
	for _, t := range d.tables {
		_, _, dist := t.evidence()
		n += uint64(dist)
	}
	return n
}
