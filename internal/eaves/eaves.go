// Package eaves implements the paper's eavesdropping node (§IV-B): a
// randomly selected intermediate node that "performs the same procedures as
// other legitimate nodes to relay packets but also collects unauthorized
// data within its radio range". It taps the node's MAC promiscuously and
// records every TCP data packet it can decode — whether addressed to it,
// relayed through it, or merely overheard.
//
// A Ledger is the interception accounting every threat model shares
// (internal/adversary): its vantage points, the union of distinct payloads
// they intercepted between them (the coalition Pe), the in-order stream
// view of that union, and the data packets the adversary dropped or pulled
// onto itself. A ledger of one static vantage point is the paper's lone
// eavesdropper.
package eaves

import (
	"mtsim/internal/node"
	"mtsim/internal/packet"
)

// Member is one vantage point's interception accounting: the frames it
// overheard and the distinct logical payloads (DataIDs) among them.
type Member struct {
	Node     packet.NodeID
	Frames   uint64
	Distinct uint64
}

// vantage is one member and, for a static vantage point, the set of
// distinct payloads it heard itself.
type vantage struct {
	Member
	seen map[uint64]bool // nil for a roaming vantage point
}

// Ledger is the interception accounting of one adversary.
type Ledger struct {
	members   []vantage
	union     map[uint64]bool
	stream    StreamTracker
	dropped   uint64
	attracted uint64
}

// NewLedger returns an empty ledger.
func NewLedger() Ledger { return Ledger{union: make(map[uint64]bool)} }

// Tap installs a static vantage point on n: it hears every interceptable
// frame at n, and its Distinct counts the payloads it heard itself.
func (l *Ledger) Tap(n *node.Node) {
	i := len(l.members)
	l.members = append(l.members, vantage{Member: Member{Node: n.ID()}, seen: make(map[uint64]bool)})
	n.AddStage(node.Stage{Tap: func(f *packet.Frame) {
		if Counts(f) {
			l.Hear(i, f.Payload.DataID)
		}
	}})
}

// Join adds a roaming vantage point at n and returns its index. It
// installs no tap: the caller decides when the vantage point is listening
// and feeds it through Hear. Its Distinct counts the payloads first heard
// there, so roaming members sum exactly to the union.
func (l *Ledger) Join(n *node.Node) int {
	l.members = append(l.members, vantage{Member: Member{Node: n.ID()}})
	return len(l.members) - 1
}

// Hear charges one intercepted payload to member i.
func (l *Ledger) Hear(i int, id uint64) {
	m := &l.members[i]
	m.Frames++
	if !l.union[id] {
		l.union[id] = true
		l.stream.Note(id)
		if m.seen == nil {
			m.Distinct++
		}
	}
	if m.seen != nil {
		m.seen[id] = true
	}
}

// TapAttracted counts, at n, the data frames neighbours address to n —
// traffic a route-attraction attack pulled onto itself. First
// transmission attempts only; MAC retries are not re-counted.
func (l *Ledger) TapAttracted(n *node.Node) {
	self := n.ID()
	n.AddStage(node.Stage{Tap: func(f *packet.Frame) {
		if f.Kind == packet.FrameData && f.TxTo == self && !f.Retry &&
			f.Payload != nil && f.Payload.Kind == packet.KindData {
			l.attracted++
		}
	}})
}

// CountDrop records one data packet the adversary discarded.
func (l *Ledger) CountDrop() { l.dropped++ }

// Counts reports whether an overheard frame carries interceptable payload:
// a transport data packet with a logical DataID. Control packets, TCP ACKs
// and MAC-level RTS/CTS/ACK frames carry no application information.
func Counts(f *packet.Frame) bool {
	if f.Kind != packet.FrameData || f.Payload == nil {
		return false
	}
	p := f.Payload
	return p.Kind == packet.KindData && p.DataID != 0
}

// Members returns the per-vantage-point accounting, in the order the
// vantage points joined.
func (l *Ledger) Members() []Member {
	out := make([]Member, len(l.members))
	for i, m := range l.members {
		out[i] = m.Member
		if m.seen != nil {
			out[i].Distinct = uint64(len(m.seen))
		}
	}
	return out
}

// Distinct returns the union Pe: the number of distinct data packets
// intercepted by at least one vantage point.
func (l *Ledger) Distinct() uint64 { return uint64(len(l.union)) }

// Frames returns the overheard data frames summed over every member,
// retransmissions included.
func (l *Ledger) Frames() uint64 {
	var total uint64
	for _, m := range l.members {
		total += m.Frames
	}
	return total
}

// Ratio returns the interception ratio Ri = Pe / Pr (Eq. 1) for the union
// Pe, given the number of distinct packets that arrived at the
// destination; 0 when nothing arrived.
func (l *Ledger) Ratio(pr uint64) float64 {
	if pr == 0 {
		return 0
	}
	return float64(l.Distinct()) / float64(pr)
}

// Dropped returns the data packets the adversary discarded (0 for purely
// passive models).
func (l *Ledger) Dropped() uint64 { return l.dropped }

// Attracted returns the data frames neighbours addressed to a vantage
// point with an attracted tap (0 for models that install none).
func (l *Ledger) Attracted() uint64 { return l.attracted }

// Contiguity reports both contiguity views of the union Pe; see
// ContigStats.
func (l *Ledger) Contiguity() ContigStats { return Stats(l.union, &l.stream) }

// ContigStats summarises both contiguity views of an interception: the
// set view (what the attacker could reassemble from everything it ever
// intercepted, in any order — an upper bound on recoverable stream spans)
// and the stream view (how much arrived already in consecutive order —
// what a tapped relay reads off the air without reassembly buffering).
// Data shuffling attacks the stream view directly — block permutation
// scrambles the interception order — and the set view only where
// dispersal keeps whole segments out of the tap's radio range.
type ContigStats struct {
	LongestRun uint64 // longest run of consecutive DataIDs in the set
	RunPkts    uint64 // packets in set runs of length ≥ 2
	StreamRun  uint64 // longest streak heard in consecutive ascending order
	StreamPkts uint64 // packets in such in-order streaks of length ≥ 2
}

// StreamTracker accumulates the stream view online: Note is called once
// per first interception of each distinct DataID, in interception order,
// and extends or breaks the current in-order consecutive streak.
type StreamTracker struct {
	last   uint64
	streak uint64
	// Longest is the longest in-order consecutive streak observed.
	Longest uint64
	// Contig counts packets inside in-order streaks of length ≥ 2.
	Contig uint64
}

// Note observes the next first-time-intercepted DataID.
func (t *StreamTracker) Note(id uint64) {
	if t.streak > 0 && id == t.last+1 {
		t.streak++
		if t.streak == 2 {
			t.Contig += 2
		} else {
			t.Contig++
		}
	} else {
		t.streak = 1
	}
	t.last = id
	if t.streak > t.Longest {
		t.Longest = t.streak
	}
}

// Stats folds the set view of seen together with a tracker's stream view.
// A nil tracker contributes zeros.
func Stats(seen map[uint64]bool, stream *StreamTracker) ContigStats {
	longest, contig := Contiguity(seen)
	cs := ContigStats{LongestRun: longest, RunPkts: contig}
	if stream != nil {
		cs.StreamRun = stream.Longest
		cs.StreamPkts = stream.Contig
	}
	return cs
}

// Contiguity measures how much of an intercepted DataID set an attacker
// could reassemble into an unbroken byte stream: the length of the longest
// run of consecutive DataIDs, and the total number of IDs belonging to any
// run of length ≥ 2 (isolated packets reveal a segment, not a stream).
// TCP assigns consecutive DataIDs to consecutive segments, so runs in ID
// space are contiguous spans of the flow's payload. This is the metric the
// data-shuffling countermeasure (internal/countermeasure) attacks: it
// leaves Pe roughly unchanged but fragments the runs.
func Contiguity(seen map[uint64]bool) (longest, contiguous uint64) {
	for id := range seen {
		if id > 0 && seen[id-1] {
			continue // not the start of a maximal run
		}
		n := uint64(1)
		for seen[id+n] {
			n++
		}
		if n > longest {
			longest = n
		}
		if n >= 2 {
			contiguous += n
		}
	}
	return longest, contiguous
}
