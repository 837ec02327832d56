package adversary

import (
	"testing"

	"mtsim/internal/geo"
	"mtsim/internal/node"
	"mtsim/internal/packet"
	"mtsim/internal/sim"
)

// TestAdaptiveRNGDraws pins the adaptive eavesdropper's documented RNG
// budget: exactly one Perm(len(hosts)) at construction and zero draws
// afterwards, no matter how many re-tap decisions fire. A reference
// stream with the same seed, advanced by exactly that one draw, must stay
// position-identical to the adversary's stream — before the run and after
// several re-tap intervals. Any hidden draw (a tie-break, a jittered
// timer) desynchronises the streams and fails the second loop.
func TestAdaptiveRNGDraws(t *testing.T) {
	sched, nodes, uids := buildNet(t, line())
	rng := sim.NewRNG(42)
	adv, err := Build(Spec{Model: ModelAdaptive, Interval: 2 * sim.Second}, nodes[1:4], rng)
	if err != nil {
		t.Fatal(err)
	}

	ref := sim.NewRNG(42)
	ref.Perm(3) // the one constructor draw
	for i := 0; i < 32; i++ {
		if got, want := rng.Intn(1<<30), ref.Intn(1<<30); got != want {
			t.Fatalf("draw %d after construction: %d != reference %d — constructor consumed more than one Perm", i, got, want)
		}
	}

	// Feed traffic so re-taps have evidence to chase, then run through
	// several intervals: the argmax decision must be RNG-free.
	for i := uint64(1); i <= 20; i++ {
		nodes[0].SendMac(dataPkt(uids, 0, i), 1)
	}
	sched.RunUntil(sim.Time(9 * sim.Second))
	if adv.Moves() < 4 {
		t.Fatalf("only %d re-tap decisions in 9s at a 2s interval", adv.Moves())
	}
	for i := 0; i < 32; i++ {
		if got, want := rng.Intn(1<<30), ref.Intn(1<<30); got != want {
			t.Fatalf("draw %d after %d re-taps: %d != reference %d — retap consumed RNG", i, adv.Moves(), got, want)
		}
	}

	// A nil rng keeps the declared candidate order (EffectiveModel wiring
	// relies on this for pinned tours).
	_, nodes2, _ := buildNet(t, line())
	quiet, err := Build(Spec{Model: ModelAdaptive, Interval: 2 * sim.Second}, []*node.Node{nodes2[3], nodes2[1]}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if quiet.Active() != 3 {
		t.Fatalf("nil-rng initial vantage = %d, want declared first host 3", quiet.Active())
	}
}

// countProto counts Receive calls per DataID, keyed by upstream hop —
// the far-endpoint probe for the tunnel's exactly-once delivery property.
type countProto struct {
	recv map[uint64]int
	from map[uint64]packet.NodeID
}

func newCountProto() *countProto {
	return &countProto{recv: make(map[uint64]int), from: make(map[uint64]packet.NodeID)}
}

func (c *countProto) Name() string        { return "COUNT" }
func (c *countProto) Start()              {}
func (c *countProto) Send(*packet.Packet) {}
func (c *countProto) Receive(p *packet.Packet, from packet.NodeID) {
	c.recv[p.DataID]++
	c.from[p.DataID] = from
}
func (c *countProto) LinkFailed(*packet.Packet, packet.NodeID) {}

// TestWormholeTunnelExactlyOnce is the tunnel's arena-ledger property:
// every control packet entering the tunnel is delivered to the far
// endpoint exactly once and released exactly once — broadcast floods are
// cloned (the original still airs locally), claimed unicast crosses out
// of band, and Retire drains clones still in flight without a delivery.
func TestWormholeTunnelExactlyOnce(t *testing.T) {
	// W1 at x=0 with an honest neighbour at x=200; W2 at x=1000 — far
	// outside the 250 m radio range of both, reachable only via tunnel.
	sched, nodes, uids := buildNet(t, []geo.Point{{X: 0}, {X: 200}, {X: 1000}})
	ar := nodes[0].Arena() // the one arena buildNet wires every node with
	ar.Check = true
	neighbour, far := newCountProto(), newCountProto()
	nodes[1].SetProtocol(neighbour)
	nodes[2].SetProtocol(far)
	w, err := Build(Spec{Model: ModelWormhole}, []*node.Node{nodes[0], nodes[2]}, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Broadcast control: tunnelled as a clone AND flooded locally.
	for i := uint64(1); i <= 5; i++ {
		nodes[0].SendMac(ar.NewPacketFrom(packet.Packet{
			UID: uids.Next(), Kind: packet.KindRREQ, Size: 64,
			Src: 0, Dst: 2, TTL: 8, DataID: i,
		}), packet.Broadcast)
	}
	// Unicast control across the phantom link: claimed outright.
	nodes[0].SendMac(ar.NewPacketFrom(packet.Packet{
		UID: uids.Next(), Kind: packet.KindRREP, Size: 64,
		Src: 0, Dst: 2, TTL: 8, DataID: 100,
	}), 2)
	sched.RunUntil(sim.Time(2 * sim.Second))

	for i := uint64(1); i <= 5; i++ {
		if got := far.recv[i]; got != 1 {
			t.Fatalf("far endpoint received broadcast %d %d times, want exactly 1", i, got)
		}
		if from := far.from[i]; from != 0 {
			t.Fatalf("tunnelled broadcast %d attributed to hop %d, want near endpoint 0", i, from)
		}
		if got := neighbour.recv[i]; got != 1 {
			t.Fatalf("local flood of broadcast %d reached the honest neighbour %d times, want 1 (tunnel must not suppress the original)", i, got)
		}
	}
	if got := far.recv[100]; got != 1 {
		t.Fatalf("phantom-link unicast received %d times, want exactly 1", got)
	}
	if got := neighbour.recv[100]; got != 0 {
		t.Fatalf("claimed unicast aired locally (%d receives at the neighbour)", got)
	}
	if got := w.Tunnelled(); got != 6 {
		t.Fatalf("Tunnelled() = %d, want 6", got)
	}

	// A clone still in tunnel flight at run end is drained by Retire,
	// never delivered, and the ledger closes with every counter at zero.
	nodes[0].SendMac(ar.NewPacketFrom(packet.Packet{
		UID: uids.Next(), Kind: packet.KindRREQ, Size: 64,
		Src: 0, Dst: 2, TTL: 8, DataID: 200,
	}), packet.Broadcast)
	w.Retire()
	sched.RunUntil(sim.Time(4 * sim.Second)) // the local flood still airs
	if got := far.recv[200]; got != 0 {
		t.Fatalf("drained clone was delivered %d times", got)
	}
	if got := neighbour.recv[200]; got != 1 {
		t.Fatalf("local flood after tunnel drain reached the neighbour %d times, want 1", got)
	}
	for _, n := range nodes {
		n.Retire()
	}
	st := ar.Stats()
	if live := ar.LivePackets(); live != 0 {
		t.Fatalf("leak: %d live packets (acquired %d, released %d)", live, st.PacketsAcquired, st.PacketsReleased)
	}
	if st.DoubleReleases != 0 {
		t.Fatalf("%d double releases — a tunnel clone was released twice", st.DoubleReleases)
	}
	if st.ForeignReleases != 0 {
		t.Fatalf("%d foreign releases", st.ForeignReleases)
	}
	if st.PoisonTrips != 0 {
		t.Fatalf("%d writes through released packets", st.PoisonTrips)
	}
}

// TestRushingFilterPolicy pins the rushing attack's narrow footprint:
// route-request jitter collapses to zero, every other kind keeps its
// timing, and a rushing host claims no packet (timing is the whole
// attack — ownership transfers would change arena accounting).
func TestRushingFilterPolicy(t *testing.T) {
	rreq := &packet.Packet{Kind: packet.KindRREQ}
	if d := rushJitter(rreq, 10*sim.Millisecond); d != 0 {
		t.Fatalf("RREQ jitter = %v, want 0 (rushed)", d)
	}
	kinds := []packet.Kind{packet.KindRREP, packet.KindRERR, packet.KindCheck, packet.KindData}
	for _, k := range kinds {
		if d := rushJitter(&packet.Packet{Kind: k}, 10*sim.Millisecond); d != 10*sim.Millisecond {
			t.Fatalf("kind %v jitter rewritten to %v, want untouched", k, d)
		}
	}

	sched, nodes, uids := buildNet(t, line())
	if _, err := Build(Spec{Model: ModelRushing}, nodes[1:2], nil); err != nil {
		t.Fatal(err)
	}
	aired := map[packet.Kind]bool{}
	nodes[1].AddStage(node.Stage{Aired: func(f *packet.Frame) {
		if f.Payload != nil {
			aired[f.Payload.Kind] = true
		}
	}})
	nodes[1].SendMac(&packet.Packet{UID: uids.Next(), Kind: packet.KindRREQ, Size: 40, Src: 1, Dst: 4, TTL: 8}, packet.Broadcast)
	for _, k := range kinds {
		nodes[1].SendMac(&packet.Packet{UID: uids.Next(), Kind: k, Size: 40, Src: 1, Dst: 0, TTL: 8, DataID: 1}, 0)
	}
	sched.RunUntil(sim.Time(sim.Second))
	for _, k := range append(kinds, packet.KindRREQ) {
		if !aired[k] {
			t.Errorf("rushing host did not air its %v packet", k)
		}
	}
}
