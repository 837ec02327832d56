package node

import (
	"testing"

	"mtsim/internal/geo"
	"mtsim/internal/mac"
	"mtsim/internal/mobility"
	"mtsim/internal/packet"
	"mtsim/internal/phy"
	"mtsim/internal/routing"
	"mtsim/internal/sim"
)

// echoProto is a minimal protocol that delivers local packets and records
// everything else.
type echoProto struct {
	env      routing.Env
	started  bool
	received []*packet.Packet
	failed   []*packet.Packet
	tapped   int
}

func (e *echoProto) Name() string { return "ECHO" }
func (e *echoProto) Start()       { e.started = true }
func (e *echoProto) Send(p *packet.Packet) {
	if p.Dst == e.env.ID() {
		e.env.DeliverLocal(p, e.env.ID())
		return
	}
	e.env.SendMac(p, p.Dst)
}
func (e *echoProto) Receive(p *packet.Packet, from packet.NodeID) {
	e.received = append(e.received, p)
	if p.Dst == e.env.ID() {
		e.env.DeliverLocal(p, from)
	}
}
func (e *echoProto) LinkFailed(p *packet.Packet, next packet.NodeID) {
	e.failed = append(e.failed, p)
}
func (e *echoProto) TapFrame(f *packet.Frame) { e.tapped++ }

func buildPair(t *testing.T) (*sim.Scheduler, *Node, *Node, *echoProto, *echoProto) {
	t.Helper()
	sched := sim.NewScheduler()
	ch := phy.NewChannel(sched, 250, 550, geo.Field(1000, 1000))
	ar := packet.NewArena(sched.Now)
	uids := &packet.UIDSource{}
	rng := sim.NewRNG(1)
	n0 := New(0, sched, ch, mac.Default80211b(),
		&mobility.Static{P: geo.Point{X: 0, Y: 0}}, rng.Derive("n0"), uids, ar)
	n1 := New(1, sched, ch, mac.Default80211b(),
		&mobility.Static{P: geo.Point{X: 100, Y: 0}}, rng.Derive("n1"), uids, ar)
	p0 := &echoProto{env: n0}
	p1 := &echoProto{env: n1}
	n0.SetProtocol(p0)
	n1.SetProtocol(p1)
	n0.Start()
	n1.Start()
	return sched, n0, n1, p0, p1
}

func TestNodeWiring(t *testing.T) {
	sched, n0, n1, p0, p1 := buildPair(t)
	if !p0.started || !p1.started {
		t.Fatal("Start not propagated to protocol")
	}
	if n0.ID() != 0 || n1.ID() != 1 {
		t.Fatal("IDs wrong")
	}
	if n0.Position() != (geo.Point{X: 0, Y: 0}) {
		t.Fatal("position wrong")
	}
	if n0.Scheduler() != sched {
		t.Fatal("scheduler not exposed")
	}
	if n0.UIDs() == nil || n0.RNG() == nil {
		t.Fatal("env accessors broken")
	}
}

func TestNodeEndToEndViaMAC(t *testing.T) {
	sched, n0, _, _, p1 := buildPair(t)
	var uids packet.UIDSource
	pkt := &packet.Packet{UID: uids.Next(), Kind: packet.KindData, Size: 500, Src: 0, Dst: 1, TTL: 8}
	n0.Originate(pkt)
	sched.RunUntil(sim.Time(sim.Second))
	if len(p1.received) != 1 || p1.received[0] != pkt {
		t.Fatalf("received = %d", len(p1.received))
	}
}

func TestNodeFlowDispatch(t *testing.T) {
	sched, n0, n1, _, _ := buildPair(t)
	var got []*packet.Packet
	n1.RegisterFlow(7, func(p *packet.Packet, from packet.NodeID) {
		got = append(got, p)
	})
	var uids packet.UIDSource
	pkt := &packet.Packet{
		UID: uids.Next(), Kind: packet.KindData, Size: 500, Src: 0, Dst: 1, TTL: 8,
		TCP: &packet.TCPHeader{Flow: 7, Seq: 1},
	}
	n0.Originate(pkt)
	sched.RunUntil(sim.Time(sim.Second))
	if len(got) != 1 {
		t.Fatalf("flow handler calls = %d", len(got))
	}
	// Packets for unregistered flows are dropped silently at delivery.
	pkt2 := &packet.Packet{
		UID: uids.Next(), Kind: packet.KindData, Size: 500, Src: 0, Dst: 1, TTL: 8,
		TCP: &packet.TCPHeader{Flow: 99, Seq: 1},
	}
	n0.Originate(pkt2)
	sched.RunUntil(sim.Time(2 * sim.Second))
	if len(got) != 1 {
		t.Fatal("unregistered flow leaked into handler")
	}
}

func TestNodeLinkFailurePropagates(t *testing.T) {
	sched := sim.NewScheduler()
	ch := phy.NewChannel(sched, 250, 550, geo.Field(1000, 1000))
	ar := packet.NewArena(sched.Now)
	uids := &packet.UIDSource{}
	rng := sim.NewRNG(1)
	n0 := New(0, sched, ch, mac.Default80211b(),
		&mobility.Static{P: geo.Point{X: 0, Y: 0}}, rng.Derive("n0"), uids, ar)
	p0 := &echoProto{env: n0}
	n0.SetProtocol(p0)
	n0.Start()
	// No peer exists: the MAC exhausts retries and reports failure.
	pkt := &packet.Packet{UID: uids.Next(), Kind: packet.KindData, Size: 500, Src: 0, Dst: 1, TTL: 8}
	n0.Originate(pkt)
	sched.RunUntil(sim.Time(5 * sim.Second))
	if len(p0.failed) != 1 {
		t.Fatalf("LinkFailed calls = %d", len(p0.failed))
	}
}

func TestNodeTapFanout(t *testing.T) {
	sched, n0, n1, _, p1 := buildPair(t)
	// The protocol implements FrameTap, so SetProtocol wired one tap;
	// add a second listener and verify both observe traffic.
	var extra int
	n1.AddStage(Stage{Tap: func(f *packet.Frame) { extra++ }})
	var uids packet.UIDSource
	n0.Originate(&packet.Packet{UID: uids.Next(), Kind: packet.KindData, Size: 1040, Src: 0, Dst: 1, TTL: 8})
	sched.RunUntil(sim.Time(sim.Second))
	if p1.tapped == 0 {
		t.Fatal("protocol tap not wired")
	}
	if extra == 0 {
		t.Fatal("second tap not called")
	}
}

// TestNodeAiredFanout checks that the MAC's send hook stays nil until a
// stage has an Aired, and that then every Aired stage sees each aired
// frame in registration order.
func TestNodeAiredFanout(t *testing.T) {
	sched, n0, _, _, _ := buildPair(t)
	n0.AddStage(Stage{Tap: func(f *packet.Frame) {}})
	if n0.Mac.OnSend != nil {
		t.Fatal("send hook set with no Aired stage")
	}
	var order []int
	n0.AddStage(Stage{Aired: func(f *packet.Frame) { order = append(order, 1) }})
	n0.AddStage(Stage{Aired: func(f *packet.Frame) { order = append(order, 2) }})
	var uids packet.UIDSource
	n0.Originate(&packet.Packet{UID: uids.Next(), Kind: packet.KindData, Size: 1040, Src: 0, Dst: 1, TTL: 8})
	sched.RunUntil(sim.Time(sim.Second))
	if len(order) < 2 || len(order)%2 != 0 {
		t.Fatalf("Aired calls %v", order)
	}
	for i, v := range order {
		if v != i%2+1 {
			t.Fatalf("Aired calls out of registration order: %v", order)
		}
	}
}

func TestNodeDropQueued(t *testing.T) {
	sched, n0, _, _, _ := buildPair(t)
	var uids packet.UIDSource
	for i := 0; i < 5; i++ {
		n0.SendMac(&packet.Packet{UID: uids.Next(), Kind: packet.KindData, Size: 1040, Src: 0, Dst: 1, TTL: 8}, 1)
	}
	dropped := n0.DropQueued(func(p *packet.Packet, next packet.NodeID) bool { return true })
	if dropped == 0 {
		t.Fatal("nothing dropped from queue")
	}
	_ = sched
}

// TestStageOrdering pins AddStage's two fixed orderings against stages
// registered the other way round: a Sent observer registered first never
// sees a packet a later Send stage dropped or claimed, and a LinkFailed
// stage hears a failure before the routing protocol does.
func TestStageOrdering(t *testing.T) {
	sched := sim.NewScheduler()
	ch := phy.NewChannel(sched, 250, 550, geo.Field(1000, 1000))
	ar := packet.NewArena(sched.Now)
	uids := &packet.UIDSource{}
	n0 := New(0, sched, ch, mac.Default80211b(),
		&mobility.Static{P: geo.Point{X: 0, Y: 0}}, sim.NewRNG(1), uids, ar)
	p0 := &echoProto{env: n0}
	n0.SetProtocol(p0)
	var sent []uint64
	var drops []string
	var failuresSeenByProto []int
	n0.AddStage(Stage{
		Sent:       func(p *packet.Packet, _ packet.NodeID) { sent = append(sent, p.DataID) },
		LinkFailed: func(*packet.Packet, packet.NodeID) { failuresSeenByProto = append(failuresSeenByProto, len(p0.failed)) },
	})
	n0.AddStage(Stage{
		Send: func(p *packet.Packet, _ packet.NodeID) Verdict {
			return [...]Verdict{Pass, Drop, Claim}[p.DataID%3]
		},
		Dropped: func(_ *packet.Packet, reason string) { drops = append(drops, reason) },
	})
	n0.Start()
	for id := uint64(1); id <= 3; id++ {
		// No peer exists, so the passed packet ends in a link failure.
		n0.SendMac(&packet.Packet{UID: uids.Next(), Kind: packet.KindData, Size: 500, Src: 0, Dst: 1, TTL: 8, DataID: id}, 1)
	}
	sched.RunUntil(sim.Time(5 * sim.Second))
	if len(sent) != 1 || sent[0] != 3 {
		t.Errorf("Sent observed DataIDs %v, want only the passed packet [3]", sent)
	}
	if len(drops) != 1 || drops[0] != "adversary" {
		t.Errorf("drops %v, want one \"adversary\"", drops)
	}
	if len(failuresSeenByProto) != 1 || failuresSeenByProto[0] != 0 || len(p0.failed) != 1 {
		t.Errorf("LinkFailed stage saw %v protocol failures, protocol %d: want the stage first",
			failuresSeenByProto, len(p0.failed))
	}
}
