package mac

import (
	"testing"

	"mtsim/internal/geo"
	"mtsim/internal/packet"
	"mtsim/internal/phy"
	"mtsim/internal/sim"
)

// upperRec records Upper callbacks for assertions.
type upperRec struct {
	delivered []*packet.Packet
	from      []packet.NodeID
	failed    []*packet.Packet
	failedTo  []packet.NodeID
}

func (u *upperRec) Deliver(p *packet.Packet, from packet.NodeID) {
	u.delivered = append(u.delivered, p)
	u.from = append(u.from, from)
}

func (u *upperRec) LinkFailed(p *packet.Packet, next packet.NodeID) {
	u.failed = append(u.failed, p)
	u.failedTo = append(u.failedTo, next)
}

// rig builds n MAC nodes at the given positions on one channel.
type rig struct {
	sched  *sim.Scheduler
	ch     *phy.Channel
	macs   []*Mac
	uppers []*upperRec
	uids   *packet.UIDSource
	ar     *packet.Arena
}

func newRig(positions []geo.Point, cfg Config) *rig {
	r := &rig{
		sched: sim.NewScheduler(),
		uids:  &packet.UIDSource{},
	}
	r.ch = phy.NewChannel(r.sched, 250, 550, geo.Field(1000, 1000))
	r.ar = packet.NewArena(r.sched.Now)
	master := sim.NewRNG(1234)
	for i, p := range positions {
		up := &upperRec{}
		id := packet.NodeID(i)
		m := New(id, r.sched, r.ch, cfg, up, master.Derive("mac"), r.uids, r.ar)
		p := p
		radio := r.ch.Attach(id, func(sim.Time) geo.Point { return p }, m)
		m.BindRadio(radio)
		r.macs = append(r.macs, m)
		r.uppers = append(r.uppers, up)
	}
	return r
}

func (r *rig) dataPacket(src, dst packet.NodeID, size int) *packet.Packet {
	return r.ar.NewPacketFrom(packet.Packet{
		UID: r.uids.Next(), Kind: packet.KindData, Size: size,
		Src: src, Dst: dst, TTL: 32,
	})
}

func TestUnicastDelivery(t *testing.T) {
	r := newRig([]geo.Point{{X: 0, Y: 0}, {X: 100, Y: 0}}, Default80211b())
	p := r.dataPacket(0, 1, 1040)
	r.macs[0].Send(p, 1)
	r.sched.RunUntil(sim.Time(sim.Second))

	up := r.uppers[1]
	if len(up.delivered) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(up.delivered))
	}
	if up.delivered[0] != p || up.from[0] != 0 {
		t.Fatal("wrong packet or sender")
	}
	// 1040 >= RTSThreshold: the full four-way exchange must have happened.
	m0, m1 := r.macs[0], r.macs[1]
	if m0.Stats.FramesSent[packet.FrameRTS] != 1 {
		t.Fatalf("RTS sent = %d", m0.Stats.FramesSent[packet.FrameRTS])
	}
	if m1.Stats.FramesSent[packet.FrameCTS] != 1 {
		t.Fatalf("CTS sent = %d", m1.Stats.FramesSent[packet.FrameCTS])
	}
	if m0.Stats.FramesSent[packet.FrameData] != 1 {
		t.Fatalf("DATA sent = %d", m0.Stats.FramesSent[packet.FrameData])
	}
	if m1.Stats.FramesSent[packet.FrameAck] != 1 {
		t.Fatalf("ACK sent = %d", m1.Stats.FramesSent[packet.FrameAck])
	}
	if m0.Stats.LinkFailures != 0 {
		t.Fatal("spurious link failure")
	}
}

func TestSmallUnicastSkipsRTS(t *testing.T) {
	r := newRig([]geo.Point{{X: 0, Y: 0}, {X: 100, Y: 0}}, Default80211b())
	p := r.dataPacket(0, 1, 40) // TCP ACK size, below RTSThreshold
	r.macs[0].Send(p, 1)
	r.sched.RunUntil(sim.Time(sim.Second))

	if len(r.uppers[1].delivered) != 1 {
		t.Fatal("small packet not delivered")
	}
	if r.macs[0].Stats.FramesSent[packet.FrameRTS] != 0 {
		t.Fatal("RTS used below threshold")
	}
	if r.macs[1].Stats.FramesSent[packet.FrameAck] != 1 {
		t.Fatal("unicast data must still be ACKed")
	}
}

func TestBroadcastNoAckNoRetry(t *testing.T) {
	r := newRig([]geo.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 0, Y: 100}}, Default80211b())
	p := &packet.Packet{UID: r.uids.Next(), Kind: packet.KindRREQ, Size: 64, Src: 0, Dst: 2, TTL: 32}
	r.macs[0].Send(p, packet.Broadcast)
	r.sched.RunUntil(sim.Time(sim.Second))

	if len(r.uppers[1].delivered) != 1 || len(r.uppers[2].delivered) != 1 {
		t.Fatalf("broadcast delivery: %d, %d", len(r.uppers[1].delivered), len(r.uppers[2].delivered))
	}
	if r.macs[1].Stats.FramesSent[packet.FrameAck] != 0 {
		t.Fatal("broadcast must not be ACKed")
	}
	if r.macs[0].Stats.FramesSent[packet.FrameData] != 1 {
		t.Fatal("broadcast must be sent exactly once")
	}
}

func TestLinkFailureAfterRetries(t *testing.T) {
	// Receiver is out of range: RTS retries exhaust, LinkFailed fires.
	r := newRig([]geo.Point{{X: 0, Y: 0}, {X: 800, Y: 0}}, Default80211b())
	p := r.dataPacket(0, 1, 1040)
	r.macs[0].Send(p, 1)
	r.sched.RunUntil(sim.Time(5 * sim.Second))

	up := r.uppers[0]
	if len(up.failed) != 1 || up.failed[0] != p || up.failedTo[0] != 1 {
		t.Fatalf("link failure not reported: %d", len(up.failed))
	}
	if got := r.macs[0].Stats.FramesSent[packet.FrameRTS]; got != uint64(Default80211b().ShortRetryLimit) {
		t.Fatalf("RTS attempts = %d, want %d", got, Default80211b().ShortRetryLimit)
	}
	if len(r.uppers[1].delivered) != 0 {
		t.Fatal("out-of-range receiver got the packet")
	}
}

func TestLinkFailureSmallFrame(t *testing.T) {
	r := newRig([]geo.Point{{X: 0, Y: 0}, {X: 800, Y: 0}}, Default80211b())
	p := r.dataPacket(0, 1, 40)
	r.macs[0].Send(p, 1)
	r.sched.RunUntil(sim.Time(5 * sim.Second))
	if len(r.uppers[0].failed) != 1 {
		t.Fatal("link failure not reported for small frame")
	}
	if got := r.macs[0].Stats.FramesSent[packet.FrameData]; got != uint64(Default80211b().ShortRetryLimit) {
		t.Fatalf("DATA attempts = %d, want short retry limit", got)
	}
}

func TestQueueDropWhenFull(t *testing.T) {
	cfg := Default80211b()
	cfg.QueueCap = 3
	r := newRig([]geo.Point{{X: 0, Y: 0}, {X: 100, Y: 0}}, cfg)
	for i := 0; i < 10; i++ {
		r.macs[0].Send(r.dataPacket(0, 1, 1040), 1)
	}
	// One job is dequeued immediately into the contention pipeline, so at
	// most cap remain queued; the rest are dropped.
	if r.macs[0].Stats.QueueDrops == 0 {
		t.Fatal("no queue drops recorded")
	}
	r.sched.RunUntil(sim.Time(sim.Second))
	delivered := len(r.uppers[1].delivered)
	if delivered+int(r.macs[0].Stats.QueueDrops) != 10 {
		t.Fatalf("delivered %d + dropped %d != 10", delivered, r.macs[0].Stats.QueueDrops)
	}
}

func TestDropWhere(t *testing.T) {
	cfg := Default80211b()
	r := newRig([]geo.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 0, Y: 100}}, cfg)
	// Stall the MAC by filling with packets to node 1, then drop them.
	for i := 0; i < 5; i++ {
		r.macs[0].Send(r.dataPacket(0, 1, 1040), 1)
	}
	dropped := r.macs[0].DropWhere(func(p *packet.Packet, next packet.NodeID) bool {
		return next == 1
	})
	if dropped != 4 { // head job already left the queue
		t.Fatalf("dropped %d, want 4", dropped)
	}
	if r.macs[0].QueueLen() != 0 {
		t.Fatalf("queue len = %d", r.macs[0].QueueLen())
	}
}

func TestConcurrentSendersBothDeliver(t *testing.T) {
	// Two senders in range of each other contend for the medium; CSMA must
	// serialise them and both packets arrive.
	r := newRig([]geo.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 50, Y: 50}}, Default80211b())
	p1 := r.dataPacket(0, 2, 1040)
	p2 := r.dataPacket(1, 2, 1040)
	r.sched.At(0, func() {
		r.macs[0].Send(p1, 2)
		r.macs[1].Send(p2, 2)
	})
	r.sched.RunUntil(sim.Time(sim.Second))

	if len(r.uppers[2].delivered) != 2 {
		t.Fatalf("delivered %d, want 2", len(r.uppers[2].delivered))
	}
}

func TestManyContendersAllDeliver(t *testing.T) {
	// Five stations around a receiver, all in mutual CS range.
	pos := []geo.Point{
		{X: 100, Y: 100}, // receiver
		{X: 0, Y: 100}, {X: 200, Y: 100}, {X: 100, Y: 0}, {X: 100, Y: 200}, {X: 30, Y: 30},
	}
	r := newRig(pos, Default80211b())
	const per = 4
	for s := 1; s <= 5; s++ {
		for k := 0; k < per; k++ {
			p := r.dataPacket(packet.NodeID(s), 0, 1040)
			s := s
			r.sched.At(0, func() { r.macs[s].Send(p, 0) })
		}
	}
	r.sched.RunUntil(sim.Time(2 * sim.Second))
	if got := len(r.uppers[0].delivered); got != 5*per {
		t.Fatalf("delivered %d, want %d", got, 5*per)
	}
}

func TestHiddenTerminalsEventuallyDeliver(t *testing.T) {
	// Classic hidden-terminal: A and C cannot sense each other (1000m apart,
	// CS range 550m) and both send to B in the middle. RTS/CTS plus
	// retries must still get both packets through.
	pos := []geo.Point{{X: 0, Y: 0}, {X: 240, Y: 0}, {X: 480, Y: 0}}
	r := newRig(pos, Default80211b())
	var delivered int
	const per = 5
	for k := 0; k < per; k++ {
		r.macs[0].Send(r.dataPacket(0, 1, 1040), 1)
		r.macs[2].Send(r.dataPacket(2, 1, 1040), 1)
	}
	r.sched.RunUntil(sim.Time(5 * sim.Second))
	delivered = len(r.uppers[1].delivered)
	if delivered != 2*per {
		t.Fatalf("hidden-terminal delivery: %d of %d", delivered, 2*per)
	}
}

func TestPromiscuousTap(t *testing.T) {
	r := newRig([]geo.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 50, Y: 50}}, Default80211b())
	r.ar.Pooling = false // the tap keeps frames the MAC releases
	var tapped []*packet.Frame
	r.macs[2].Tap = func(f *packet.Frame) { tapped = append(tapped, f) }
	r.macs[0].Send(r.dataPacket(0, 1, 1040), 1)
	r.sched.RunUntil(sim.Time(sim.Second))

	// The eavesdropper overhears RTS, CTS, DATA and ACK.
	kinds := map[packet.FrameKind]int{}
	for _, f := range tapped {
		kinds[f.Kind]++
	}
	if kinds[packet.FrameData] != 1 {
		t.Fatalf("tap saw %d data frames, want 1 (tapped: %v)", kinds[packet.FrameData], kinds)
	}
	if kinds[packet.FrameRTS] != 1 || kinds[packet.FrameCTS] != 1 || kinds[packet.FrameAck] != 1 {
		t.Fatalf("tap missed control frames: %v", kinds)
	}
	// Third parties must not deliver overheard unicast upward.
	if len(r.uppers[2].delivered) != 0 {
		t.Fatal("overheard unicast delivered upward")
	}
}

func TestOnSendHook(t *testing.T) {
	r := newRig([]geo.Point{{X: 0, Y: 0}, {X: 100, Y: 0}}, Default80211b())
	var sent []packet.FrameKind
	r.macs[0].OnSend = func(f *packet.Frame) { sent = append(sent, f.Kind) }
	r.macs[0].Send(r.dataPacket(0, 1, 1040), 1)
	r.sched.RunUntil(sim.Time(sim.Second))
	if len(sent) != 2 { // RTS + DATA from the sender
		t.Fatalf("OnSend saw %v", sent)
	}
}

func TestDuplicateSuppression(t *testing.T) {
	// Force the ACK to be lost so the sender retransmits; receiver must
	// deliver the payload only once.
	r := newRig([]geo.Point{{X: 0, Y: 0}, {X: 100, Y: 0}}, Default80211b())
	ackDropped := false
	r.ch.DropFrame = func(f *packet.Frame, to packet.NodeID) bool {
		if f.Kind == packet.FrameAck && !ackDropped {
			ackDropped = true
			return true
		}
		return false
	}
	p := r.dataPacket(0, 1, 1040)
	r.macs[0].Send(p, 1)
	r.sched.RunUntil(sim.Time(sim.Second))

	if len(r.uppers[1].delivered) != 1 {
		t.Fatalf("delivered %d, want 1 (dup suppression)", len(r.uppers[1].delivered))
	}
	if r.macs[1].Stats.Duplicates != 1 {
		t.Fatalf("duplicates = %d, want 1", r.macs[1].Stats.Duplicates)
	}
	if !ackDropped {
		t.Fatal("test setup: ACK was never dropped")
	}
}

func TestNAVDefersThirdParty(t *testing.T) {
	// C overhears A's RTS to B and must defer for the whole exchange:
	// C's own transmission attempt must start only after A's ACK.
	// CWMin=0 makes contention deterministic: A's RTS is on the air at
	// 50us and C (queued at 400us) would, without NAV, transmit right in
	// the middle of A's data frame.
	cfg := Default80211b()
	cfg.CWMin = 0
	r := newRig([]geo.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 100, Y: 100}}, cfg)
	var cSentAt sim.Time
	r.macs[2].OnSend = func(f *packet.Frame) {
		if cSentAt == 0 {
			cSentAt = r.sched.Now()
		}
	}
	var ackAt sim.Time
	r.macs[1].OnSend = func(f *packet.Frame) {
		if f.Kind == packet.FrameAck && ackAt == 0 {
			ackAt = r.sched.Now()
		}
	}
	r.macs[0].Send(r.dataPacket(0, 1, 1040), 1)
	// C tries to send after A's RTS has been overheard.
	r.sched.At(sim.Time(400*sim.Microsecond), func() {
		r.macs[2].Send(r.dataPacket(2, 1, 1040), 1)
	})
	r.sched.RunUntil(sim.Time(sim.Second))

	if ackAt == 0 || cSentAt == 0 {
		t.Fatal("exchange did not complete")
	}
	if cSentAt < ackAt {
		t.Fatalf("third party transmitted at %v before ACK at %v (NAV violated)", cSentAt, ackAt)
	}
}

func TestIdleOverhearerArmsNoNAVTimer(t *testing.T) {
	// C overhears the whole RTS/CTS/DATA/ACK exchange between A and B but
	// has nothing to send: it keeps the NAV as state and never puts an
	// expiry event on the scheduler.
	r := newRig([]geo.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 100, Y: 100}}, Default80211b())
	c := r.macs[2]
	r.macs[0].Send(r.dataPacket(0, 1, 1040), 1)
	for r.sched.Step() {
		if c.navEvent.Pending() {
			t.Fatalf("idle overhearer armed a NAV timer at %v", r.sched.Now())
		}
	}
	if len(r.uppers[1].delivered) != 1 || r.macs[1].Stats.FramesSent[packet.FrameAck] != 1 {
		t.Fatal("exchange did not complete")
	}
	if c.nav == 0 {
		t.Fatal("overhearer never set its NAV")
	}
}

func TestNAVExtensionDefersToLaterExpiry(t *testing.T) {
	// C overhears an RTS while idle, starts contending inside that NAV,
	// then overhears a second RTS whose NAV ends later. Its DIFS wait must
	// start exactly when the second NAV ends, not when the first does.
	r := newRig([]geo.Point{{X: 0, Y: 0}}, Default80211b())
	c := r.macs[0]
	rts := func(nav sim.Duration) *packet.Frame {
		return &packet.Frame{Kind: packet.FrameRTS, TxFrom: 7, TxTo: 8, NAV: nav}
	}
	first := sim.Time(10 * sim.Microsecond).Add(2 * sim.Millisecond)
	second := sim.Time(30 * sim.Microsecond).Add(3 * sim.Millisecond)
	r.sched.At(sim.Time(10*sim.Microsecond), func() { c.RxEnd(rts(2*sim.Millisecond), true) })
	r.sched.At(sim.Time(20*sim.Microsecond), func() {
		c.Send(r.dataPacket(0, 1, 1040), 1)
		if !c.navEvent.Pending() {
			t.Error("contender inside the NAV armed no expiry timer")
		}
	})
	r.sched.At(sim.Time(30*sim.Microsecond), func() { c.RxEnd(rts(3*sim.Millisecond), true) })

	var difsAt sim.Time
	for difsAt == 0 && r.sched.Step() {
		if c.difsEvent.Pending() {
			difsAt = r.sched.Now()
		}
	}
	if difsAt != second {
		t.Fatalf("DIFS started at %v, want the later NAV expiry %v (first expiry %v)", difsAt, second, first)
	}
}

func TestAirtimeMath(t *testing.T) {
	cfg := Default80211b()
	r := newRig([]geo.Point{{X: 0, Y: 0}}, cfg)
	m := r.macs[0]
	// 1040B payload + 28B MAC header at 11 Mb/s + 192us PLCP.
	want := cfg.PLCPOverhead + sim.Seconds(float64((1040+28)*8)/11e6)
	got := m.dataAirtime(&packet.Packet{Size: 1040}, false)
	if got != want {
		t.Fatalf("data airtime = %v, want %v", got, want)
	}
	if m.ackAirtime() != cfg.PLCPOverhead+sim.Seconds(float64(14*8)/2e6) {
		t.Fatalf("ack airtime = %v", m.ackAirtime())
	}
}

func TestBackoffPausesUnderEnergy(t *testing.T) {
	// While a long foreign transmission occupies the medium, a contender
	// must not transmit.
	r := newRig([]geo.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 200, Y: 0}}, Default80211b())
	// Node 2 blasts a long broadcast at t=0.
	big := &packet.Packet{UID: r.uids.Next(), Kind: packet.KindData, Size: 10000, Src: 2, Dst: 0}
	r.macs[2].Send(big, packet.Broadcast)
	var sentAt sim.Time
	r.macs[0].OnSend = func(f *packet.Frame) {
		if sentAt == 0 {
			sentAt = r.sched.Now()
		}
	}
	r.sched.At(sim.Time(100*sim.Microsecond), func() {
		r.macs[0].Send(r.dataPacket(0, 1, 40), 1)
	})
	r.sched.RunUntil(sim.Time(sim.Second))

	// The broadcast occupies ~40ms+192us at 2 Mb/s; node 0 must wait.
	busyTill := sim.Seconds(float64((10000+28)*8)/2e6) + 192*sim.Microsecond
	if sentAt == 0 {
		t.Fatal("contender never transmitted")
	}
	if sentAt < sim.Time(busyTill) {
		t.Fatalf("transmitted at %v while medium busy until %v", sentAt, busyTill)
	}
}

func TestDeterministicMACRuns(t *testing.T) {
	run := func() []sim.Time {
		r := newRig([]geo.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 200, Y: 0}}, Default80211b())
		var times []sim.Time
		r.macs[1].OnSend = func(f *packet.Frame) { times = append(times, r.sched.Now()) }
		for i := 0; i < 5; i++ {
			r.macs[0].Send(r.dataPacket(0, 1, 1040), 1)
			r.macs[1].Send(r.dataPacket(1, 2, 1040), 2)
		}
		r.sched.RunUntil(sim.Time(sim.Second))
		return times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different event counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("timing diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}
