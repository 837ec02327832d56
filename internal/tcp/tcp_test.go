package tcp

import (
	"testing"

	"mtsim/internal/packet"
	"mtsim/internal/sim"
)

// pipe is an in-memory two-endpoint network with configurable one-way
// delay and a programmable drop predicate — enough to exercise the full
// Reno state machine without a radio stack.
type pipe struct {
	sched *sim.Scheduler
	uids  packet.UIDSource
	ar    *packet.Arena
	delay sim.Duration
	// drop is consulted per packet; true discards it.
	drop func(p *packet.Packet) bool

	ends map[packet.NodeID]*pipeEnd
}

type pipeEnd struct {
	p     *pipe
	id    packet.NodeID
	flows map[int]func(*packet.Packet, packet.NodeID)
}

func newPipe(delay sim.Duration) *pipe {
	sched := sim.NewScheduler()
	p := &pipe{
		sched: sched,
		ar:    packet.NewArena(sched.Now),
		delay: delay,
		ends:  map[packet.NodeID]*pipeEnd{},
	}
	for _, id := range []packet.NodeID{1, 2} {
		p.ends[id] = &pipeEnd{p: p, id: id, flows: map[int]func(*packet.Packet, packet.NodeID){}}
	}
	return p
}

func (e *pipeEnd) ID() packet.NodeID         { return e.id }
func (e *pipeEnd) Scheduler() *sim.Scheduler { return e.p.sched }
func (e *pipeEnd) UIDs() *packet.UIDSource   { return &e.p.uids }
func (e *pipeEnd) Arena() *packet.Arena      { return e.p.ar }
func (e *pipeEnd) RegisterFlow(flow int, h func(*packet.Packet, packet.NodeID)) {
	e.flows[flow] = h
}

func (e *pipeEnd) Originate(p *packet.Packet) {
	if e.p.drop != nil && e.p.drop(p) {
		return
	}
	dst := e.p.ends[p.Dst]
	if dst == nil {
		return
	}
	from := e.id
	e.p.sched.After(e.p.delay, func() {
		if h, ok := dst.flows[p.TCP.Flow]; ok {
			h(p, from)
		}
	})
}

// rig10ms builds sender at node 1, sink at node 2, 10ms one-way delay.
func tcpRig(delay sim.Duration) (*pipe, *Sender, *Sink) {
	p := newPipe(delay)
	snd := NewSender(p.ends[1], DefaultConfig(), 1, 2)
	sink := NewSink(p.ends[2], 1)
	return p, snd, sink
}

func TestBulkTransferNoLoss(t *testing.T) {
	p, snd, sink := tcpRig(10 * sim.Millisecond)
	snd.Supply(500)
	snd.Start()
	p.sched.RunUntil(sim.Time(60 * sim.Second))

	if sink.Stats.Distinct != 500 {
		t.Fatalf("distinct = %d, want 500", sink.Stats.Distinct)
	}
	if sink.NextExpected() != 500 {
		t.Fatalf("nextExpected = %d", sink.NextExpected())
	}
	if snd.Stats.Retransmits != 0 {
		t.Fatalf("retransmits = %d on a lossless pipe", snd.Stats.Retransmits)
	}
	if snd.Stats.Timeouts != 0 {
		t.Fatalf("timeouts = %d on a lossless pipe", snd.Stats.Timeouts)
	}
}

func TestSlowStartDoubling(t *testing.T) {
	p, snd, _ := tcpRig(50 * sim.Millisecond)
	snd.Supply(1000)
	snd.Start()
	// After one RTT the first ACK arrives: cwnd 1 -> 2; after two RTTs ~4.
	p.sched.RunUntil(sim.Time(120 * sim.Millisecond)) // just past 1 RTT
	if snd.Cwnd() < 2 {
		t.Fatalf("cwnd after 1 RTT = %v, want >= 2", snd.Cwnd())
	}
	p.sched.RunUntil(sim.Time(230 * sim.Millisecond))
	if snd.Cwnd() < 4 {
		t.Fatalf("cwnd after 2 RTTs = %v, want >= 4", snd.Cwnd())
	}
}

func TestCwndCappedByMaxWindow(t *testing.T) {
	p, snd, _ := tcpRig(5 * sim.Millisecond)
	snd.Supply(1 << 20)
	snd.Start()
	p.sched.RunUntil(sim.Time(30 * sim.Second))
	if w := snd.window(); w > int64(DefaultConfig().MaxWindow) {
		t.Fatalf("window = %d exceeds cap", w)
	}
}

func TestFastRetransmitOnSingleLoss(t *testing.T) {
	p, snd, sink := tcpRig(10 * sim.Millisecond)
	dropped := false
	p.drop = func(pk *packet.Packet) bool {
		if !pk.TCP.Ack && pk.TCP.Seq == 20 && !dropped {
			dropped = true
			return true
		}
		return false
	}
	snd.Supply(200)
	snd.Start()
	p.sched.RunUntil(sim.Time(60 * sim.Second))

	if !dropped {
		t.Fatal("test setup: segment 20 never dropped")
	}
	if sink.Stats.Distinct != 200 {
		t.Fatalf("distinct = %d, want 200", sink.Stats.Distinct)
	}
	if snd.Stats.FastRecoveries == 0 {
		t.Fatal("single loss with a wide window must trigger fast retransmit")
	}
	if snd.Stats.Timeouts != 0 {
		t.Fatalf("timeouts = %d; fast retransmit should have avoided them", snd.Stats.Timeouts)
	}
}

func TestTimeoutRecoversFromBurstLoss(t *testing.T) {
	p, snd, sink := tcpRig(10 * sim.Millisecond)
	// Black-hole everything in a window: like a route break. The outage
	// must start while the transfer is in full swing (it finishes in
	// ~0.5s on this pipe without loss).
	p.drop = func(pk *packet.Packet) bool {
		now := p.sched.Now()
		return now > sim.Time(200*sim.Millisecond) && now < sim.Time(3*sim.Second)
	}
	snd.Supply(500)
	snd.Start()
	p.sched.RunUntil(sim.Time(120 * sim.Second))

	if sink.Stats.Distinct != 500 {
		t.Fatalf("distinct = %d, want 500 after outage", sink.Stats.Distinct)
	}
	if snd.Stats.Timeouts == 0 {
		t.Fatal("an outage must cause RTO timeouts")
	}
	if snd.Cwnd() < 1 {
		t.Fatalf("cwnd = %v fell below 1", snd.Cwnd())
	}
}

func TestExponentialBackoffDuringOutage(t *testing.T) {
	p, snd, _ := tcpRig(10 * sim.Millisecond)
	p.drop = func(pk *packet.Packet) bool { return p.sched.Now() > sim.Time(200*sim.Millisecond) }
	snd.Supply(5000)
	snd.Start()
	p.sched.RunUntil(sim.Time(40 * sim.Second))
	// With min RTO 1s and doubling: 1+2+4+8+16 ≈ 31s -> at most ~6
	// timeouts in ~40s of outage.
	if snd.Stats.Timeouts > 8 {
		t.Fatalf("timeouts = %d; backoff not exponential", snd.Stats.Timeouts)
	}
	if snd.Stats.Timeouts < 3 {
		t.Fatalf("timeouts = %d; timer seems stuck", snd.Stats.Timeouts)
	}
}

func TestRTTEstimateConvergence(t *testing.T) {
	p, snd, _ := tcpRig(25 * sim.Millisecond)
	snd.Supply(300)
	snd.Start()
	p.sched.RunUntil(sim.Time(30 * sim.Second))
	// RTT is exactly 50ms; srtt should be close, and RTO clamped at MinRTO.
	if snd.srtt < 0.045 || snd.srtt > 0.06 {
		t.Fatalf("srtt = %v, want ~0.05", snd.srtt)
	}
	if snd.RTO() != DefaultConfig().MinRTO {
		t.Fatalf("rto = %v, want clamped to MinRTO", snd.RTO())
	}
}

func TestSinkCumulativeAckAfterReordering(t *testing.T) {
	// Deliver 0,2,1 and check ACK values: 0, 0 (dup), 2.
	p := newPipe(0)
	var acks []int64
	p.ends[1].RegisterFlow(1, func(pk *packet.Packet, _ packet.NodeID) {
		acks = append(acks, pk.TCP.Seq)
	})
	sink := NewSink(p.ends[2], 1)
	mk := func(seq int64) *packet.Packet {
		return &packet.Packet{
			UID: p.uids.Next(), Kind: packet.KindData, Src: 1, Dst: 2,
			TCP: &packet.TCPHeader{Flow: 1, Seq: seq},
		}
	}
	sink.receive(mk(0), 1)
	sink.receive(mk(2), 1)
	sink.receive(mk(1), 1)
	p.sched.Run()
	want := []int64{0, 0, 2}
	if len(acks) != 3 {
		t.Fatalf("acks = %v", acks)
	}
	for i := range want {
		if acks[i] != want[i] {
			t.Fatalf("acks = %v, want %v", acks, want)
		}
	}
	if sink.Stats.Distinct != 3 {
		t.Fatalf("distinct = %d", sink.Stats.Distinct)
	}
}

func TestSinkDuplicateCounted(t *testing.T) {
	p := newPipe(0)
	p.ends[1].RegisterFlow(1, func(*packet.Packet, packet.NodeID) {})
	sink := NewSink(p.ends[2], 1)
	mk := func(seq int64) *packet.Packet {
		return &packet.Packet{
			UID: p.uids.Next(), Kind: packet.KindData, Src: 1, Dst: 2,
			TCP: &packet.TCPHeader{Flow: 1, Seq: seq},
		}
	}
	sink.receive(mk(0), 1)
	sink.receive(mk(0), 1)
	if sink.Stats.Distinct != 1 || sink.Stats.DupArrivals != 1 {
		t.Fatalf("distinct=%d dup=%d", sink.Stats.Distinct, sink.Stats.DupArrivals)
	}
	if sink.Stats.Arrivals != 2 {
		t.Fatalf("arrivals=%d", sink.Stats.Arrivals)
	}
}

func TestDelayAccounting(t *testing.T) {
	p, snd, sink := tcpRig(40 * sim.Millisecond)
	snd.Supply(10)
	snd.Start()
	p.sched.RunUntil(sim.Time(10 * sim.Second))
	if sink.Stats.Distinct != 10 {
		t.Fatalf("distinct = %d", sink.Stats.Distinct)
	}
	avg := sink.Stats.TotalDelay.Seconds() / float64(sink.Stats.Distinct)
	if avg < 0.039 || avg > 0.05 {
		t.Fatalf("avg delay = %v, want ~0.04", avg)
	}
}

func TestRetransmitPreservesCreatedAt(t *testing.T) {
	p, snd, sink := tcpRig(10 * sim.Millisecond)
	dropFirst := true
	p.drop = func(pk *packet.Packet) bool {
		if !pk.TCP.Ack && pk.TCP.Seq == 0 && dropFirst {
			dropFirst = false
			return true
		}
		return false
	}
	snd.Supply(5)
	snd.Start()
	p.sched.RunUntil(sim.Time(30 * sim.Second))
	if sink.Stats.Distinct != 5 {
		t.Fatalf("distinct = %d", sink.Stats.Distinct)
	}
	// Segment 0 was lost once; its measured delay must span the original
	// transmission (~RTO 3s), not just the final hop time.
	avg := sink.Stats.TotalDelay.Seconds() / 5
	if avg < 0.1 {
		t.Fatalf("avg delay = %vs; retransmission lost original CreatedAt", avg)
	}
}

func TestSenderStatsConsistency(t *testing.T) {
	p, snd, sink := tcpRig(10 * sim.Millisecond)
	lossToggle := 0
	p.drop = func(pk *packet.Packet) bool {
		if !pk.TCP.Ack {
			lossToggle++
			return lossToggle%17 == 0 // ~6% data loss
		}
		return false
	}
	snd.Supply(300)
	snd.Start()
	p.sched.RunUntil(sim.Time(300 * sim.Second))

	if sink.Stats.Distinct != 300 {
		t.Fatalf("distinct = %d, want 300 despite losses", sink.Stats.Distinct)
	}
	if snd.Stats.Segments != 300+snd.Stats.Retransmits {
		t.Fatalf("segments=%d retransmits=%d distinct=300: inconsistent",
			snd.Stats.Segments, snd.Stats.Retransmits)
	}
	if snd.Stats.Retransmits == 0 {
		t.Fatal("expected some retransmissions at 6% loss")
	}
}

// Property-style invariant scan: run a lossy transfer and assert window
// invariants hold at every event boundary.
func TestRenoInvariantsUnderRandomLoss(t *testing.T) {
	for seed := 0; seed < 5; seed++ {
		p, snd, sink := tcpRig(15 * sim.Millisecond)
		counter := 0
		k := 7 + seed*3
		p.drop = func(pk *packet.Packet) bool {
			counter++
			return counter%k == 0
		}
		snd.Supply(400)
		snd.Start()
		for p.sched.Step() {
			if snd.cwnd < 1 {
				t.Fatalf("seed %d: cwnd fell to %v", seed, snd.cwnd)
			}
			if snd.sndUna > snd.sndNxt {
				t.Fatalf("seed %d: sndUna %d > sndNxt %d", seed, snd.sndUna, snd.sndNxt)
			}
			if snd.ssthresh < 2 {
				t.Fatalf("seed %d: ssthresh %v < 2", seed, snd.ssthresh)
			}
			if p.sched.Now() > sim.Time(600*sim.Second) {
				break
			}
		}
		if sink.Stats.Distinct != 400 {
			t.Fatalf("seed %d: distinct = %d, want 400", seed, sink.Stats.Distinct)
		}
		// Cumulative ACK monotonicity is implied by Distinct==400 plus
		// nextExpected reaching 400.
		if sink.NextExpected() != 400 {
			t.Fatalf("seed %d: nextExpected = %d", seed, sink.NextExpected())
		}
	}
}
