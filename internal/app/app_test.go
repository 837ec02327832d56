package app

import (
	"testing"

	"mtsim/internal/packet"
	"mtsim/internal/sim"
	"mtsim/internal/tcp"
)

// fakeNet satisfies tcp.Network/CBRNetwork, recording originations.
type fakeNet struct {
	id    packet.NodeID
	sched *sim.Scheduler
	uids  packet.UIDSource
	ar    *packet.Arena
	sent  []*packet.Packet
	flows map[int]func(*packet.Packet, packet.NodeID)
}

func newFakeNet(id packet.NodeID) *fakeNet {
	sched := sim.NewScheduler()
	return &fakeNet{
		id:    id,
		sched: sched,
		ar:    packet.NewArena(sched.Now),
		flows: map[int]func(*packet.Packet, packet.NodeID){},
	}
}

func (f *fakeNet) ID() packet.NodeID         { return f.id }
func (f *fakeNet) Scheduler() *sim.Scheduler { return f.sched }
func (f *fakeNet) UIDs() *packet.UIDSource   { return &f.uids }
func (f *fakeNet) Arena() *packet.Arena      { return f.ar }
func (f *fakeNet) RegisterFlow(flow int, h func(*packet.Packet, packet.NodeID)) {
	f.flows[flow] = h
}
func (f *fakeNet) Originate(p *packet.Packet) { f.sent = append(f.sent, p) }

func TestFTPStartsAtConfiguredTime(t *testing.T) {
	net := newFakeNet(1)
	snd := tcp.NewSender(net, tcp.DefaultConfig(), 1, 2)
	NewFTP(snd, sim.Time(3*sim.Second)).Install(net.sched)

	net.sched.RunUntil(sim.Time(2 * sim.Second))
	if len(net.sent) != 0 {
		t.Fatalf("FTP sent %d packets before start time", len(net.sent))
	}
	net.sched.RunUntil(sim.Time(4 * sim.Second))
	if len(net.sent) == 0 {
		t.Fatal("FTP sent nothing after start time")
	}
	// Initial window is 1 segment.
	if len(net.sent) != 1 {
		t.Fatalf("initial burst = %d, want 1 (cwnd=1)", len(net.sent))
	}
}

func TestCBRRate(t *testing.T) {
	net := newFakeNet(1)
	cbr := NewCBR(net, 2, 5, 512, 100*sim.Millisecond,
		sim.Time(sim.Second), sim.Time(3*sim.Second))
	cbr.Install(net.sched)
	net.sched.RunUntil(sim.Time(10 * sim.Second))

	// Active window [1s, 3s) at 10 pkt/s => 20 packets.
	if cbr.Sent != 20 {
		t.Fatalf("CBR sent %d, want 20", cbr.Sent)
	}
	if len(net.sent) != 20 {
		t.Fatalf("originations = %d", len(net.sent))
	}
	p := net.sent[0]
	if p.Size != packet.IPHeaderBytes+512 || p.Dst != 5 || p.Kind != packet.KindData {
		t.Fatalf("CBR packet malformed: %+v", p)
	}
	if p.DataID == 0 {
		t.Fatal("CBR packets must carry DataID for interception counting")
	}
	// Sequence numbers increase.
	if net.sent[1].TCP.Seq != net.sent[0].TCP.Seq+1 {
		t.Fatal("CBR seq not increasing")
	}
}

func TestCBRStopsAtStopTime(t *testing.T) {
	net := newFakeNet(1)
	cbr := NewCBR(net, 1, 2, 100, 50*sim.Millisecond, 0, sim.Time(sim.Second))
	cbr.Install(net.sched)
	net.sched.RunUntil(sim.Time(5 * sim.Second))
	if net.sched.Len() != 0 {
		t.Fatal("CBR left pending timers after stop")
	}
	if cbr.Sent == 0 || cbr.Sent > 21 {
		t.Fatalf("CBR sent %d in 1s at 20 pkt/s", cbr.Sent)
	}
}
