package routingtest

import (
	"testing"

	"mtsim/internal/packet"
	"mtsim/internal/routing"
	"mtsim/internal/routing/aodv"
	"mtsim/internal/sim"
)

func newTestEnv(t *testing.T) *Env {
	t.Helper()
	sched := sim.NewScheduler()
	uids := &packet.UIDSource{}
	return NewEnv(3, sched, uids, packet.NewArena(sched.Now))
}

func dataPkt(uids *packet.UIDSource, src, dst packet.NodeID) *packet.Packet {
	return &packet.Packet{
		UID: uids.Next(), Kind: packet.KindData, Size: 1040,
		Src: src, Dst: dst, TTL: routing.DefaultTTL, DataID: 1,
	}
}

func TestEnvIdentity(t *testing.T) {
	sched := sim.NewScheduler()
	uids := &packet.UIDSource{}
	e := NewEnv(7, sched, uids, packet.NewArena(sched.Now))
	if e.ID() != 7 {
		t.Fatalf("ID = %d, want 7", e.ID())
	}
	if e.Scheduler() != sched {
		t.Fatal("Scheduler not the shared scheduler")
	}
	if e.UIDs() != uids {
		t.Fatal("UIDs not the shared source")
	}
	if e.RNG() == nil {
		t.Fatal("RNG is nil")
	}
	// Envs with the same ID must draw identical streams (reproducible
	// white-box tests); different IDs must diverge.
	ar := packet.NewArena(sched.Now)
	same := NewEnv(7, sched, uids, ar)
	other := NewEnv(8, sched, uids, ar)
	a, b, c := e.RNG().Int63(), same.RNG().Int63(), other.RNG().Int63()
	if a != b {
		t.Fatalf("same-ID envs drew %d and %d", a, b)
	}
	if a == c {
		t.Fatal("different-ID envs share a stream")
	}
}

func TestEnvRecordsSends(t *testing.T) {
	e := newTestEnv(t)
	p1 := dataPkt(e.Uids, 3, 9)
	p2 := dataPkt(e.Uids, 3, 9)
	e.SendMac(p1, 5)
	e.SendMac(p2, packet.Broadcast)

	if len(e.Outbox) != 2 {
		t.Fatalf("outbox = %d entries, want 2", len(e.Outbox))
	}
	if e.Outbox[0].P != p1 || e.Outbox[0].Next != 5 {
		t.Fatalf("first send recorded as %+v", e.Outbox[0])
	}
	if e.Outbox[1].Next != packet.Broadcast {
		t.Fatalf("broadcast next recorded as %d", e.Outbox[1].Next)
	}

	taken := e.TakeOutbox()
	if len(taken) != 2 {
		t.Fatalf("TakeOutbox returned %d entries", len(taken))
	}
	if len(e.Outbox) != 0 {
		t.Fatal("TakeOutbox did not clear the outbox")
	}
	if again := e.TakeOutbox(); len(again) != 0 {
		t.Fatal("second TakeOutbox not empty")
	}
}

func TestEnvRecordsDeliveryRelayDrop(t *testing.T) {
	e := newTestEnv(t)
	p := dataPkt(e.Uids, 1, 3)
	e.DeliverLocal(p, 2)
	e.NotifyRelay(p)
	e.NotifyRelay(p)
	e.NotifyDrop(p, "no-route")
	e.NotifyDrop(p, "ttl")

	if len(e.Delivered) != 1 || e.Delivered[0] != p {
		t.Fatalf("delivered = %v", e.Delivered)
	}
	if len(e.Relayed) != 2 {
		t.Fatalf("relayed = %d, want 2", len(e.Relayed))
	}
	if len(e.Dropped) != 2 || e.Dropped[0] != "no-route" || e.Dropped[1] != "ttl" {
		t.Fatalf("dropped = %v", e.Dropped)
	}
}

func TestEnvDropQueuedIsEmpty(t *testing.T) {
	e := newTestEnv(t)
	n := e.DropQueued(func(*packet.Packet, packet.NodeID) bool { return true })
	if n != 0 {
		t.Fatalf("fake queue dropped %d packets", n)
	}
}

// TestEnvDrivesRealProtocol is the integration smoke: a real routing
// protocol bound to the fake env originates a packet with no route and the
// env records the resulting RREQ flood — the workflow every protocol
// white-box test builds on.
func TestEnvDrivesRealProtocol(t *testing.T) {
	e := newTestEnv(t)
	r := aodv.New(e, aodv.DefaultConfig())
	r.Start()
	r.Send(dataPkt(e.Uids, e.Node, 9))
	e.Sched.RunUntil(sim.Time(sim.Second))

	sent := e.TakeOutbox()
	if len(sent) == 0 {
		t.Fatal("no route discovery traffic recorded")
	}
	foundRREQ := false
	for _, s := range sent {
		if s.P.Kind == packet.KindRREQ && s.Next == packet.Broadcast {
			foundRREQ = true
		}
	}
	if !foundRREQ {
		t.Fatalf("no broadcast RREQ among %d sends", len(sent))
	}
}

// The fake must keep satisfying the real interface.
func TestEnvImplementsRoutingEnv(t *testing.T) {
	var _ routing.Env = newTestEnv(t)
}
