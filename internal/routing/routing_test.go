package routing_test

import (
	"testing"
	"testing/quick"

	"mtsim/internal/packet"
	"mtsim/internal/routing"
	"mtsim/internal/routing/routingtest"
	"mtsim/internal/sim"
)

func mkPkt(u *packet.UIDSource) *packet.Packet {
	return &packet.Packet{UID: u.Next(), Kind: packet.KindData, Size: 1040}
}

// newBufferEnv is a lone node's fake environment: its Dropped list
// records the buffer's eviction reasons.
func newBufferEnv(sched *sim.Scheduler) *routingtest.Env {
	return routingtest.NewEnv(0, sched, &packet.UIDSource{})
}

func TestSendBufferPushPop(t *testing.T) {
	sched := sim.NewScheduler()
	var uids packet.UIDSource
	b := routing.NewSendBuffer(newBufferEnv(sched), 4, 8*sim.Second)
	p1, p2 := mkPkt(&uids), mkPkt(&uids)
	b.Push(5, p1)
	b.Push(5, p2)
	if b.Len(5) != 2 {
		t.Fatalf("len = %d", b.Len(5))
	}
	got := b.Pop(5)
	if len(got) != 2 || got[0] != p1 || got[1] != p2 {
		t.Fatalf("pop = %v", got)
	}
	if b.Len(5) != 0 {
		t.Fatal("buffer not emptied")
	}
}

func TestSendBufferOverflowEvictsOldest(t *testing.T) {
	sched := sim.NewScheduler()
	var uids packet.UIDSource
	env := newBufferEnv(sched)
	b := routing.NewSendBuffer(env, 2, 8*sim.Second)
	p1, p2, p3 := mkPkt(&uids), mkPkt(&uids), mkPkt(&uids)
	b.Push(1, p1)
	b.Push(1, p2)
	b.Push(1, p3) // evicts p1
	got := b.Pop(1)
	if len(got) != 2 || got[0] != p2 || got[1] != p3 {
		t.Fatalf("pop after overflow = %v", got)
	}
	if len(env.Dropped) != 1 || env.Dropped[0] != "sendbuf-overflow" {
		t.Fatalf("drops = %v", env.Dropped)
	}
}

func TestSendBufferExpiry(t *testing.T) {
	sched := sim.NewScheduler()
	var uids packet.UIDSource
	env := newBufferEnv(sched)
	b := routing.NewSendBuffer(env, 8, 2*sim.Second)
	b.Push(1, mkPkt(&uids))
	sched.RunUntil(sim.Time(3 * sim.Second))
	b.Push(1, mkPkt(&uids)) // triggers expiry scan
	got := b.Pop(1)
	if len(got) != 1 {
		t.Fatalf("fresh packets = %d, want 1", len(got))
	}
	if len(env.Dropped) != 1 || env.Dropped[0] != "sendbuf-timeout" {
		t.Fatalf("expired drops = %v", env.Dropped)
	}
}

func TestSendBufferDropAll(t *testing.T) {
	sched := sim.NewScheduler()
	var uids packet.UIDSource
	env := newBufferEnv(sched)
	b := routing.NewSendBuffer(env, 8, 8*sim.Second)
	b.Push(1, mkPkt(&uids))
	b.Push(1, mkPkt(&uids))
	b.DropAll(1)
	if len(env.Dropped) != 2 || b.Len(1) != 0 {
		t.Fatalf("drops=%v len=%d", env.Dropped, b.Len(1))
	}
}

func TestSendBufferPerDestinationIsolation(t *testing.T) {
	sched := sim.NewScheduler()
	var uids packet.UIDSource
	b := routing.NewSendBuffer(newBufferEnv(sched), 2, 8*sim.Second)
	b.Push(1, mkPkt(&uids))
	b.Push(2, mkPkt(&uids))
	b.Push(2, mkPkt(&uids))
	if b.Len(1) != 1 || b.Len(2) != 2 {
		t.Fatalf("lens: %d, %d", b.Len(1), b.Len(2))
	}
	b.DropAll(2)
	if b.Len(1) != 1 {
		t.Fatal("DropAll leaked across destinations")
	}
}

// Property: SeqNewer defines a strict half-plane ordering: for any a!=b
// exactly one of SeqNewer(a,b) / SeqNewer(b,a) holds unless they are
// exactly 2^31 apart.
func TestSeqNewerAntisymmetryProperty(t *testing.T) {
	f := func(a, b uint32) bool {
		if a == b {
			return !routing.SeqNewer(a, b) && !routing.SeqNewer(b, a)
		}
		if a-b == 1<<31 {
			return true // boundary: both directions agree by convention
		}
		return routing.SeqNewer(a, b) != routing.SeqNewer(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSeqNewerSuccessorProperty(t *testing.T) {
	f := func(a uint32) bool { return routing.SeqNewer(a+1, a) }
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
