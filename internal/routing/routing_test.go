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
// records the buffer's eviction reasons and its arena's ledger the
// releases.
func newBufferEnv(sched *sim.Scheduler) *routingtest.Env {
	return routingtest.NewEnv(0, sched, &packet.UIDSource{}, packet.NewArena(sched.Now))
}

// bufPkt builds a data packet through env's arena, so the buffer's
// releases of it reach the ledger.
func bufPkt(env *routingtest.Env) *packet.Packet {
	return env.Pool.NewPacketFrom(packet.Packet{UID: env.Uids.Next(), Kind: packet.KindData, Size: 1040})
}

// checkReleased requires the buffer to have released exactly n of env's
// packets, each once, and none it did not own.
func checkReleased(t *testing.T, env *routingtest.Env, n int) {
	t.Helper()
	st := env.Pool.Stats()
	if st.PacketsReleased != uint64(n) || st.DoubleReleases != 0 || st.ForeignReleases != 0 {
		t.Fatalf("released %d (double %d, foreign %d), want %d each exactly once",
			st.PacketsReleased, st.DoubleReleases, st.ForeignReleases, n)
	}
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
	env := newBufferEnv(sched)
	b := routing.NewSendBuffer(env, 2, 8*sim.Second)
	p1, p2, p3 := bufPkt(env), bufPkt(env), bufPkt(env)
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
	checkReleased(t, env, len(env.Dropped))
}

func TestSendBufferExpiry(t *testing.T) {
	sched := sim.NewScheduler()
	env := newBufferEnv(sched)
	b := routing.NewSendBuffer(env, 8, 2*sim.Second)
	b.Push(1, bufPkt(env))
	sched.RunUntil(sim.Time(3 * sim.Second))
	b.Push(1, bufPkt(env)) // triggers expiry scan
	got := b.Pop(1)
	if len(got) != 1 {
		t.Fatalf("fresh packets = %d, want 1", len(got))
	}
	if len(env.Dropped) != 1 || env.Dropped[0] != "sendbuf-timeout" {
		t.Fatalf("expired drops = %v", env.Dropped)
	}
	checkReleased(t, env, len(env.Dropped))
}

// TestSendBufferDropAll: giving up on a destination drops and releases
// everything buffered for it; retiring the buffer at run end releases
// everything too, but reports no drops.
func TestSendBufferDropAll(t *testing.T) {
	for _, tc := range []struct {
		name  string
		empty func(b *routing.SendBuffer)
		drops int
	}{
		{"DropAll", func(b *routing.SendBuffer) { b.DropAll(1) }, 2},
		{"Retire", (*routing.SendBuffer).Retire, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sched := sim.NewScheduler()
			env := newBufferEnv(sched)
			b := routing.NewSendBuffer(env, 8, 8*sim.Second)
			b.Push(1, bufPkt(env))
			b.Push(1, bufPkt(env))
			tc.empty(b)
			if len(env.Dropped) != tc.drops || b.Len(1) != 0 {
				t.Fatalf("drops=%v len=%d", env.Dropped, b.Len(1))
			}
			checkReleased(t, env, 2)
		})
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
