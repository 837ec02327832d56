package packet

import (
	"testing"

	"mtsim/internal/sim"
)

// frozen is the clock of arenas whose tests never advance simulated time.
func frozen() sim.Time { return 0 }

func TestArenaRecyclesPacketStorage(t *testing.T) {
	a := NewArena(frozen)
	p := a.NewPacket()
	a.Release(p)
	q := a.NewPacket()
	if q != p {
		t.Fatalf("released packet not recycled")
	}
	if q.UID != 0 || q.Kind != 0 || q.SourceRoute != nil || q.TCP != nil {
		t.Fatalf("recycled packet not zeroed: %+v", q)
	}
	st := a.Stats()
	if st.PacketsAcquired != 2 || st.PacketsReleased != 1 || a.LivePackets() != 1 {
		t.Fatalf("bad accounting: %+v live=%d", st, a.LivePackets())
	}
}

func TestArenaCopyMatchesPlainCopy(t *testing.T) {
	a := NewArena(frozen)
	var u1, u2 UIDSource
	src := &Packet{
		UID: u1.Next(), Kind: KindData, Size: 1040, Src: 3, Dst: 9, TTL: 7,
		DataID:      42,
		SourceRoute: []NodeID{3, 4, 9},
		SRIndex:     1,
		Trail:       []NodeID{3, 4},
		TCP:         &TCPHeader{Flow: 1, Seq: 5, SentAt: 17},
		Routing:     "header",
	}
	u2.Next()
	plain := src.Copy(&u1)
	pooled := a.Copy(src, &u2)
	if plain.UID != pooled.UID {
		t.Fatalf("UID mismatch: %d vs %d", plain.UID, pooled.UID)
	}
	if pooled.Kind != plain.Kind || pooled.Size != plain.Size || pooled.DataID != plain.DataID ||
		pooled.SRIndex != plain.SRIndex || *pooled.TCP != *plain.TCP || pooled.Routing != plain.Routing {
		t.Fatalf("pooled copy diverges:\nplain:  %+v\npooled: %+v", plain, pooled)
	}
	if &pooled.SourceRoute[0] == &src.SourceRoute[0] || &pooled.Trail[0] == &src.Trail[0] {
		t.Fatal("pooled copy aliases the source's slices")
	}
	if pooled.TCP == src.TCP {
		t.Fatal("pooled copy shares the source's TCP header")
	}
	for i := range src.SourceRoute {
		if pooled.SourceRoute[i] != src.SourceRoute[i] {
			t.Fatalf("route mismatch at %d", i)
		}
	}
}

// TestArenaSetSourceRouteDoesNotRetainCaller locks the aliasing contract
// that makes slice recycling safe: the caller's slice (which may also
// live inside a retained routing header, like an MTS Check's Route) must
// never enter the free list.
func TestArenaSetSourceRouteDoesNotRetainCaller(t *testing.T) {
	a := NewArena(frozen)
	shared := []NodeID{5, 4, 3, 2} // stands in for a header-retained route
	p := a.NewPacket()
	a.SetSourceRoute(p, shared)
	if &p.SourceRoute[0] == &shared[0] {
		t.Fatal("SetSourceRoute retained the caller's slice")
	}
	a.Release(p)
	q := a.NewPacket()
	a.SetSourceRoute(q, []NodeID{9, 8})
	for i, n := range shared {
		if n != []NodeID{5, 4, 3, 2}[i] {
			t.Fatalf("shared route corrupted after recycling: %v", shared)
		}
	}
}

func TestArenaDoubleReleaseDetected(t *testing.T) {
	a := NewArena(frozen)
	a.Check = true
	p := a.NewPacket()
	a.Release(p)
	a.Release(p)
	if st := a.Stats(); st.DoubleReleases != 1 || st.PacketsReleased != 1 {
		t.Fatalf("double release not detected: %+v", st)
	}
	f := a.NewFrame()
	a.ReleaseFrame(f)
	a.ReleaseFrame(f)
	if st := a.Stats(); st.DoubleReleases != 2 {
		t.Fatalf("frame double release not detected: %+v", st)
	}
}

func TestArenaForeignReleaseDetected(t *testing.T) {
	a := NewArena(frozen)
	a.Release(&Packet{})
	a.Release(nil) // nil packets and frames are no-ops
	a.ReleaseFrame(nil)
	if st := a.Stats(); st != (ArenaStats{ForeignReleases: 1}) {
		t.Fatalf("foreign release not detected: %+v", st)
	}
}

func TestArenaPoisonTripsOnWriteAfterRelease(t *testing.T) {
	a := NewArena(frozen)
	a.Check = true
	p := a.NewPacket()
	a.Release(p)
	p.UID = 7 // the bug under test: a write through a stale pointer
	_ = a.NewPacket()
	if st := a.Stats(); st.PoisonTrips != 1 {
		t.Fatalf("write-after-release not detected: %+v", st)
	}
}

// TestArenaQuarantineHoldsUntilClockPasses proves a ReleaseAfter object
// is not reused — and not even scrubbed — until the simulation clock
// passes its deadline, which is what keeps in-flight broadcast arrivals
// readable after the transmitting MAC lets go.
func TestArenaQuarantineHoldsUntilClockPasses(t *testing.T) {
	now := sim.Time(0)
	a := NewArena(func() sim.Time { return now })
	p := a.NewPacket()
	p.Kind = KindData
	p.DataID = 99
	a.ReleaseAfter(p, 10)
	if got := a.NewPacket(); got == p {
		t.Fatal("quarantined packet reused before its deadline")
	}
	if p.DataID != 99 {
		t.Fatal("quarantined packet scrubbed while borrowed readers may remain")
	}
	now = 10 // deadline is exclusive: now == readyAt still holds it
	if got := a.NewPacket(); got == p {
		t.Fatal("quarantined packet reused at its deadline")
	}
	now = 11
	if got := a.NewPacket(); got != p {
		t.Fatal("quarantined packet not reclaimed after its deadline")
	}
}

func TestArenaPoolingOffNeverRecycles(t *testing.T) {
	a := NewArena(frozen)
	a.Pooling = false
	p := a.NewPacket()
	p.Kind = KindData
	a.Release(p)
	if q := a.NewPacket(); q == p {
		t.Fatal("reference mode recycled storage")
	}
	if st := a.Stats(); st.PacketsAcquired != 2 || st.PacketsReleased != 1 {
		t.Fatalf("reference mode accounting wrong: %+v", st)
	}
}

// FuzzPacketCopy drives both copy implementations with arbitrary packet
// shapes and requires fresh UIDs, equal field values and deep
// SourceRoute/Trail duplication from each.
func FuzzPacketCopy(f *testing.F) {
	f.Add(uint8(0), 3, 2, int64(7), true)
	f.Add(uint8(4), 0, 0, int64(0), false)
	f.Add(uint8(1), 17, 33, int64(-5), true)
	f.Fuzz(func(t *testing.T, kind uint8, routeLen, trailLen int, seq int64, withTCP bool) {
		if routeLen < 0 || routeLen > 64 || trailLen < 0 || trailLen > 64 {
			t.Skip()
		}
		mk := func() *Packet {
			p := &Packet{Kind: Kind(kind), Size: 1040, Src: 1, Dst: 2, TTL: 9, DataID: uint64(seq) + 1}
			for i := 0; i < routeLen; i++ {
				p.SourceRoute = append(p.SourceRoute, NodeID(i))
			}
			for i := 0; i < trailLen; i++ {
				p.Trail = append(p.Trail, NodeID(100+i))
			}
			if withTCP {
				p.TCP = &TCPHeader{Flow: 1, Seq: seq, SentAt: 3}
			}
			return p
		}
		a := NewArena(frozen)
		a.Check = true
		var u1, u2 UIDSource
		src := mk()
		plain := src.Copy(&u1)
		pooled := a.Copy(mk(), &u2)

		if plain.UID != 1 || pooled.UID != 1 {
			t.Fatalf("copies must draw fresh UIDs: %d / %d", plain.UID, pooled.UID)
		}
		if (plain.SourceRoute == nil) != (pooled.SourceRoute == nil) ||
			len(plain.SourceRoute) != len(pooled.SourceRoute) ||
			(plain.Trail == nil) != (pooled.Trail == nil) ||
			len(plain.Trail) != len(pooled.Trail) {
			t.Fatalf("slice shape diverges: plain %v/%v pooled %v/%v",
				plain.SourceRoute, plain.Trail, pooled.SourceRoute, pooled.Trail)
		}
		for i := range plain.SourceRoute {
			if plain.SourceRoute[i] != pooled.SourceRoute[i] {
				t.Fatal("route contents diverge")
			}
		}
		if routeLen > 0 && &pooled.SourceRoute[0] == &src.SourceRoute[0] {
			t.Fatal("pooled copy aliases source route")
		}
		if withTCP && (pooled.TCP == nil || *pooled.TCP != *plain.TCP) {
			t.Fatal("TCP header diverges")
		}
	})
}

// FuzzArenaReuse hammers acquire/copy/release cycles (with quarantined
// releases mixed in) and asserts the invariants that make pooling safe:
// every UID is fresh, a recycled packet never aliases a live packet's
// route storage, and the books balance with no double releases.
func FuzzArenaReuse(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5}, false)
	f.Add([]byte{5, 4, 3, 2, 1, 0, 255, 128, 7, 7, 7}, true)
	f.Add([]byte{2, 2, 2, 9, 9, 9, 1, 0, 1, 0}, false)
	f.Fuzz(func(t *testing.T, ops []byte, pooling bool) {
		now := sim.Time(0)
		a := NewArena(func() sim.Time { return now })
		a.Check = true
		a.Pooling = pooling
		var uids UIDSource
		var live []*Packet
		seenUID := map[uint64]bool{}

		checkFresh := func(p *Packet) {
			if p.UID != 0 && seenUID[p.UID] {
				t.Fatalf("UID %d issued twice", p.UID)
			}
			if p.UID != 0 {
				seenUID[p.UID] = true
			}
		}
		for _, op := range ops {
			now += sim.Time(op % 3)
			switch op % 5 {
			case 0: // originate
				p := a.NewPacketFrom(Packet{UID: uids.Next(), Kind: KindData, Src: 1, Dst: 2})
				a.SetSourceRoute(p, []NodeID{1, NodeID(op), 2})
				checkFresh(p)
				live = append(live, p)
			case 1: // per-hop copy of a live packet
				if len(live) == 0 {
					continue
				}
				p := live[int(op)%len(live)]
				q := a.Copy(p, &uids)
				checkFresh(q)
				if p.SourceRoute != nil && q.SourceRoute != nil &&
					&p.SourceRoute[0] == &q.SourceRoute[0] {
					t.Fatal("copy aliases its source's route")
				}
				live = append(live, q)
			case 2: // release newest
				if len(live) == 0 {
					continue
				}
				p := live[len(live)-1]
				live = live[:len(live)-1]
				a.Release(p)
			case 3: // quarantined release (broadcast-style)
				if len(live) == 0 {
					continue
				}
				p := live[0]
				live = live[1:]
				a.ReleaseAfter(p, sim.Duration(op%7))
			case 4: // trail growth on a live packet
				if len(live) == 0 {
					continue
				}
				a.StartTrail(live[int(op)%len(live)], NodeID(op))
			}
			// No recycled packet may alias a live packet's route slice.
			for i, p := range live {
				if p.SourceRoute == nil {
					continue
				}
				for _, q := range live[i+1:] {
					if q.SourceRoute != nil && &p.SourceRoute[0] == &q.SourceRoute[0] {
						t.Fatal("two live packets share route storage")
					}
				}
			}
		}
		st := a.Stats()
		if st.DoubleReleases != 0 || st.ForeignReleases != 0 || st.PoisonTrips != 0 {
			t.Fatalf("accounting tripped: %+v", st)
		}
		if a.LivePackets() != len(live) {
			t.Fatalf("live accounting: arena says %d, test holds %d", a.LivePackets(), len(live))
		}
	})
}
