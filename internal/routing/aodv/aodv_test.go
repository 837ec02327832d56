package aodv

import (
	"testing"

	"mtsim/internal/packet"
	"mtsim/internal/routing"
	"mtsim/internal/routing/routingtest"
	"mtsim/internal/sim"
)

// net is a hand-driven network of AODV routers over fake envs: every
// recorded transmission is forwarded to its addressee(s) according to an
// adjacency map, after running the scheduler to flush jitters.
type net struct {
	sched   *sim.Scheduler
	uids    packet.UIDSource
	ar      *packet.Arena
	envs    map[packet.NodeID]*routingtest.Env
	routers map[packet.NodeID]*Router
	adj     map[packet.NodeID][]packet.NodeID
}

func newNet(adj map[packet.NodeID][]packet.NodeID) *net {
	sched := sim.NewScheduler()
	n := &net{
		sched:   sched,
		ar:      packet.NewArena(sched.Now),
		envs:    map[packet.NodeID]*routingtest.Env{},
		routers: map[packet.NodeID]*Router{},
		adj:     adj,
	}
	for id := range adj {
		e := routingtest.NewEnv(id, n.sched, &n.uids, n.ar)
		n.envs[id] = e
		n.routers[id] = New(e, DefaultConfig())
	}
	return n
}

// pump repeatedly flushes scheduler events and delivers outboxes until the
// network is quiet.
func (n *net) pump() {
	for i := 0; i < 10000; i++ {
		n.sched.RunUntil(n.sched.Now().Add(50 * sim.Millisecond))
		moved := false
		for id, e := range n.envs {
			for _, s := range e.TakeOutbox() {
				moved = true
				if s.Next == packet.Broadcast {
					for _, nb := range n.adj[id] {
						n.routers[nb].Receive(s.P, id)
					}
				} else {
					if n.linked(id, s.Next) {
						n.routers[s.Next].Receive(s.P, id)
					}
				}
			}
		}
		if !moved && n.sched.Len() == 0 {
			return
		}
	}
}

func (n *net) linked(a, b packet.NodeID) bool {
	for _, x := range n.adj[a] {
		if x == b {
			return true
		}
	}
	return false
}

func dataPacket(u *packet.UIDSource, src, dst packet.NodeID) *packet.Packet {
	return &packet.Packet{
		UID: u.Next(), Kind: packet.KindData, Size: 1040,
		Src: src, Dst: dst, TTL: 64,
		TCP: &packet.TCPHeader{Flow: 1, Seq: 0},
	}
}

// chain builds 0-1-2-...-k.
func chain(k int) map[packet.NodeID][]packet.NodeID {
	adj := map[packet.NodeID][]packet.NodeID{}
	for i := 0; i <= k; i++ {
		id := packet.NodeID(i)
		if i > 0 {
			adj[id] = append(adj[id], packet.NodeID(i-1))
		}
		if i < k {
			adj[id] = append(adj[id], packet.NodeID(i+1))
		}
	}
	return adj
}

func TestDiscoveryAndDeliveryOverChain(t *testing.T) {
	n := newNet(chain(4))
	p := dataPacket(&n.uids, 0, 4)
	n.routers[0].Send(p)
	n.pump()

	if len(n.envs[4].Delivered) != 1 {
		t.Fatalf("delivered = %d, want 1", len(n.envs[4].Delivered))
	}
	// Forward route installed at the source.
	next, hops, ok := n.routers[0].RouteTo(4)
	if !ok || next != 1 || hops != 4 {
		t.Fatalf("route at source: next=%d hops=%d ok=%v", next, hops, ok)
	}
	// Intermediates relayed the data packet exactly once each.
	for _, id := range []packet.NodeID{1, 2, 3} {
		if len(n.envs[id].Relayed) != 1 {
			t.Fatalf("node %d relays = %d", id, len(n.envs[id].Relayed))
		}
	}
}

func TestReverseRouteInstalled(t *testing.T) {
	n := newNet(chain(3))
	n.routers[0].Send(dataPacket(&n.uids, 0, 3))
	n.pump()
	// The destination must have a route back to the source from the RREQ.
	next, _, ok := n.routers[3].RouteTo(0)
	if !ok || next != 2 {
		t.Fatalf("reverse route at destination: next=%d ok=%v", next, ok)
	}
}

func TestNoDuplicateRREQFlood(t *testing.T) {
	// Ring topology: 0-1-2-3-0. Each node must rebroadcast a given RREQ
	// at most once despite receiving multiple copies.
	adj := map[packet.NodeID][]packet.NodeID{
		0: {1, 3}, 1: {0, 2}, 2: {1, 3}, 3: {2, 0},
	}
	n := newNet(adj)
	// Track RREQ broadcasts per node per request ID while pumping: the
	// origin may legitimately issue several ring attempts (distinct BIDs),
	// but nobody may rebroadcast the same (orig, BID) twice.
	type bcast struct {
		node packet.NodeID
		bid  uint32
	}
	rreqs := map[bcast]int{}
	n.routers[0].Send(dataPacket(&n.uids, 0, 2))
	for i := 0; i < 200; i++ {
		n.sched.RunUntil(n.sched.Now().Add(50 * sim.Millisecond))
		moved := false
		for id, e := range n.envs {
			for _, s := range e.TakeOutbox() {
				moved = true
				if s.P.Kind == packet.KindRREQ {
					rreqs[bcast{id, s.P.Routing.(*RREQ).BID}]++
				}
				if s.Next == packet.Broadcast {
					for _, nb := range n.adj[id] {
						n.routers[nb].Receive(s.P, id)
					}
				} else if n.linked(id, s.Next) {
					n.routers[s.Next].Receive(s.P, id)
				}
			}
		}
		if !moved && n.sched.Len() == 0 {
			break
		}
	}
	for key, c := range rreqs {
		if c > 1 {
			t.Fatalf("node %d rebroadcast RREQ bid=%d %d times", key.node, key.bid, c)
		}
	}
	if len(n.envs[2].Delivered) != 1 {
		t.Fatalf("delivered = %d", len(n.envs[2].Delivered))
	}
}

func TestIntermediateReplyFromFreshRoute(t *testing.T) {
	n := newNet(chain(4))
	// First discovery populates routes along the chain.
	n.routers[0].Send(dataPacket(&n.uids, 0, 4))
	n.pump()
	// Now node 1 wants to reach 4: node 2 (or 1's own table) can answer
	// without the RREQ reaching 4. Count RREQ receptions at node 4.
	before := n.routers[4].Discoveries
	n.routers[1].Send(dataPacket(&n.uids, 1, 4))
	n.pump()
	if len(n.envs[4].Delivered) != 2 {
		t.Fatalf("delivered = %d, want 2", len(n.envs[4].Delivered))
	}
	_ = before
}

func TestLinkFailureInvalidatesAndRediscovers(t *testing.T) {
	n := newNet(chain(3))
	n.routers[0].Send(dataPacket(&n.uids, 0, 3))
	n.pump()
	if len(n.envs[3].Delivered) != 1 {
		t.Fatal("initial delivery failed")
	}

	// Break 1-2: remove adjacency both ways, then have node 1 report a
	// MAC failure for a transit packet.
	n.adj[1] = []packet.NodeID{0}
	n.adj[2] = []packet.NodeID{3}
	transit := dataPacket(&n.uids, 0, 3)
	n.routers[1].LinkFailed(transit, 2)

	if _, _, ok := n.routers[1].RouteTo(3); ok {
		t.Fatal("route via broken link still valid")
	}
	n.pump() // RERR propagates to 0
	if _, _, ok := n.routers[0].RouteTo(3); ok {
		t.Fatal("source still has route via broken link after RERR")
	}
}

func TestSourceLinkFailureRequeuesAndRetries(t *testing.T) {
	// Two-hop network where destination moves away: source MAC reports
	// failure, packet must be buffered and re-discovered via new path.
	adj := map[packet.NodeID][]packet.NodeID{
		0: {1, 2}, 1: {0, 3}, 2: {0, 3}, 3: {1, 2},
	}
	n := newNet(adj)
	n.routers[0].Send(dataPacket(&n.uids, 0, 3))
	n.pump()
	if len(n.envs[3].Delivered) != 1 {
		t.Fatal("initial delivery failed")
	}
	next1, _, _ := n.routers[0].RouteTo(3)

	// Break the link used; keep the alternative.
	if next1 == 1 {
		n.adj[0] = []packet.NodeID{2}
		n.adj[1] = []packet.NodeID{3}
	} else {
		n.adj[0] = []packet.NodeID{1}
		n.adj[2] = []packet.NodeID{3}
	}
	p := dataPacket(&n.uids, 0, 3)
	n.routers[0].LinkFailed(p, next1) // MAC feedback for own packet
	n.pump()

	if len(n.envs[3].Delivered) != 2 {
		t.Fatalf("delivered = %d, want 2 after reroute", len(n.envs[3].Delivered))
	}
	next2, _, ok := n.routers[0].RouteTo(3)
	if !ok || next2 == next1 {
		t.Fatalf("expected different next hop, got %d (ok=%v)", next2, ok)
	}
}

func TestDiscoveryGivesUpAndDropsBuffered(t *testing.T) {
	// Destination 9 does not exist / unreachable.
	n := newNet(chain(2))
	p := dataPacket(&n.uids, 0, 9)
	n.routers[0].Send(p)
	// Let all retries elapse: 1s + 2s + 4s plus slack.
	for i := 0; i < 200; i++ {
		n.pump()
		n.sched.RunUntil(n.sched.Now().Add(100 * sim.Millisecond))
	}
	found := false
	for _, r := range n.envs[0].Dropped {
		if r == "discovery-failed" {
			found = true
		}
	}
	if !found {
		t.Fatalf("buffered packet not dropped after failed discovery: %v", n.envs[0].Dropped)
	}
	// Expanding ring: TTL 1,3,5,7 then NetDiameter plus RREQRetries
	// backed-off full floods = 4 + 1 + 2 attempts.
	if want := uint64(7); n.routers[0].Discoveries != want {
		t.Fatalf("discoveries = %d, want %d", n.routers[0].Discoveries, want)
	}
}

func TestSeqNewerWraparound(t *testing.T) {
	if !routing.SeqNewer(1, 0) {
		t.Fatal("1 should be newer than 0")
	}
	if routing.SeqNewer(0, 1) {
		t.Fatal("0 newer than 1?")
	}
	// Wraparound: 2^31 apart flips the comparison.
	if !routing.SeqNewer(5, 0xFFFFFFFF) {
		t.Fatal("wraparound comparison failed")
	}
}

func TestUpdatePrefersFresherSeq(t *testing.T) {
	sched := sim.NewScheduler()
	var uids packet.UIDSource
	e := routingtest.NewEnv(0, sched, &uids, packet.NewArena(sched.Now))
	r := New(e, DefaultConfig())

	r.update(5, 1, 3, 10, true)
	// Older seq must not replace.
	r.update(5, 2, 1, 9, true)
	next, hops, _ := r.RouteTo(5)
	if next != 1 || hops != 3 {
		t.Fatalf("stale update accepted: next=%d hops=%d", next, hops)
	}
	// Same seq, shorter path replaces.
	r.update(5, 3, 2, 10, true)
	next, hops, _ = r.RouteTo(5)
	if next != 3 || hops != 2 {
		t.Fatalf("shorter same-seq update rejected: next=%d hops=%d", next, hops)
	}
	// Newer seq always replaces, even if longer.
	r.update(5, 4, 7, 11, true)
	next, hops, _ = r.RouteTo(5)
	if next != 4 || hops != 7 {
		t.Fatalf("fresher update rejected: next=%d hops=%d", next, hops)
	}
}

func TestRouteExpiry(t *testing.T) {
	sched := sim.NewScheduler()
	var uids packet.UIDSource
	e := routingtest.NewEnv(0, sched, &uids, packet.NewArena(sched.Now))
	r := New(e, DefaultConfig())
	r.update(5, 1, 2, 1, true)
	if _, _, ok := r.RouteTo(5); !ok {
		t.Fatal("fresh route invalid")
	}
	sched.RunUntil(sim.Time(DefaultConfig().ActiveRouteTimeout) + sim.Time(sim.Second))
	if _, _, ok := r.RouteTo(5); ok {
		t.Fatal("expired route still valid")
	}
}

func TestTTLExhaustedDataDropped(t *testing.T) {
	n := newNet(chain(2))
	n.routers[0].Send(dataPacket(&n.uids, 0, 2))
	n.pump()
	p := dataPacket(&n.uids, 0, 2)
	p.TTL = 1
	n.routers[1].Receive(p, 0) // intermediate with TTL 1 must drop
	if len(n.envs[1].Dropped) == 0 || n.envs[1].Dropped[len(n.envs[1].Dropped)-1] != "ttl" {
		t.Fatalf("TTL drop not recorded: %v", n.envs[1].Dropped)
	}
}

func TestSendToSelfDeliversLocally(t *testing.T) {
	n := newNet(chain(1))
	p := dataPacket(&n.uids, 0, 0)
	n.routers[0].Send(p)
	if len(n.envs[0].Delivered) != 1 {
		t.Fatal("self-addressed packet not delivered locally")
	}
}
