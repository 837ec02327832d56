package smr

import (
	"testing"

	"mtsim/internal/packet"
	"mtsim/internal/routing/routingtest"
	"mtsim/internal/sim"
)

// net mirrors the hand-driven harness used by the other protocol tests.
type net struct {
	sched   *sim.Scheduler
	uids    packet.UIDSource
	ar      *packet.Arena
	envs    map[packet.NodeID]*routingtest.Env
	routers map[packet.NodeID]*Router
	adj     map[packet.NodeID][]packet.NodeID
}

func newNet(adj map[packet.NodeID][]packet.NodeID, mode Mode) *net {
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
		n.routers[id] = New(e, DefaultConfig(), mode)
	}
	return n
}

func (n *net) linked(a, b packet.NodeID) bool {
	for _, x := range n.adj[a] {
		if x == b {
			return true
		}
	}
	return false
}

func (n *net) pump(horizon sim.Duration) {
	target := n.sched.Now().Add(horizon)
	for i := 0; i < 100000; i++ {
		n.sched.RunUntil(n.sched.Now().Add(10 * sim.Millisecond))
		moved := false
		for id, e := range n.envs {
			for _, s := range e.TakeOutbox() {
				moved = true
				if s.Next == packet.Broadcast {
					for _, nb := range n.adj[id] {
						n.routers[nb].Receive(s.P, id)
					}
				} else if n.linked(id, s.Next) {
					n.routers[s.Next].Receive(s.P, id)
				} else {
					n.routers[id].LinkFailed(s.P, s.Next)
				}
			}
		}
		if n.sched.Now() >= target && !moved {
			return
		}
	}
}

func dataPacket(u *packet.UIDSource, src, dst packet.NodeID, seq int64) *packet.Packet {
	return &packet.Packet{
		UID: u.Next(), Kind: packet.KindData, Size: 1040,
		Src: src, Dst: dst, TTL: 64,
		TCP: &packet.TCPHeader{Flow: 1, Seq: seq},
	}
}

// diamond: two disjoint 2-hop paths between 0 and 3.
func diamond() map[packet.NodeID][]packet.NodeID {
	return map[packet.NodeID][]packet.NodeID{
		0: {1, 2}, 1: {0, 3}, 2: {0, 3}, 3: {1, 2},
	}
}

func TestDiscoversTwoDisjointRoutes(t *testing.T) {
	n := newNet(diamond(), ModeSplit)
	n.routers[0].Send(dataPacket(&n.uids, 0, 3, 0))
	n.pump(500 * sim.Millisecond)

	if len(n.envs[3].Delivered) != 1 {
		t.Fatalf("delivered = %d", len(n.envs[3].Delivered))
	}
	routes := n.routers[0].Routes(3)
	if len(routes) != 2 {
		t.Fatalf("routes = %v, want 2", routes)
	}
	if routes[0][1] == routes[1][1] {
		t.Fatalf("routes share first hop: %v", routes)
	}
	if n.routers[3].SecondRoutes != 1 {
		t.Fatalf("second-route selections = %d", n.routers[3].SecondRoutes)
	}
}

func TestSplitModeAlternatesRoutes(t *testing.T) {
	n := newNet(diamond(), ModeSplit)
	n.routers[0].Send(dataPacket(&n.uids, 0, 3, 0))
	n.pump(500 * sim.Millisecond)
	// Send several packets; both relays must see traffic.
	for i := int64(1); i <= 8; i++ {
		n.routers[0].Send(dataPacket(&n.uids, 0, 3, i))
	}
	n.pump(100 * sim.Millisecond)
	if len(n.envs[1].Relayed) == 0 || len(n.envs[2].Relayed) == 0 {
		t.Fatalf("split mode did not use both relays: %d / %d",
			len(n.envs[1].Relayed), len(n.envs[2].Relayed))
	}
	if len(n.envs[3].Delivered) != 9 {
		t.Fatalf("delivered = %d", len(n.envs[3].Delivered))
	}
}

// TestBackupModePinsFlow: backup mode never alternates a flow across
// routes per packet (the reordering TCP killer split mode exists to
// demonstrate). With an equal-length pair the ECMP hash pins the flow to
// one of the two; the only packet allowed on the other relay is the first
// one, which drained from the send buffer while just one route was known.
func TestBackupModePinsFlow(t *testing.T) {
	n := newNet(diamond(), ModeBackup)
	n.routers[0].Send(dataPacket(&n.uids, 0, 3, 0))
	n.pump(500 * sim.Millisecond)
	for i := int64(1); i <= 8; i++ {
		n.routers[0].Send(dataPacket(&n.uids, 0, 3, i))
	}
	n.pump(100 * sim.Millisecond)
	used1, used2 := len(n.envs[1].Relayed), len(n.envs[2].Relayed)
	if min(used1, used2) > 1 {
		t.Fatalf("backup mode alternated one flow across relays: %d / %d", used1, used2)
	}
	if used1+used2 != 9 {
		t.Fatalf("relays = %d, want 9", used1+used2)
	}
}

func TestBackupModeFailsOver(t *testing.T) {
	n := newNet(diamond(), ModeBackup)
	n.routers[0].Send(dataPacket(&n.uids, 0, 3, 0))
	n.pump(500 * sim.Millisecond)
	routes := n.routers[0].Routes(3)
	if len(routes) != 2 {
		t.Fatal("setup: want 2 routes")
	}
	primary := routes[0][1]

	// Break the primary link; MAC feedback fails the next packet over it.
	p := dataPacket(&n.uids, 0, 3, 1)
	p.SourceRoute = packet.CloneRoute(routes[0])
	n.routers[0].LinkFailed(p, primary)
	n.pump(100 * sim.Millisecond)

	if got := n.routers[0].RouteCount(3); got != 1 {
		t.Fatalf("routes after failure = %d, want 1", got)
	}
	if len(n.envs[3].Delivered) != 2 {
		t.Fatalf("failed-over packet not delivered: %d", len(n.envs[3].Delivered))
	}
	newRoutes := n.routers[0].Routes(3)
	if newRoutes[0][1] == primary {
		t.Fatal("failover still uses the broken first hop")
	}
}

func TestRediscoverWhenBothRoutesGone(t *testing.T) {
	n := newNet(diamond(), ModeSplit)
	n.routers[0].Send(dataPacket(&n.uids, 0, 3, 0))
	n.pump(500 * sim.Millisecond)
	before := n.routers[0].Discoveries

	// Kill both routes.
	routes := n.routers[0].Routes(3)
	for _, route := range routes {
		p := dataPacket(&n.uids, 0, 3, 9)
		p.SourceRoute = packet.CloneRoute(route)
		n.routers[0].LinkFailed(p, route[1])
	}
	n.pump(2 * sim.Second)

	if n.routers[0].Discoveries <= before {
		t.Fatal("no rediscovery after losing both routes")
	}
	if len(n.envs[3].Delivered) < 2 {
		t.Fatalf("delivered = %d; rediscovery did not deliver buffered data",
			len(n.envs[3].Delivered))
	}
}

func TestOverlapMetric(t *testing.T) {
	a := []packet.NodeID{0, 1, 2, 9}
	if overlap(a, []packet.NodeID{0, 3, 4, 9}) != 0 {
		t.Fatal("disjoint routes show overlap")
	}
	if overlap(a, []packet.NodeID{0, 1, 5, 9}) != 1 {
		t.Fatal("shared node not counted")
	}
	if overlap(a, []packet.NodeID{0, 2, 1, 9}) != 2 {
		t.Fatal("two shared nodes not counted")
	}
	if overlap([]packet.NodeID{0, 9}, a) != 0 {
		t.Fatal("trivial route overlap")
	}
}

func TestDuplicateForwardingRule(t *testing.T) {
	// Topology where the second RREQ copy arrives at node 2 via a
	// different link with EQUAL hop count: node 2 must forward both.
	//     0 - 1 - 2 - 5
	//      \_ 3 _/
	adj := map[packet.NodeID][]packet.NodeID{
		0: {1, 3}, 1: {0, 2}, 3: {0, 2}, 2: {1, 3, 5}, 5: {2},
	}
	n := newNet(adj, ModeSplit)
	n.routers[0].Send(dataPacket(&n.uids, 0, 5, 0))
	n.pump(500 * sim.Millisecond)
	if len(n.envs[5].Delivered) != 1 {
		t.Fatalf("delivered = %d", len(n.envs[5].Delivered))
	}
	// Destination 5 hangs off node 2 only, so both discovered routes pass
	// through 2 — but the duplicate-forwarding rule must have let copies
	// through (seen state at 2 recorded more than one copy).
	st := n.routers[2].seen[seenKey{0, 1}]
	if st == nil || st.count < 2 {
		t.Fatalf("duplicate RREQ not forwarded: %+v", st)
	}
}

func TestSendToSelf(t *testing.T) {
	n := newNet(diamond(), ModeSplit)
	n.routers[0].Send(dataPacket(&n.uids, 0, 0, 0))
	if len(n.envs[0].Delivered) != 1 {
		t.Fatal("self delivery failed")
	}
}
