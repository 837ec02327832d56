package dsr

import (
	"slices"
	"testing"
	"testing/quick"

	"mtsim/internal/packet"
	"mtsim/internal/routing"
	"mtsim/internal/routing/routingtest"
	"mtsim/internal/sim"
)

// net mirrors the hand-driven harness used by the AODV tests.
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
		n.routers[id] = New(e, cfg)
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
				} else if n.linked(id, s.Next) {
					n.routers[s.Next].Receive(s.P, id)
				}
			}
		}
		if !moved && n.sched.Len() == 0 {
			return
		}
	}
}

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

func dataPacket(u *packet.UIDSource, src, dst packet.NodeID) *packet.Packet {
	return &packet.Packet{
		UID: u.Next(), Kind: packet.KindData, Size: 1040,
		Src: src, Dst: dst, TTL: 64,
		TCP: &packet.TCPHeader{Flow: 1, Seq: 0},
	}
}

func TestDiscoveryAndSourceRoutedDelivery(t *testing.T) {
	n := newNet(chain(4), DefaultConfig())
	n.routers[0].Send(dataPacket(&n.uids, 0, 4))
	n.pump()

	if len(n.envs[4].Delivered) != 1 {
		t.Fatalf("delivered = %d", len(n.envs[4].Delivered))
	}
	got := n.envs[4].Delivered[0]
	want := []packet.NodeID{0, 1, 2, 3, 4}
	if len(got.SourceRoute) != len(want) {
		t.Fatalf("source route = %v", got.SourceRoute)
	}
	for i := range want {
		if got.SourceRoute[i] != want[i] {
			t.Fatalf("source route = %v, want %v", got.SourceRoute, want)
		}
	}
	for _, id := range []packet.NodeID{1, 2, 3} {
		if len(n.envs[id].Relayed) != 1 {
			t.Fatalf("node %d relays = %d", id, len(n.envs[id].Relayed))
		}
	}
}

func TestDestinationLearnsReverseRoute(t *testing.T) {
	n := newNet(chain(3), DefaultConfig())
	n.routers[0].Send(dataPacket(&n.uids, 0, 3))
	n.pump()
	if !n.routers[3].HasRoute(0) {
		t.Fatal("destination has no reverse route for ACK traffic")
	}
	// And it can send without a fresh discovery.
	before := n.routers[3].Discoveries
	n.routers[3].Send(dataPacket(&n.uids, 3, 0))
	n.pump()
	if n.routers[3].Discoveries != before {
		t.Fatal("reverse traffic triggered a discovery despite cached route")
	}
	if len(n.envs[0].Delivered) != 1 {
		t.Fatal("reverse packet not delivered")
	}
}

func TestReplyFromCache(t *testing.T) {
	// Chain 0-1-2-3-4 with a fresh leaf 5 attached to node 1. After the
	// chain has carried traffic, node 1 holds a cached route to 4 and can
	// answer 5's request without the RREQ reaching the destination.
	adj := chain(4)
	adj[5] = []packet.NodeID{1}
	adj[1] = append(adj[1], 5)
	n := newNet(adj, DefaultConfig())
	n.routers[0].Send(dataPacket(&n.uids, 0, 4))
	n.pump()
	if !n.routers[1].HasRoute(4) {
		t.Fatal("intermediate did not learn route from forwarding")
	}
	n.routers[5].Send(dataPacket(&n.uids, 5, 4))
	n.pump()
	if len(n.envs[4].Delivered) != 2 {
		t.Fatalf("delivered = %d", len(n.envs[4].Delivered))
	}
	if !n.routers[5].HasRoute(4) {
		t.Fatal("requester cached nothing")
	}
	cacheReplies := uint64(0)
	for _, r := range n.routers {
		cacheReplies += r.CacheReplies
	}
	if cacheReplies == 0 {
		t.Fatal("no cache reply happened")
	}
}

func TestStaleCacheReplyMisroutesUntilRERR(t *testing.T) {
	// This is the DSR pathology the paper leans on: node 2 holds a stale
	// cached route and hands it out; data following it fails and a RERR
	// must clean up.
	cfg := DefaultConfig()
	n := newNet(chain(4), cfg)
	n.routers[0].Send(dataPacket(&n.uids, 0, 4))
	n.pump()

	// Break link 3-4 *silently* (mobility): caches still contain it.
	n.adj[3] = []packet.NodeID{2}
	n.adj[4] = nil

	// Node 3 reports MAC failure when the next data packet arrives.
	p2 := dataPacket(&n.uids, 0, 4)
	n.routers[0].Send(p2)
	n.pump()
	// The packet reached node 3 and failed there; simulate MAC feedback.
	n.routers[3].LinkFailed(p2, 4)
	n.pump()

	if n.routers[3].HasRoute(4) {
		t.Fatal("node 3 cache still holds broken link")
	}
	if n.routers[0].HasRoute(4) {
		t.Fatal("source cache not cleaned by RERR")
	}
}

func TestSalvageUsesAlternateRoute(t *testing.T) {
	// Diamond: 0-1-3 and 0-2-3; node 1 can salvage via... actually give
	// node 1 a cached alternate 1-0-2-3? No: salvage must avoid the failed
	// link 1-3. Build: 0-1-3, 1-2, 2-3. Node 1 learns 1-2-3 via a separate
	// exchange, then salvages 0's packet when 1-3 breaks.
	adj := map[packet.NodeID][]packet.NodeID{
		0: {1}, 1: {0, 2, 3}, 2: {1, 3}, 3: {1, 2},
	}
	cfg := DefaultConfig()
	n := newNet(adj, cfg)
	// Prime 1's cache with 1-2-3 (discovery from 1 with link 1-3 down).
	n.adj[1] = []packet.NodeID{0, 2}
	n.adj[3] = []packet.NodeID{2}
	n.routers[1].Send(dataPacket(&n.uids, 1, 3))
	n.pump()
	if !n.routers[1].HasRoute(3) {
		t.Fatal("setup: node 1 lacks route via 2")
	}
	// Restore 1-3, let 0 discover 0-1-3 (shortest wins).
	n.adj[1] = []packet.NodeID{0, 2, 3}
	n.adj[3] = []packet.NodeID{1, 2}
	n.routers[0].Send(dataPacket(&n.uids, 0, 3))
	n.pump()
	delivered := len(n.envs[3].Delivered)

	// Break 1-3 silently; next packet fails at node 1 and is salvaged
	// via 1-2-3.
	n.adj[1] = []packet.NodeID{0, 2}
	n.adj[3] = []packet.NodeID{2}
	p := dataPacket(&n.uids, 0, 3)
	n.routers[0].Send(p)
	n.pump() // p reaches node 1, then its MAC would fail toward 3
	n.routers[1].LinkFailed(p, 3)
	n.pump()

	if len(n.envs[3].Delivered) != delivered+2 {
		t.Fatalf("delivered = %d, want %d (incl. salvaged)", len(n.envs[3].Delivered), delivered+2)
	}
	if n.routers[1].Salvages != 1 {
		t.Fatalf("salvages = %d", n.routers[1].Salvages)
	}
}

func TestSalvageLimit(t *testing.T) {
	sched := sim.NewScheduler()
	var uids packet.UIDSource
	e := routingtest.NewEnv(1, sched, &uids, packet.NewArena(sched.Now))
	cfg := DefaultConfig()
	r := New(e, cfg)
	// Cache an alternate route so salvage is possible in principle.
	r.cache.Add([]packet.NodeID{1, 2, 3})
	p := dataPacket(&uids, 0, 3)
	p.SourceRoute = []packet.NodeID{0, 1, 5, 3}
	p.Salvage = cfg.MaxSalvage // already at the limit
	r.LinkFailed(p, 5)
	found := false
	for _, reason := range e.Dropped {
		if reason == "salvage-limit" {
			found = true
		}
	}
	if !found {
		t.Fatalf("over-limit salvage not dropped: %v", e.Dropped)
	}
}

func TestSnoopLearnsOverheardRoutes(t *testing.T) {
	sched := sim.NewScheduler()
	var uids packet.UIDSource
	e := routingtest.NewEnv(9, sched, &uids, packet.NewArena(sched.Now))
	r := New(e, DefaultConfig())
	// Node 9 overhears node 2 forwarding a packet with route 0-1-2-3-4.
	p := dataPacket(&uids, 0, 4)
	p.SourceRoute = []packet.NodeID{0, 1, 2, 3, 4}
	f := &packet.Frame{Kind: packet.FrameData, TxFrom: 2, TxTo: 3, Payload: p}
	r.TapFrame(f)

	if !r.HasRoute(4) {
		t.Fatal("snoop did not learn forward route to 4")
	}
	if !r.HasRoute(0) {
		t.Fatal("snoop did not learn reverse route to 0")
	}
	if r.SnoopedRoutes != 2 {
		t.Fatalf("snooped = %d", r.SnoopedRoutes)
	}
}

func TestSnoopDisabled(t *testing.T) {
	sched := sim.NewScheduler()
	var uids packet.UIDSource
	e := routingtest.NewEnv(9, sched, &uids, packet.NewArena(sched.Now))
	cfg := DefaultConfig()
	cfg.Snoop = false
	r := New(e, cfg)
	p := dataPacket(&uids, 0, 4)
	p.SourceRoute = []packet.NodeID{0, 1, 2, 3, 4}
	r.TapFrame(&packet.Frame{Kind: packet.FrameData, TxFrom: 2, TxTo: 3, Payload: p})
	if r.CacheLen() != 0 {
		t.Fatal("snooping happened despite cfg.Snoop=false")
	}
}

func TestDiscoveryGivesUp(t *testing.T) {
	cfg := DefaultConfig()
	cfg.DiscoveryRetries = 2
	n := newNet(chain(1), cfg)
	n.routers[0].Send(dataPacket(&n.uids, 0, 9))
	for i := 0; i < 100; i++ {
		n.pump()
		n.sched.RunUntil(n.sched.Now().Add(200 * sim.Millisecond))
	}
	found := false
	for _, reason := range n.envs[0].Dropped {
		if reason == "discovery-failed" || reason == "sendbuf-timeout" {
			found = true
		}
	}
	if !found {
		t.Fatalf("undeliverable packet never dropped: %v", n.envs[0].Dropped)
	}
}

// --- cache unit tests ---

func TestCacheAddGet(t *testing.T) {
	c := newRouteCache(0, 2, 16, newCacheArena())
	if !c.Add([]packet.NodeID{0, 1, 2}) {
		t.Fatal("add failed")
	}
	if c.Add([]packet.NodeID{0, 1, 2}) {
		t.Fatal("duplicate accepted")
	}
	if c.Add([]packet.NodeID{1, 2, 3}) {
		t.Fatal("foreign-origin route accepted")
	}
	if c.Add([]packet.NodeID{0, 1, 1, 2}) {
		t.Fatal("looping route accepted")
	}
	if got := c.Get(2); len(got) != 3 {
		t.Fatalf("get = %v", got)
	}
	if c.Get(9) != nil {
		t.Fatal("phantom route")
	}
}

func TestCacheShortestWins(t *testing.T) {
	c := newRouteCache(0, 4, 16, newCacheArena())
	c.Add([]packet.NodeID{0, 1, 2, 3})
	c.Add([]packet.NodeID{0, 4, 3})
	if got := c.Get(3); len(got) != 3 {
		t.Fatalf("shortest = %v", got)
	}
}

func TestCachePerDstReplacement(t *testing.T) {
	c := newRouteCache(0, 2, 16, newCacheArena())
	c.Add([]packet.NodeID{0, 1, 2, 3, 9})
	c.Add([]packet.NodeID{0, 4, 5, 9})
	// Full for dst 9; a longer route is rejected…
	if c.Add([]packet.NodeID{0, 1, 2, 3, 4, 5, 9}) {
		t.Fatal("longer route accepted when full")
	}
	// …but a shorter one replaces the longest.
	if !c.Add([]packet.NodeID{0, 6, 9}) {
		t.Fatal("shorter route rejected when full")
	}
	if got := c.Get(9); len(got) != 3 {
		t.Fatalf("get = %v", got)
	}
}

func TestCacheRemoveLink(t *testing.T) {
	c := newRouteCache(0, 4, 16, newCacheArena())
	c.Add([]packet.NodeID{0, 1, 2, 3})
	c.Add([]packet.NodeID{0, 4, 3})
	removed := c.RemoveLink(1, 2)
	if removed != 1 {
		t.Fatalf("removed = %d", removed)
	}
	if got := c.Get(3); len(got) != 3 {
		t.Fatalf("surviving route = %v", got)
	}
	// Reverse direction also matches.
	c.Add([]packet.NodeID{0, 2, 1, 5})
	if c.RemoveLink(1, 2) != 1 {
		t.Fatal("reverse link not matched")
	}
}

func TestCacheGetAvoidingLink(t *testing.T) {
	c := newRouteCache(1, 4, 16, newCacheArena())
	c.Add([]packet.NodeID{1, 3, 4})
	c.Add([]packet.NodeID{1, 2, 4})
	r := c.GetAvoidingLink(4, 1, 3)
	if r == nil || r[1] != 2 {
		t.Fatalf("avoiding route = %v", r)
	}
	if c.GetAvoidingLink(4, 1, 3) == nil {
		t.Fatal("no route avoiding link")
	}
	c.RemoveLink(1, 2)
	if c.GetAvoidingLink(4, 1, 3) != nil {
		t.Fatal("route via avoided link returned")
	}
}

// Property: concatenate never produces loops and always starts/ends right.
func TestConcatenateProperty(t *testing.T) {
	f := func(a, b []uint8) bool {
		if len(a) == 0 || len(b) == 0 {
			return true
		}
		prefix := make([]packet.NodeID, 0, len(a))
		for _, v := range a {
			prefix = append(prefix, packet.NodeID(v%16))
		}
		suffix := make([]packet.NodeID, 0, len(b)+1)
		suffix = append(suffix, prefix[len(prefix)-1]) // join point
		for _, v := range b {
			suffix = append(suffix, packet.NodeID(v%16))
		}
		out := concatenate(prefix, suffix)
		if out == nil {
			return true
		}
		if routing.HasLoop(out) {
			return false
		}
		return out[0] == prefix[0] && out[len(out)-1] == suffix[len(suffix)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the route reversal DSR uses for RREPs and route errors is an
// involution.
func TestReverseRouteProperty(t *testing.T) {
	f := func(a []uint8) bool {
		r := make([]packet.NodeID, len(a))
		for i, v := range a {
			r[i] = packet.NodeID(v)
		}
		return slices.Equal(routing.ReverseRoute(routing.ReverseRoute(r)), r)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
