package routing_test

import (
	"slices"
	"testing"
	"testing/quick"

	"mtsim/internal/packet"
	"mtsim/internal/routing"
	"mtsim/internal/routing/routingtest"
	"mtsim/internal/sim"
)

func TestRouteHelpers(t *testing.T) {
	for _, tc := range []struct {
		name    string
		route   []packet.NodeID
		loop    bool
		reverse []packet.NodeID
	}{
		{"empty", nil, false, nil},
		{"one node", []packet.NodeID{7}, false, []packet.NodeID{7}},
		{"loop-free", []packet.NodeID{1, 2, 3, 4}, false, []packet.NodeID{4, 3, 2, 1}},
		{"loop at first position", []packet.NodeID{1, 1, 2, 3}, true, []packet.NodeID{3, 2, 1, 1}},
		{"loop at last position", []packet.NodeID{1, 2, 3, 3}, true, []packet.NodeID{3, 3, 2, 1}},
		{"loop in the middle", []packet.NodeID{1, 2, 3, 2, 4}, true, []packet.NodeID{4, 2, 3, 2, 1}},
		{"first node revisited last", []packet.NodeID{1, 2, 3, 1}, true, []packet.NodeID{1, 3, 2, 1}},
	} {
		if got := routing.HasLoop(tc.route); got != tc.loop {
			t.Errorf("%s: HasLoop(%v) = %v, want %v", tc.name, tc.route, got, tc.loop)
		}
		in := slices.Clone(tc.route)
		if got := routing.ReverseRoute(tc.route); !slices.Equal(got, tc.reverse) {
			t.Errorf("%s: ReverseRoute(%v) = %v, want %v", tc.name, tc.route, got, tc.reverse)
		}
		if !slices.Equal(in, tc.route) {
			t.Errorf("%s: ReverseRoute modified its argument", tc.name)
		}
	}

	route := []packet.NodeID{1, 2, 3, 4}
	for _, tc := range []struct {
		a, b packet.NodeID
		want bool
	}{
		{1, 2, true}, {2, 1, true}, {3, 4, true}, {4, 3, true},
		{1, 3, false}, {4, 1, false}, {2, 2, false}, {5, 6, false},
	} {
		if got := routing.ContainsLink(route, tc.a, tc.b); got != tc.want {
			t.Errorf("ContainsLink(%v, %d, %d) = %v, want %v", route, tc.a, tc.b, got, tc.want)
		}
	}
	if routing.ContainsLink([]packet.NodeID{1}, 1, 1) || routing.ContainsLink(nil, 1, 2) {
		t.Error("a route without hops contains a link")
	}
}

// Property: ReverseRoute is an involution that mirrors positions; HasLoop
// holds exactly for routes with a repeated node; ContainsLink holds exactly
// for adjacent pairs, in either direction and on either traversal.
func TestRouteHelpersProperty(t *testing.T) {
	f := func(raw []uint8, a, b uint8) bool {
		route := make([]packet.NodeID, len(raw))
		seen := map[uint8]bool{}
		dup := false
		for i, v := range raw {
			route[i] = packet.NodeID(v % 32)
			dup = dup || seen[v%32]
			seen[v%32] = true
		}
		rev := routing.ReverseRoute(route)
		if len(rev) != len(route) || !slices.Equal(routing.ReverseRoute(rev), route) {
			return false
		}
		for i := range route {
			if rev[len(rev)-1-i] != route[i] {
				return false
			}
		}
		if routing.HasLoop(route) != dup || routing.HasLoop(rev) != dup {
			return false
		}
		x, y := packet.NodeID(a%32), packet.NodeID(b%32)
		adjacent := false
		for i := 0; i+1 < len(route); i++ {
			adjacent = adjacent || (route[i] == x && route[i+1] == y) || (route[i] == y && route[i+1] == x)
		}
		return routing.ContainsLink(route, x, y) == adjacent &&
			routing.ContainsLink(route, y, x) == adjacent &&
			routing.ContainsLink(rev, x, y) == adjacent
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSendSourceRouted(t *testing.T) {
	var uids packet.UIDSource
	sched := sim.NewScheduler()
	env := routingtest.NewEnv(4, sched, &uids, packet.NewArena(sched.Now))
	hdr := &struct{ x int }{1}
	routing.SendSourceRouted(env, env.Pool, []packet.NodeID{4, 2, 9}, packet.Packet{
		Kind: packet.KindRERR, Size: 24, Dst: 7, Routing: hdr})
	out := env.TakeOutbox()
	if len(out) != 1 || out[0].Next != 2 {
		t.Fatalf("sent %v, want one packet to node 2", out)
	}
	p := out[0].P
	if p.UID != 1 || p.Kind != packet.KindRERR || p.Size != 24 || p.Src != 4 || p.Dst != 7 ||
		p.TTL != routing.DefaultTTL || p.Routing != hdr || p.SRIndex != 0 ||
		!slices.Equal(p.SourceRoute, []packet.NodeID{4, 2, 9}) {
		t.Fatalf("packet = %+v", p)
	}
}

func TestOriginateAndRebroadcast(t *testing.T) {
	var uids packet.UIDSource
	sched := sim.NewScheduler()
	env := routingtest.NewEnv(4, sched, &uids, packet.NewArena(sched.Now))
	routing.Originate(env, env.Pool, packet.Broadcast, packet.Packet{Kind: packet.KindRREQ, Size: 20, Dst: 9, TTL: 3})
	out := env.TakeOutbox()
	if len(out) != 1 || out[0].Next != packet.Broadcast {
		t.Fatalf("sent %v, want one broadcast", out)
	}
	if p := out[0].P; p.UID != 1 || p.Kind != packet.KindRREQ || p.Size != 20 || p.Src != 4 ||
		p.Dst != 9 || p.TTL != 3 {
		t.Fatalf("originated %+v", p)
	}

	hdr := &struct{ x int }{2}
	routing.Rebroadcast(env, env.Pool, out[0].P, hdr, 24)
	if len(env.Outbox) != 0 {
		t.Fatal("re-flood sent before its jitter")
	}
	sched.RunUntil(sim.Time(routing.MaxBroadcastJitter))
	out = env.TakeOutbox()
	if len(out) != 1 || out[0].Next != packet.Broadcast {
		t.Fatalf("sent %v, want one jittered broadcast", out)
	}
	if fwd := out[0].P; fwd.UID != 2 || fwd.TTL != 2 || fwd.Routing != hdr || fwd.Size != 24 || fwd.Src != 4 {
		t.Fatalf("re-flooded %+v", fwd)
	}
}

func TestForwardSourceRouted(t *testing.T) {
	var uids packet.UIDSource
	sched := sim.NewScheduler()
	env := routingtest.NewEnv(2, sched, &uids, packet.NewArena(sched.Now))
	p := &packet.Packet{UID: uids.Next(), Kind: packet.KindData, TTL: 5,
		SourceRoute: []packet.NodeID{1, 2, 3}}
	routing.ForwardSourceRouted(env, env.Pool, p)
	out := env.TakeOutbox()
	if len(out) != 1 || out[0].Next != 3 {
		t.Fatalf("sent %v, want one copy to node 3", out)
	}
	if fwd := out[0].P; fwd == p || fwd.UID == p.UID || fwd.TTL != 4 || fwd.SRIndex != 2 {
		t.Fatalf("forwarded copy = %+v", fwd)
	}

	for _, route := range [][]packet.NodeID{{1, 3, 2}, {1, 3}, nil} {
		q := &packet.Packet{UID: uids.Next(), Kind: packet.KindData, TTL: 5, SourceRoute: route}
		routing.ForwardSourceRouted(env, env.Pool, q)
	}
	if len(env.Outbox) != 0 || !slices.Equal(env.Dropped,
		[]string{"bad-source-route", "bad-source-route", "bad-source-route"}) {
		t.Fatalf("route ending here or without us: sent %v, dropped %v", env.Outbox, env.Dropped)
	}
}

// The source-routed data path reuses arena storage: once the arena is
// warm, forwarding a packet and stamping a new route on it allocate
// nothing.
func TestSourceRoutedDataPathAllocFree(t *testing.T) {
	var uids packet.UIDSource
	sched := sim.NewScheduler()
	env := routingtest.NewEnv(2, sched, &uids, packet.NewArena(sched.Now))
	p := env.Pool.NewPacketFrom(packet.Packet{Kind: packet.KindData, TTL: 5})
	env.Pool.SetSourceRoute(p, []packet.NodeID{1, 2, 3})
	tail := []packet.NodeID{2, 3}
	step := func() {
		routing.ForwardSourceRouted(env, env.Pool, p)
		fwd := env.Outbox[0].P
		routing.SendAlong(env, env.Pool, fwd, tail)
		env.Outbox = env.Outbox[:0]
		env.Pool.Release(fwd)
	}
	step()
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Fatalf("%.1f allocs per forward + restamp, want 0", allocs)
	}
}
