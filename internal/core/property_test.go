package core

import (
	"slices"
	"testing"
	"testing/quick"

	"mtsim/internal/packet"
	"mtsim/internal/routing"
	"mtsim/internal/routing/routingtest"
	"mtsim/internal/sim"
)

// Property: after feeding any sequence of candidate routes through the
// destination-side disjointness filter, every pair of stored live paths
// differs in both first hop and last hop (the Marina–Das invariant, §III-C).
func TestStoredPathsPairwiseDisjointProperty(t *testing.T) {
	f := func(raw [][4]uint8) bool {
		var uids packet.UIDSource
		sched := sim.NewScheduler()
		e := routingtest.NewEnv(99, sched, &uids, packet.NewArena(sched.Now))
		r := New(e, DefaultConfig(), false, 0)
		ds := &dstState{lastDataPath: -1}
		r.dst[0] = ds

		for _, q := range raw {
			// Build a candidate route 0 -> a -> b -> 99 with small node
			// IDs to force frequent first/last-hop collisions.
			a := packet.NodeID(q[0]%5 + 1)
			b := packet.NodeID(q[1]%5 + 10)
			route := []packet.NodeID{0, a, b, 99}
			if len(ds.paths) < r.cfg.MaxPaths && r.disjoint(ds, route) {
				r.storePath(ds, route)
			}
		}
		// Check the invariant over live paths.
		live := ds.paths
		for i := 0; i < len(live); i++ {
			for j := i + 1; j < len(live); j++ {
				if !live[i].alive || !live[j].alive {
					continue
				}
				ri, rj := live[i].route, live[j].route
				if ri[1] == rj[1] {
					return false // shared first hop
				}
				if ri[len(ri)-2] == rj[len(rj)-2] {
					return false // shared last hop
				}
			}
		}
		return len(live) <= r.cfg.MaxPaths
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the route reversal MTS uses for RREPs and checking packets is an
// involution that preserves length and order.
func TestReverseRouteInvolutionProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		route := make([]packet.NodeID, len(raw))
		for i, v := range raw {
			route[i] = packet.NodeID(v)
		}
		return slices.Equal(routing.ReverseRoute(routing.ReverseRoute(route)), route)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the loop check MTS applies to RREQ and data routes detects
// exactly the routes with repeated nodes.
func TestHasLoopProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		route := make([]packet.NodeID, len(raw))
		seen := map[uint8]bool{}
		dup := false
		for i, v := range raw {
			route[i] = packet.NodeID(v)
			if seen[v] {
				dup = true
			}
			seen[v] = true
		}
		return routing.HasLoop(route) == dup
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
