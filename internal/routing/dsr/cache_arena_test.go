package dsr

import (
	"testing"

	"mtsim/internal/packet"
	"mtsim/internal/sim"
)

// route returns a plain copy for comparisons.
func route(ids ...packet.NodeID) []packet.NodeID { return ids }

func sameRoute(a, b []packet.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// newCacheArena is the arena of a route cache tested on its own; route
// buffers are never quarantined, so its clock never advances.
func newCacheArena() *packet.Arena { return packet.NewArena(sim.NewScheduler().Now) }

// TestCacheEvictionDoesNotAliasSurvivors is the aliasing regression for
// the arena-backed route cache: evicting one cached route releases its
// buffer (which Check mode poisons and the next Add reuses), and a route
// that survives the eviction of its cache neighbour must keep its own
// bytes — any exactly-once violation shows up as a survivor reading
// poison or the newcomer's values.
func TestCacheEvictionDoesNotAliasSurvivors(t *testing.T) {
	ar := newCacheArena()
	ar.Check = true
	c := newRouteCache(0, 1, 2, ar)

	if !c.Add(route(0, 1, 2)) {
		t.Fatal("add [0 1 2]")
	}
	if !c.Add(route(0, 3, 4)) {
		t.Fatal("add [0 3 4]")
	}
	// A third destination overflows global=2: FIFO evicts [0 1 2], whose
	// poisoned buffer is immediately reacquired for the newcomer.
	if !c.Add(route(0, 5, 6)) {
		t.Fatal("add [0 5 6]")
	}
	if got := c.Get(4); !sameRoute(got, route(0, 3, 4)) {
		t.Fatalf("survivor corrupted by FIFO eviction: Get(4) = %v", got)
	}
	if got := c.Get(6); !sameRoute(got, route(0, 5, 6)) {
		t.Fatalf("newcomer corrupted: Get(6) = %v", got)
	}

	// Replace-worst for dst 6 (perDst=1): the shorter [0 6] releases
	// [0 5 6] in place; the unrelated survivor must again keep its bytes.
	if !c.Add(route(0, 6)) {
		t.Fatal("replace-worst [0 6]")
	}
	if got := c.Get(6); !sameRoute(got, route(0, 6)) {
		t.Fatalf("replace-worst stored wrong route: Get(6) = %v", got)
	}
	if got := c.Get(4); !sameRoute(got, route(0, 3, 4)) {
		t.Fatalf("survivor corrupted by replace-worst: Get(4) = %v", got)
	}

	// RemoveLink releases exactly the routes using the link.
	if removed := c.RemoveLink(0, 3); removed != 1 {
		t.Fatalf("RemoveLink(0,3) removed %d routes, want 1", removed)
	}
	if got := c.Get(6); !sameRoute(got, route(0, 6)) {
		t.Fatalf("survivor corrupted by RemoveLink: Get(6) = %v", got)
	}

	// Drain is idempotent and leaves the cache empty.
	c.Drain()
	c.Drain()
	if c.Len() != 0 {
		t.Fatalf("cache not empty after Drain: %d routes", c.Len())
	}
	if got := c.Get(6); got != nil {
		t.Fatalf("Get after Drain returned %v", got)
	}
}

// TestCacheAddCopiesCallerSlice: Add must copy the candidate path, so a
// caller reusing its scratch buffer (the router's pathBuf) cannot mutate
// cached state afterwards.
func TestCacheAddCopiesCallerSlice(t *testing.T) {
	ar := newCacheArena()
	c := newRouteCache(0, 4, 16, ar)
	scratch := route(0, 7, 8)
	if !c.Add(scratch) {
		t.Fatal("add scratch")
	}
	scratch[1], scratch[2] = 90, 91 // caller reuses its buffer
	if got := c.Get(8); !sameRoute(got, route(0, 7, 8)) {
		t.Fatalf("cache aliases caller scratch: Get(8) = %v", got)
	}
}
