package dsr

import (
	"slices"

	"mtsim/internal/packet"
	"mtsim/internal/routing"
)

// routeCache stores complete source routes (each beginning at the owning
// node) with per-destination and global capacity bounds. Basic DSR routes
// never expire — they live until a route error removes a link they use.
// That is precisely the staleness the paper's Fig. 10 exposes at high
// speeds.
//
// Stored routes live in arena-owned buffers (packet.Arena.AcquireRoute):
// Add copies the candidate path, so callers may pass scratch or slices
// aliasing routing headers, and every eviction — capacity replacement,
// FIFO overflow, RemoveLink, Drain — releases the evicted buffer back to
// the arena exactly once. Cached routes are never shared into routing
// headers (RREPs carry their own freshly built routes), which is what
// makes the mid-run release safe.
//
// Every lookup, ECMP selection included, scans routes as they are at
// that moment: nothing is derived from them, so no mutation has anything
// to invalidate.
type routeCache struct {
	owner  packet.NodeID
	perDst int
	global int
	ar     *packet.Arena // nil: plain allocation, evictions go to the GC
	routes [][]packet.NodeID
}

func newRouteCache(owner packet.NodeID, perDst, global int, ar *packet.Arena) *routeCache {
	return &routeCache{owner: owner, perDst: perDst, global: global, ar: ar}
}

// Drain releases every cached route back to the arena and empties the
// cache. Idempotent; called at retire.
func (c *routeCache) Drain() {
	for i, r := range c.routes {
		c.ar.ReleaseRoute(r)
		c.routes[i] = nil
	}
	c.routes = c.routes[:0]
}

// Add caches a full path [owner, ..., dst], copying it into arena-owned
// storage (the caller keeps its slice). Paths with loops, foreign
// origins or trivial length are rejected. Returns true if stored.
func (c *routeCache) Add(path []packet.NodeID) bool {
	if len(path) < 2 || path[0] != c.owner {
		return false
	}
	if routing.HasLoop(path) {
		return false
	}
	dst := path[len(path)-1]
	count := 0
	for _, r := range c.routes {
		if slices.Equal(r, path) {
			return false // already cached
		}
		if r[len(r)-1] == dst {
			count++
		}
	}
	if count >= c.perDst {
		// Replace the longest existing route for dst if the new one is
		// shorter; otherwise reject.
		worst, worstLen := -1, len(path)
		for i, r := range c.routes {
			if r[len(r)-1] == dst && len(r) > worstLen {
				worst, worstLen = i, len(r)
			}
		}
		if worst < 0 {
			return false
		}
		c.ar.ReleaseRoute(c.routes[worst])
		c.routes[worst] = c.ar.AcquireRoute(path)
		return true
	}
	if len(c.routes) >= c.global {
		// FIFO eviction of the oldest route.
		c.ar.ReleaseRoute(c.routes[0])
		c.routes[0] = nil
		c.routes = c.routes[1:]
	}
	c.routes = append(c.routes, c.ar.AcquireRoute(path))
	return true
}

// Get returns the shortest cached route to dst (nil if none). The returned
// slice must not be mutated or retained across cache mutations by the
// caller — the next Add or RemoveLink may recycle its backing array.
func (c *routeCache) Get(dst packet.NodeID) []packet.NodeID {
	var best []packet.NodeID
	for _, r := range c.routes {
		if r[len(r)-1] == dst && (best == nil || len(r) < len(best)) {
			best = r
		}
	}
	return best
}

// GetForFlow is Get with ECMP spread: when several equally short routes
// to dst are cached, the flow's hash picks one of them in cache order, so
// each flow sticks to a single shortest route while different flows fan
// out across all of them. The returned slice obeys Get's aliasing rules.
func (c *routeCache) GetForFlow(dst packet.NodeID, flow uint64) []packet.NodeID {
	shortest, n := 0, 0
	for _, r := range c.routes {
		switch {
		case r[len(r)-1] != dst:
		case n == 0 || len(r) < shortest:
			shortest, n = len(r), 1
		case len(r) == shortest:
			n++
		}
	}
	if n == 0 {
		return nil
	}
	k := routing.ECMPIndex(c.owner, dst, flow, n)
	for _, r := range c.routes {
		if r[len(r)-1] == dst && len(r) == shortest {
			if k == 0 {
				return r
			}
			k--
		}
	}
	return nil // not reached: the first pass counted n such routes
}

// GetTrusted returns the cached route to dst minimising trust-weighted
// cost: hop count plus the oracle's per-relay distrust penalty summed
// over the route's intermediate nodes. Strictly-first minimum wins, so
// selection is deterministic in cache order. The returned slice obeys
// Get's aliasing rules.
func (c *routeCache) GetTrusted(dst packet.NodeID, oracle routing.TrustOracle) []packet.NodeID {
	var best []packet.NodeID
	bestCost := 0.0
	for _, r := range c.routes {
		if r[len(r)-1] != dst {
			continue
		}
		cost := routing.TrustCost(oracle, r)
		if best == nil || cost < bestCost {
			best, bestCost = r, cost
		}
	}
	return best
}

// GetAvoidingLink returns the shortest route to dst that does not traverse
// the directed link a→b (nor b→a); used for salvaging.
func (c *routeCache) GetAvoidingLink(dst, a, b packet.NodeID) []packet.NodeID {
	var best []packet.NodeID
	for _, r := range c.routes {
		if r[len(r)-1] != dst || routing.ContainsLink(r, a, b) {
			continue
		}
		if best == nil || len(r) < len(best) {
			best = r
		}
	}
	return best
}

// RemoveLink drops every cached route using the link in either direction
// and returns how many were removed.
func (c *routeCache) RemoveLink(a, b packet.NodeID) int {
	kept := c.routes[:0]
	removed := 0
	for _, r := range c.routes {
		if routing.ContainsLink(r, a, b) {
			c.ar.ReleaseRoute(r)
			removed++
		} else {
			kept = append(kept, r)
		}
	}
	// Clear the tail so released buffers are not still reachable from the
	// cache's backing array.
	for i := len(kept); i < len(c.routes); i++ {
		c.routes[i] = nil
	}
	c.routes = kept
	return removed
}

// Len returns the number of cached routes (tests).
func (c *routeCache) Len() int { return len(c.routes) }

// concatenate joins prefix (ending at x) and suffix (starting at x) into a
// single loop-free route, or nil if the result would contain a loop.
func concatenate(prefix, suffix []packet.NodeID) []packet.NodeID {
	if len(prefix) == 0 || len(suffix) == 0 || prefix[len(prefix)-1] != suffix[0] {
		return nil
	}
	out := make([]packet.NodeID, 0, len(prefix)+len(suffix)-1)
	out = append(out, prefix...)
	out = append(out, suffix[1:]...)
	if routing.HasLoop(out) {
		return nil
	}
	return out
}
