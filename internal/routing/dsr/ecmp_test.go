package dsr

import (
	"fmt"
	"strings"
	"testing"

	"mtsim/internal/packet"
)

// firstHops renders GetForFlow's pick for flows 1..16 as the chosen
// routes' first hops — the whole equal-cost decision of one cache state.
func firstHops(c *routeCache, dst packet.NodeID) string {
	picks := make([]string, 0, 16)
	for flow := uint64(1); flow <= 16; flow++ {
		r := c.GetForFlow(dst, flow)
		if r == nil {
			picks = append(picks, "-")
			continue
		}
		picks = append(picks, fmt.Sprint(r[1]))
	}
	return strings.Join(picks, " ")
}

// TestGetForFlowPinned pins the flow-to-route hash over the equal-shortest
// routes in cache order, and again after each mutation that moves or
// removes cached routes: per-destination replacement, FIFO eviction and
// RemoveLink compaction. A selection computed from anything but the
// cache's current contents (a stale index, a stale set) shows up here as
// a moved pick or a route that is no longer cached.
func TestGetForFlowPinned(t *testing.T) {
	c := newRouteCache(0, 4, 6, newCacheArena())
	for _, r := range [][]packet.NodeID{{0, 4, 5, 9}, {0, 1, 9}, {0, 2, 9}, {0, 3, 9}} {
		if !c.Add(r) {
			t.Fatalf("setup: %v rejected", r)
		}
	}
	steps := []struct {
		name   string
		mutate func()
		want   string
	}{
		{"three equal-shortest and one longer", func() {}, "3 3 3 1 1 3 3 1 3 1 1 2 3 3 3 1"},
		{"per-destination replacement", func() {
			if !c.Add([]packet.NodeID{0, 6, 9}) {
				t.Fatal("shorter route did not replace the longest")
			}
		}, "3 6 6 1 2 6 3 2 2 2 6 1 1 2 3 2"},
		{"FIFO eviction", func() {
			c.Add([]packet.NodeID{0, 7, 8})
			c.Add([]packet.NodeID{0, 5, 8})
			if !c.Add([]packet.NodeID{0, 5, 7, 10}) || c.Len() != 6 {
				t.Fatalf("eviction setup: len %d", c.Len())
			}
		}, "3 3 3 1 1 3 3 1 3 1 1 2 3 3 3 1"},
		{"RemoveLink compaction", func() {
			if c.RemoveLink(2, 0) != 1 {
				t.Fatal("RemoveLink removed nothing")
			}
		}, "3 1 1 3 1 1 3 1 1 1 1 3 3 1 3 1"},
	}
	for _, s := range steps {
		s.mutate()
		if got := firstHops(c, 9); got != s.want {
			t.Errorf("%s: first hops for flows 1..16 = %q, want %q", s.name, got, s.want)
		}
	}
}
