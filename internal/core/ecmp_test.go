package core

import (
	"fmt"
	"strings"
	"testing"

	"mtsim/internal/packet"
	"mtsim/internal/routing/routingtest"
	"mtsim/internal/sim"
)

// TestFailoverTieBreakPinned: when the current path dies and several
// usable paths tie at the freshest lastHeard, failPath hash-picks one of
// the tied IDs (ascending, flow key 0, keyed by destination). An older
// usable path and a dead one never win. Pins the pick for destinations
// 1..8 of a source at node 0.
func TestFailoverTieBreakPinned(t *testing.T) {
	var picks []string
	for dst := packet.NodeID(1); dst <= 8; dst++ {
		sched := sim.NewScheduler()
		var uids packet.UIDSource
		r := New(routingtest.NewEnv(0, sched, &uids, packet.NewArena(sched.Now)), DefaultConfig(), false, 0)
		sched.RunUntil(sim.Time(sim.Second))
		fresh, older := sim.Time(sim.Second), sim.Time(sim.Second/2)
		ss := newSrcState()
		ss.haveRoute = true
		ss.current = 0
		ss.paths[0] = &srcPath{next: 10, lastHeard: fresh, alive: true}
		ss.paths[2] = &srcPath{next: 12, lastHeard: fresh, alive: true}
		ss.paths[3] = &srcPath{next: 13, lastHeard: older, alive: true}
		ss.paths[5] = &srcPath{next: 15, lastHeard: fresh, alive: true}
		ss.paths[6] = &srcPath{next: 16, lastHeard: fresh, alive: false}
		ss.paths[7] = &srcPath{next: 17, lastHeard: fresh, alive: true}
		r.src[dst] = ss

		r.failPath(dst, 0)
		id, _, ok := r.CurrentPath(dst)
		if !ok || (id != 2 && id != 5 && id != 7) {
			t.Fatalf("dst %d: failover to path %d (ok=%v), want one of the tied 2, 5, 7", dst, id, ok)
		}
		if r.Stats.Switches != 1 {
			t.Fatalf("dst %d: switches %d, want 1", dst, r.Stats.Switches)
		}
		picks = append(picks, fmt.Sprint(id))
	}
	if got, want := strings.Join(picks, " "), "5 7 2 2 2 5 7 5"; got != want {
		t.Errorf("failover picks for dst 1..8 = %q, want %q", got, want)
	}
}
