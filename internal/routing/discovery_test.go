package routing_test

import (
	"slices"
	"testing"

	"mtsim/internal/packet"
	"mtsim/internal/routing"
	"mtsim/internal/routing/routingtest"
	"mtsim/internal/sim"
)

// flood is one recorded DiscoveryPolicy.Flood call.
type flood struct {
	dst packet.NodeID
	n   int
	at  sim.Time
}

// discoveryHarness drives a Discovery with a scripted policy: attempt n
// waits n seconds, the policy gives up after three attempts, and a route
// exists for the destinations in have.
type discoveryHarness struct {
	sched  *sim.Scheduler
	env    *routingtest.Env
	buffer *routing.SendBuffer
	disc   *routing.Discovery[*discoveryHarness]
	floods []flood
	have   map[packet.NodeID]bool
	uids   packet.UIDSource
}

var scriptedPolicy = routing.DiscoveryPolicy[*discoveryHarness]{
	Flood: func(h *discoveryHarness, dst packet.NodeID, n int) {
		h.floods = append(h.floods, flood{dst, n, h.sched.Now()})
	},
	Timeout:   func(_ *discoveryHarness, _ packet.NodeID, n int) sim.Duration { return sim.Duration(n) * sim.Second },
	Retry:     func(_ *discoveryHarness, _ packet.NodeID, n int) bool { return n < 3 },
	HaveRoute: func(h *discoveryHarness, dst packet.NodeID) bool { return h.have[dst] },
}

func newDiscoveryHarness() *discoveryHarness {
	h := &discoveryHarness{sched: sim.NewScheduler(), have: map[packet.NodeID]bool{}}
	h.env = routingtest.NewEnv(1, h.sched, &h.uids, packet.NewArena(h.sched.Now))
	h.buffer = routing.NewSendBuffer(h.env, 8, 60*sim.Second)
	h.disc = routing.NewDiscovery(h.env, h.buffer, h, &scriptedPolicy)
	return h
}

func (h *discoveryHarness) queue(dst packet.NodeID) {
	h.disc.Queue(&packet.Packet{UID: h.uids.Next(), Kind: packet.KindData, Dst: dst})
}

func (h *discoveryHarness) run(until sim.Duration) { h.sched.RunUntil(sim.Time(until)) }

func TestDiscoveryStartWhileBusyIsNoop(t *testing.T) {
	h := newDiscoveryHarness()
	h.queue(5)
	h.queue(5)
	h.disc.Start(5)
	h.queue(6)
	want := []flood{{5, 1, 0}, {6, 1, 0}}
	if !slices.Equal(h.floods, want) {
		t.Fatalf("floods = %v, want %v", h.floods, want)
	}
	if h.buffer.Len(5) != 2 || h.buffer.Len(6) != 1 {
		t.Fatalf("buffered %d/%d, want 2/1", h.buffer.Len(5), h.buffer.Len(6))
	}
}

func TestDiscoveryRetryTimeoutsFollowPolicy(t *testing.T) {
	h := newDiscoveryHarness()
	h.disc.Start(5)
	h.run(10 * sim.Second)
	// Attempt n waits n seconds: floods at 0, 1 and 1+2 s.
	want := []flood{{5, 1, 0}, {5, 2, sim.Time(sim.Second)}, {5, 3, sim.Time(3 * sim.Second)}}
	if !slices.Equal(h.floods, want) {
		t.Fatalf("floods = %v, want %v", h.floods, want)
	}
}

func TestDiscoveryGiveUpDropsBuffered(t *testing.T) {
	h := newDiscoveryHarness()
	h.queue(5)
	h.queue(5)
	h.queue(6)
	h.run(6*sim.Second - 1)
	if len(h.env.Dropped) != 0 {
		t.Fatalf("dropped %v before the last attempt timed out", h.env.Dropped)
	}
	h.run(6 * sim.Second) // attempt 3 (sent at 3 s) times out
	if !slices.Equal(h.env.Dropped, []string{"discovery-failed", "discovery-failed", "discovery-failed"}) {
		t.Fatalf("dropped %v, want every buffered packet as discovery-failed", h.env.Dropped)
	}
	if h.buffer.Size() != 0 {
		t.Fatalf("%d packets still buffered", h.buffer.Size())
	}
	// Giving up ends the discovery: the next packet starts a new one.
	h.queue(5)
	if last := h.floods[len(h.floods)-1]; last != (flood{5, 1, sim.Time(6 * sim.Second)}) {
		t.Fatalf("after give-up, last flood = %v, want a fresh first attempt", last)
	}
}

func TestDiscoveryCompleteCancelsTimer(t *testing.T) {
	h := newDiscoveryHarness()
	h.queue(5)
	h.run(sim.Second / 2)
	h.disc.Complete(5)
	h.disc.Complete(5) // idempotent
	h.run(20 * sim.Second)
	if len(h.floods) != 1 || len(h.env.Dropped) != 0 {
		t.Fatalf("after Complete: floods %v, drops %v", h.floods, h.env.Dropped)
	}
	if h.sched.Len() != 0 {
		t.Fatalf("%d events still scheduled", h.sched.Len())
	}
	// Completing drains nothing: that is the protocol's job.
	if h.buffer.Len(5) != 1 {
		t.Fatalf("buffered %d, want 1", h.buffer.Len(5))
	}
}

// A timer that finds a route ends the discovery but leaves the buffer
// alone: the packets wait for the next Complete or age out.
func TestDiscoveryTimerWithRouteKeepsBuffer(t *testing.T) {
	h := newDiscoveryHarness()
	h.queue(5)
	h.have[5] = true
	h.run(20 * sim.Second)
	if len(h.floods) != 1 || len(h.env.Dropped) != 0 || h.buffer.Len(5) != 1 {
		t.Fatalf("floods %v, drops %v, buffered %d", h.floods, h.env.Dropped, h.buffer.Len(5))
	}
	// The discovery is over, so a new start floods again.
	h.disc.Start(5)
	if len(h.floods) != 2 || h.floods[1].n != 1 {
		t.Fatalf("restart floods = %v", h.floods)
	}
}
