package routing

import (
	"mtsim/internal/packet"
	"mtsim/internal/sim"
)

// DiscoveryPolicy is what one protocol's route discovery does differently
// from the others', as functions of the protocol's router R. The retry
// timer, the per-destination bookkeeping and the give-up path are the
// Discovery driver's. A protocol declares its policy once, as a
// package-level table, so building a router allocates no callbacks.
type DiscoveryPolicy[R any] struct {
	// Flood builds and broadcasts the RREQ for attempt n (1 for the
	// first) of the discovery toward dst.
	Flood func(r R, dst packet.NodeID, n int)
	// Timeout is how long attempt n waits for a reply before the retry
	// timer fires. It is asked right after Flood.
	Timeout func(r R, dst packet.NodeID, n int) sim.Duration
	// Retry reports, when attempt n timed out with no route to dst,
	// whether to flood again (true) or give up (false).
	Retry func(r R, dst packet.NodeID, n int) bool
	// HaveRoute reports whether a usable route to dst exists now.
	HaveRoute func(r R, dst packet.NodeID) bool
}

// Discovery drives on-demand route discovery for one router: a flooded
// RREQ per attempt, a retry timer per destination, and a send buffer
// whose packets wait for the reply. The protocol calls Complete when a
// reply lands (then drains the buffer itself); when the policy gives up,
// the driver drops everything buffered for the destination.
//
// A timer that fires while a route exists (one the protocol learned
// without a reply that called Complete) ends the discovery without
// draining the buffer: those packets wait for the next Complete or age
// out.
type Discovery[R any] struct {
	env     Env
	buffer  *SendBuffer
	router  R
	policy  *DiscoveryPolicy[R]
	pending map[packet.NodeID]inFlight
}

// inFlight is one running discovery: attempts flooded so far and the
// retry timer of the latest.
type inFlight struct {
	attempts int
	timer    *sim.Event
}

// NewDiscovery creates router's discovery driver over buffer in env.
func NewDiscovery[R any](env Env, buffer *SendBuffer, router R, policy *DiscoveryPolicy[R]) *Discovery[R] {
	return &Discovery[R]{env: env, buffer: buffer, router: router, policy: policy,
		pending: make(map[packet.NodeID]inFlight)}
}

// Queue parks p in the send buffer until a route to p.Dst is found,
// starting a discovery unless one is already running.
func (d *Discovery[R]) Queue(p *packet.Packet) {
	d.buffer.Push(p.Dst, p)
	d.Start(p.Dst)
}

// Start floods the first RREQ toward dst, unless a discovery for dst is
// already running.
func (d *Discovery[R]) Start(dst packet.NodeID) {
	if _, busy := d.pending[dst]; busy {
		return
	}
	d.attempt(dst, 1)
}

// Complete ends the discovery for dst, if one is running, and cancels its
// retry timer.
func (d *Discovery[R]) Complete(dst packet.NodeID) {
	if f, ok := d.pending[dst]; ok {
		d.env.Scheduler().Cancel(f.timer)
		delete(d.pending, dst)
	}
}

func (d *Discovery[R]) attempt(dst packet.NodeID, n int) {
	d.pending[dst] = inFlight{attempts: n}
	d.policy.Flood(d.router, dst, n)
	timer := d.env.Scheduler().After(d.policy.Timeout(d.router, dst, n), func() { d.expire(dst) })
	d.pending[dst] = inFlight{attempts: n, timer: timer}
}

// expire is the retry timer of the latest attempt toward dst.
func (d *Discovery[R]) expire(dst packet.NodeID) {
	n := d.pending[dst].attempts
	switch {
	case d.policy.HaveRoute(d.router, dst):
		delete(d.pending, dst)
	case !d.policy.Retry(d.router, dst, n):
		delete(d.pending, dst)
		d.buffer.DropAll(dst)
	default:
		d.attempt(dst, n+1)
	}
}
