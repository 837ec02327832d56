package adversary

import (
	"mtsim/internal/node"
	"mtsim/internal/packet"
	"mtsim/internal/sim"
)

// TunnelDelay is the wormhole's out-of-band latency: far below one radio
// hop's jitter + contention, so tunnelled route requests always beat the
// legitimate multi-hop flood and the phantom link looks like the best
// path to every discovery protocol.
const TunnelDelay = 1 * sim.Millisecond

// tunnelled is one control packet in tunnel flight: the wormhole owns it
// until the far endpoint's Deliver runs (or Retire drains it).
type tunnelled struct {
	w    *Adversary
	from int // index of the sending endpoint
	p    *packet.Packet
	h    sim.TaskHandle
}

// Run implements sim.Task: hand the packet to the far endpoint as if it
// had arrived from the near one, then release it — receivers borrow.
func (t *tunnelled) Run(int) {
	w, from, p := t.w, t.from, t.p
	w.forget(t)
	dst := w.hosts[1-from]
	dst.Deliver(p, w.hosts[from].ID())
	dst.Arena().Release(p)
}

func (w *Adversary) forget(t *tunnelled) {
	for i, q := range w.pend {
		if q == t {
			last := len(w.pend) - 1
			w.pend[i] = w.pend[last]
			w.pend[last] = nil
			w.pend = w.pend[:last]
			break
		}
	}
}

// tunnelControl is the Send stage of one end of a wormhole: a pair of
// colluding relays joined by an out-of-band tunnel (AODVSEC's wormhole
// attack). Each endpoint relays honestly on the air, but additionally
// teleports its outgoing route-discovery control traffic to the far
// endpoint: a tunnelled RREQ re-broadcast arrives at the peer carrying a
// record that ends at the near endpoint, so when the peer processes and
// re-floods it the discovered route contains the phantom one-hop link
// near→far — typically far shorter than any real path, so sources prefer
// it. Data is NOT tunnelled: packets routed into the wormhole die at the
// near endpoint when its MAC cannot reach the phantom next hop — the
// classic wormhole-then-drop denial, observable by upstream watchdogs
// precisely because the DATA frame never airs.
//
// Broadcast control (RREQ floods) is cloned into the tunnel and still
// aired locally — the endpoint keeps behaving like an honest relay.
// Unicast control whose next hop is the far endpoint exists only because
// of the phantom link, so it is claimed outright and tunnelled; letting
// the MAC try would just burn retries against an out-of-range peer.
//
// The data-plane arena contract is untouched: each tunnelled clone is
// delivered to the peer exactly once (borrowed, per the receive
// convention) and released exactly once, and Retire drains clones still
// in flight when a run ends.
func (w *Adversary) tunnelControl(from int, p *packet.Packet, next packet.NodeID) node.Verdict {
	if !p.Kind.IsControl() {
		return node.Pass
	}
	src, dst := w.hosts[from], w.hosts[1-from]
	switch next {
	case packet.Broadcast:
		w.tunnel(from, src.Arena().Copy(p, src.UIDs()))
		return node.Pass // the original still floods locally
	case dst.ID():
		w.tunnel(from, p)
		return node.Claim // crosses the phantom link out of band
	default:
		return node.Pass
	}
}

func (w *Adversary) tunnel(from int, p *packet.Packet) {
	t := &tunnelled{w: w, from: from, p: p}
	t.h = w.hosts[from].Scheduler().AfterTask(TunnelDelay, t, 0)
	w.pend = append(w.pend, t)
	w.tunnelledN++
}

// Retire drains the wormhole's tunnel: clones still in flight when the
// run ends are cancelled and handed back to the arena, closing the
// leak-accounting books (mirrors node.Retire's pending-send drainage).
// Other models hold no packets, so for them it does nothing.
func (w *Adversary) Retire() {
	for len(w.pend) > 0 {
		t := w.pend[0]
		w.hosts[0].Scheduler().Cancel(t.h)
		w.hosts[t.from].Arena().Release(t.p)
		w.forget(t)
	}
}

// Tunnelled returns how many control packets entered the tunnel (tests).
func (w *Adversary) Tunnelled() uint64 { return w.tunnelledN }
