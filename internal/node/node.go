// Package node assembles one mobile node: mobility model, radio, 802.11
// MAC, routing protocol and transport attachment points. It implements
// mac.Upper (receiving from the MAC) and routing.Env (serving the routing
// protocol), so it is the junction box between layers.
package node

import (
	"mtsim/internal/geo"
	"mtsim/internal/mac"
	"mtsim/internal/mobility"
	"mtsim/internal/packet"
	"mtsim/internal/phy"
	"mtsim/internal/routing"
	"mtsim/internal/sim"
)

// FlowHandler receives transport packets for a registered flow. It is a
// type alias so that plain function literals satisfy interface methods
// declared with the unnamed signature (e.g. tcp.Network.RegisterFlow).
type FlowHandler = func(p *packet.Packet, from packet.NodeID)

// Node is one simulated host.
type Node struct {
	id       packet.NodeID
	sched    *sim.Scheduler
	rng      *sim.RNG
	uids     *packet.UIDSource
	arena    *packet.Arena
	recycler *routing.Recycler

	// pend are the delayed (jittered) sends not yet handed to the MAC;
	// the node owns their packets until the timer fires.
	pend   []*delayedSend
	dsPool sim.Pool[delayedSend]

	Mob   mobility.Model
	Radio *phy.Radio
	Mac   *mac.Mac
	Proto routing.Protocol

	flows map[int]FlowHandler
	taps  []func(f *packet.Frame)

	// Metric hooks, set by the scenario's collector. Any may be nil.
	OnRelay     func(p *packet.Packet)                // relayed a data packet (β)
	OnRouteDrop func(p *packet.Packet, reason string) // routing-layer drop

	// DropFilter, when set, vets every packet the routing layer hands to
	// the MAC; returning true silently discards the packet (recorded as a
	// routing drop with reason "adversary"). Adversarial relay models
	// (blackhole/grayhole) install it; legitimate nodes leave it nil.
	DropFilter func(p *packet.Packet, next packet.NodeID) bool

	// OriginateFilter, when set, intercepts every locally generated packet
	// before the routing protocol sees it; returning true means the filter
	// took ownership (the data-shuffling countermeasure buffers segments
	// here and releases them later through Inject). Defensive mirror of
	// DropFilter; ordinary nodes leave it nil.
	OriginateFilter func(p *packet.Packet) bool

	// RouteFilter, when set, vets every *control* packet (RREQ/RREP/RERR
	// and MTS checking traffic) on its way to the MAC, and may rewrite the
	// broadcast jitter of deferred control sends. Route-discovery attacks
	// (wormhole tunnelling, rushing) install it; legitimate nodes leave it
	// nil. The data plane never passes through it, so the arena contract
	// for data packets is untouched.
	RouteFilter RouteFilter

	// trust, when set, observes forwarding evidence (sends handed to the
	// MAC, link failures, overheard relays via the promiscuous tap) and
	// answers routing.TrustCarrier queries. Installed by the trust
	// countermeasure; nil on undefended nodes.
	trust TrustMonitor
}

// RouteFilter intercepts control-plane transmissions. FilterRoute
// returning true means the filter took ownership of the packet — the
// node neither transmits nor releases it (the wormhole tunnels it to the
// far endpoint and releases it there). RouteJitter may rewrite the
// jitter of a deferred control send (the rushing attack returns 0 so the
// compromised relay's rebroadcast wins the duplicate-suppression race);
// the protocol has already drawn its jitter from its RNG by the time
// this runs, so RNG streams are unperturbed either way.
type RouteFilter interface {
	FilterRoute(p *packet.Packet, next packet.NodeID) bool
	RouteJitter(p *packet.Packet, d sim.Duration) sim.Duration
}

// TrustMonitor is the node-facing surface of a per-neighbour trust table:
// a routing.TrustOracle that additionally ingests the forwarding evidence
// this node can observe first-hand.
type TrustMonitor interface {
	routing.TrustOracle
	// NoteSend records that a unicast data packet was handed to the MAC
	// with the given next hop — the start of a forwarding obligation the
	// monitor will hold the neighbour to.
	NoteSend(p *packet.Packet, next packet.NodeID)
	// NoteLinkFailure records MAC retry exhaustion toward next.
	NoteLinkFailure(next packet.NodeID)
}

// FrameTap is implemented by routing protocols that listen promiscuously
// (DSR's snooping). The node wires it to the MAC's tap automatically.
type FrameTap interface {
	TapFrame(f *packet.Frame)
}

// New wires a node: attaches a radio for the mobility model to the channel
// with the node's MAC as listener. The routing protocol is attached
// afterwards with SetProtocol (protocols need the Env, i.e. the node).
func New(id packet.NodeID, sched *sim.Scheduler, ch *phy.Channel, macCfg mac.Config, mob mobility.Model, rng *sim.RNG, uids *packet.UIDSource) *Node {
	n := &Node{
		id:    id,
		sched: sched,
		rng:   rng,
		uids:  uids,
		Mob:   mob,
		flows: make(map[int]FlowHandler),
	}
	n.Mac = mac.New(id, sched, ch, macCfg, n, rng.Derive("mac"), uids)
	n.Radio = ch.Attach(id, mob.PositionAt, n.Mac)
	if sb, ok := mob.(mobility.SpeedBounded); ok {
		n.Radio.SetMaxSpeed(sb.MaxSpeed())
	}
	n.Mac.BindRadio(n.Radio)
	return n
}

// SetArena binds the run's packet arena to the node and its MAC. Must be
// called (if at all) before SetProtocol and before any traffic, so that
// the protocol and transport endpoints resolve the same arena.
func (n *Node) SetArena(a *packet.Arena) {
	n.arena = a
	n.Mac.SetArena(a)
}

// Arena implements routing.ArenaCarrier (and the transport layer's
// equivalent assertion); nil when the node was assembled without one.
func (n *Node) Arena() *packet.Arena { return n.arena }

// SetStateRecycler binds the context's router-state recycler. Like
// SetArena it must be called before SetProtocol: the protocol
// constructor is what takes a parked instance back out.
func (n *Node) SetStateRecycler(r *routing.Recycler) { n.recycler = r }

// StateRecycler implements routing.RecyclerCarrier; nil when the node
// was assembled without a reused context.
func (n *Node) StateRecycler() *routing.Recycler { return n.recycler }

// SetProtocol binds the routing protocol. Must be called before Start.
func (n *Node) SetProtocol(p routing.Protocol) {
	n.Proto = p
	if tap, ok := p.(FrameTap); ok {
		n.AddTap(tap.TapFrame)
	}
}

// InstallOriginateFilter sets OriginateFilter (countermeasure.Host).
func (n *Node) InstallOriginateFilter(f func(p *packet.Packet) bool) {
	n.OriginateFilter = f
}

// InstallRouteFilter sets RouteFilter (adversary control-plane attacks).
func (n *Node) InstallRouteFilter(f RouteFilter) { n.RouteFilter = f }

// InstallTrust binds the trust countermeasure's monitor to this node and
// wires its promiscuous evidence feed. The monitor then answers Trust()
// queries from the routing protocol.
func (n *Node) InstallTrust(m TrustMonitor) {
	n.trust = m
	if tap, ok := m.(FrameTap); ok {
		n.AddTap(tap.TapFrame)
	}
}

// Trust implements routing.TrustCarrier. The two-step nil check matters:
// a nil *concrete* monitor stored in the interface field would otherwise
// leak out as a non-nil routing.TrustOracle.
func (n *Node) Trust() routing.TrustOracle {
	if n.trust == nil {
		return nil
	}
	return n.trust
}

// AddTap registers a promiscuous frame listener (eavesdropper, snooping
// protocols, trace writers). Multiple listeners are supported.
func (n *Node) AddTap(h func(f *packet.Frame)) {
	n.taps = append(n.taps, h)
	if len(n.taps) == 1 {
		n.Mac.Tap = func(f *packet.Frame) {
			for _, t := range n.taps {
				t(f)
			}
		}
	}
}

// Originate hands a locally generated packet to the routing protocol;
// transport endpoints call this (tcp.Network interface). An installed
// OriginateFilter may claim the packet first.
func (n *Node) Originate(p *packet.Packet) {
	if n.OriginateFilter != nil && n.OriginateFilter(p) {
		return
	}
	n.Inject(p)
}

// Inject hands a packet directly to the routing protocol, bypassing any
// OriginateFilter — the re-entry point a countermeasure uses to release
// packets it previously claimed from Originate.
func (n *Node) Inject(p *packet.Packet) {
	if n.Proto != nil {
		n.Proto.Send(p)
		return
	}
	n.arena.Release(p)
}

// Start initialises the routing protocol timers.
func (n *Node) Start() {
	if n.Proto != nil {
		n.Proto.Start()
	}
}

// RegisterFlow attaches a transport handler for the given flow ID.
func (n *Node) RegisterFlow(flow int, h FlowHandler) { n.flows[flow] = h }

// Position returns the node's current location.
func (n *Node) Position() geo.Point { return n.Mob.PositionAt(n.sched.Now()) }

// --- mac.Upper ---

// Deliver implements mac.Upper: packets arriving from the radio go to the
// routing protocol, which either consumes them (control), forwards them, or
// calls DeliverLocal.
func (n *Node) Deliver(p *packet.Packet, from packet.NodeID) {
	if n.Proto != nil {
		n.Proto.Receive(p, from)
	}
}

// LinkFailed implements mac.Upper.
func (n *Node) LinkFailed(p *packet.Packet, next packet.NodeID) {
	if n.trust != nil {
		n.trust.NoteLinkFailure(next)
	}
	if n.Proto != nil {
		n.Proto.LinkFailed(p, next)
	}
}

// --- routing.Env ---

// ID implements routing.Env.
func (n *Node) ID() packet.NodeID { return n.id }

// Scheduler implements routing.Env.
func (n *Node) Scheduler() *sim.Scheduler { return n.sched }

// RNG implements routing.Env.
func (n *Node) RNG() *sim.RNG { return n.rng }

// UIDs implements routing.Env.
func (n *Node) UIDs() *packet.UIDSource { return n.uids }

// SendMac implements routing.Env.
func (n *Node) SendMac(p *packet.Packet, next packet.NodeID) {
	if n.DropFilter != nil && n.DropFilter(p, next) {
		n.NotifyDrop(p, "adversary")
		n.arena.Release(p)
		return
	}
	if n.RouteFilter != nil && p.Kind.IsControl() && n.RouteFilter.FilterRoute(p, next) {
		return // filter took ownership (tunnelled; released at the far end)
	}
	if n.trust != nil && next != packet.Broadcast && p.Kind == packet.KindData {
		n.trust.NoteSend(p, next)
	}
	n.Mac.Send(p, next)
}

// delayedSend is one jittered transmission awaiting its timer: the node
// owns the packet until the task fires and re-enters SendMac (so the
// adversary DropFilter still vets it at fire time, exactly as an
// immediate send would be).
type delayedSend struct {
	n    *Node
	p    *packet.Packet
	next packet.NodeID
	h    sim.TaskHandle
}

// Run implements sim.Task.
func (d *delayedSend) Run(int) {
	n, p, next := d.n, d.p, d.next
	n.forgetDelayed(d)
	n.SendMac(p, next)
}

func (n *Node) forgetDelayed(d *delayedSend) {
	for i, q := range n.pend {
		if q == d {
			last := len(n.pend) - 1
			n.pend[i] = n.pend[last]
			n.pend[last] = nil
			n.pend = n.pend[:last]
			break
		}
	}
	n.dsPool.Put(d)
}

// SendMacAfter implements routing.Env: SendMac after delay d, on a pooled
// task event (protocol broadcast jitter used to burn one closure + event
// allocation per flooded hop).
func (n *Node) SendMacAfter(d sim.Duration, p *packet.Packet, next packet.NodeID) {
	if n.RouteFilter != nil && p.Kind.IsControl() {
		d = n.RouteFilter.RouteJitter(p, d)
	}
	ds := n.dsPool.Get()
	ds.n, ds.p, ds.next = n, p, next
	ds.h = n.sched.AfterTaskCancellable(d, ds, 0)
	n.pend = append(n.pend, ds)
}

// Retire hands every packet still in the node's custody at the end of a
// run — pending jittered sends, the MAC's queue and in-flight exchange,
// and the routing protocol's send buffers — back to the arena, closing
// the leak-accounting books. The node must not carry traffic afterwards.
func (n *Node) Retire() {
	for len(n.pend) > 0 {
		d := n.pend[0]
		n.sched.CancelTask(d.h)
		n.arena.Release(d.p)
		n.forgetDelayed(d) // removes d from n.pend
	}
	n.Mac.Retire()
	if rt, ok := n.Proto.(routing.Retirer); ok {
		rt.Retire()
	}
}

// DropQueued implements routing.Env.
func (n *Node) DropQueued(pred func(p *packet.Packet, next packet.NodeID) bool) int {
	return n.Mac.DropWhere(pred)
}

// DeliverLocal implements routing.Env: the packet reached its end-to-end
// destination.
func (n *Node) DeliverLocal(p *packet.Packet, from packet.NodeID) {
	if p.TCP != nil {
		if h, ok := n.flows[p.TCP.Flow]; ok {
			h(p, from)
		}
	}
}

// NotifyRelay implements routing.Env.
func (n *Node) NotifyRelay(p *packet.Packet) {
	if n.OnRelay != nil {
		n.OnRelay(p)
	}
}

// NotifyDrop implements routing.Env.
func (n *Node) NotifyDrop(p *packet.Packet, reason string) {
	if n.OnRouteDrop != nil {
		n.OnRouteDrop(p, reason)
	}
}

// Compile-time interface checks.
var (
	_ mac.Upper               = (*Node)(nil)
	_ routing.Env             = (*Node)(nil)
	_ routing.ArenaCarrier    = (*Node)(nil)
	_ routing.RecyclerCarrier = (*Node)(nil)
	_ routing.TrustCarrier    = (*Node)(nil)
)
