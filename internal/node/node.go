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
	id    packet.NodeID
	sched *sim.Scheduler
	rng   *sim.RNG
	uids  *packet.UIDSource
	arena *packet.Arena

	// pend are the delayed (jittered) sends not yet handed to the MAC;
	// the node owns their packets until the timer fires.
	pend   []*delayedSend
	dsPool sim.Pool[delayedSend]

	Mob   mobility.Model
	Radio *phy.Radio
	Mac   *mac.Mac
	Proto routing.Protocol

	flows map[int]FlowHandler

	// stages are the registered interceptions in registration order;
	// trust is the one oracle among them.
	stages []Stage
	trust  routing.TrustOracle
}

// Stage is one party's interception of a node's traffic: adversaries,
// defences, the metrics collector and the tracer each register one (or
// several) through AddStage. Every field is optional and a nil func is
// never called: a point no stage uses costs a nil check per stage.
type Stage struct {
	// Originate sees every locally generated packet before the routing
	// protocol does; returning true claims it (the data-shuffling defence
	// buffers segments here and releases them later through Inject).
	Originate func(p *packet.Packet) bool
	// Send vets every packet the routing layer hands to the MAC. Drop
	// discards the packet as a routing drop with reason "adversary"
	// (blackhole, grayhole); Claim means the stage took ownership and the
	// node neither transmits nor releases it (the wormhole tunnels it).
	Send func(p *packet.Packet, next packet.NodeID) Verdict
	// Sent observes a packet that every Send verdict passed, just before
	// it is handed to the MAC (the trust watchdog's obligations).
	Sent func(p *packet.Packet, next packet.NodeID)
	// Jitter may rewrite the delay of a deferred send (the rushing attack
	// zeroes it for route requests). The protocol has already drawn the
	// delay from its RNG, so RNG streams are unperturbed either way.
	Jitter func(p *packet.Packet, d sim.Duration) sim.Duration
	// Tap sees every frame this node decodes, before address filtering:
	// eavesdroppers, DSR snooping, the trust watchdog's ear, the tracer.
	Tap func(f *packet.Frame)
	// LinkFailed observes MAC retry exhaustion toward next, before the
	// routing protocol is told.
	LinkFailed func(p *packet.Packet, next packet.NodeID)
	// Aired observes every frame this node's MAC puts on the air.
	Aired func(f *packet.Frame)
	// Relayed observes a data packet this node relayed (β, Table I).
	Relayed func(p *packet.Packet)
	// Dropped observes a routing-layer drop with its reason.
	Dropped func(p *packet.Packet, reason string)
	// Trust is the node's trust oracle, which Trust hands to the routing
	// protocol. At most one stage per node carries one (the last wins).
	Trust routing.TrustOracle
}

// Verdict is a Send stage's decision on one outgoing packet.
type Verdict uint8

const (
	// Pass lets the packet continue to the next stage and the MAC.
	Pass Verdict = iota
	// Drop discards the packet, recorded as a routing drop "adversary".
	Drop
	// Claim hands the packet to the stage, which now owns it.
	Claim
)

// FrameTap is implemented by routing protocols that listen promiscuously
// (DSR's snooping). SetProtocol registers it as a Tap stage.
type FrameTap interface {
	TapFrame(f *packet.Frame)
}

// New wires a node: attaches a radio for the mobility model to the channel
// with the node's MAC as listener. The node, its MAC, its routing protocol
// and its transport endpoints all draw from and release to ar, the run's
// packet arena. The routing protocol is attached afterwards with
// SetProtocol (protocols need the Env, i.e. the node).
func New(id packet.NodeID, sched *sim.Scheduler, ch *phy.Channel, macCfg mac.Config, mob mobility.Model, rng *sim.RNG, uids *packet.UIDSource, ar *packet.Arena) *Node {
	n := &Node{
		id:    id,
		sched: sched,
		rng:   rng,
		uids:  uids,
		arena: ar,
		Mob:   mob,
		flows: make(map[int]FlowHandler),
	}
	n.Mac = mac.New(id, sched, ch, macCfg, n, rng.Derive("mac"), uids, ar)
	n.Radio = ch.Attach(id, mob.PositionAt, n.Mac)
	if sb, ok := mob.(mobility.SpeedBounded); ok {
		n.Radio.SetMaxSpeed(sb.MaxSpeed())
	}
	n.Mac.BindRadio(n.Radio)
	return n
}

// Arena implements routing.Env, tcp.Network and app.CBRNetwork: the run's
// packet arena.
func (n *Node) Arena() *packet.Arena { return n.arena }

// SetProtocol binds the routing protocol. Must be called before Start,
// and after any stage carrying Trust: routers capture the oracle at New.
func (n *Node) SetProtocol(p routing.Protocol) {
	n.Proto = p
	if tap, ok := p.(FrameTap); ok {
		n.AddStage(Stage{Tap: tap.TapFrame})
	}
}

// AddStage registers st's interceptions. At each point the stages run in
// registration order, with two fixed orderings whatever the order of
// registration: in SendMac every Send verdict runs before any Sent
// observer, and in LinkFailed every stage runs before the protocol.
func (n *Node) AddStage(st Stage) {
	n.stages = append(n.stages, st)
	if st.Tap != nil && n.Mac.Tap == nil {
		n.Mac.Tap = n.tap
	}
	if st.Aired != nil && n.Mac.OnSend == nil {
		n.Mac.OnSend = n.aired
	}
	if st.Trust != nil {
		n.trust = st.Trust
	}
}

// tap is the MAC's promiscuous hook while any stage has a Tap.
func (n *Node) tap(f *packet.Frame) {
	for i := range n.stages {
		if h := n.stages[i].Tap; h != nil {
			h(f)
		}
	}
}

// aired is the MAC's send hook while any stage has an Aired.
func (n *Node) aired(f *packet.Frame) {
	for i := range n.stages {
		if h := n.stages[i].Aired; h != nil {
			h(f)
		}
	}
}

// Trust implements routing.Env: the oracle a stage registered, or nil.
func (n *Node) Trust() routing.TrustOracle { return n.trust }

// Originate hands a locally generated packet to the routing protocol;
// transport endpoints call this (tcp.Network interface). An Originate
// stage may claim the packet first.
func (n *Node) Originate(p *packet.Packet) {
	for i := range n.stages {
		if f := n.stages[i].Originate; f != nil && f(p) {
			return
		}
	}
	n.Inject(p)
}

// Inject hands a packet directly to the routing protocol, bypassing the
// Originate stages — the re-entry point a countermeasure uses to release
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
	for i := range n.stages {
		if f := n.stages[i].LinkFailed; f != nil {
			f(p, next)
		}
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

// SendMac implements routing.Env. Every Send verdict runs before any
// Sent observer, so an observer never sees a packet a stage dropped or
// claimed.
func (n *Node) SendMac(p *packet.Packet, next packet.NodeID) {
	for i := range n.stages {
		if f := n.stages[i].Send; f != nil {
			switch f(p, next) {
			case Drop:
				n.NotifyDrop(p, "adversary")
				n.arena.Release(p)
				return
			case Claim:
				return
			}
		}
	}
	for i := range n.stages {
		if f := n.stages[i].Sent; f != nil {
			f(p, next)
		}
	}
	n.Mac.Send(p, next)
}

// delayedSend is one jittered transmission awaiting its timer: the node
// owns the packet until the task fires and re-enters SendMac (so the
// Send stages vet it at fire time, exactly as an immediate send).
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
	for i := range n.stages {
		if f := n.stages[i].Jitter; f != nil {
			d = f(p, d)
		}
	}
	ds := n.dsPool.Get()
	ds.n, ds.p, ds.next = n, p, next
	ds.h = n.sched.AfterTask(d, ds, 0)
	n.pend = append(n.pend, ds)
}

// Retire hands every packet still in the node's custody at the end of a
// run — pending jittered sends, the MAC's queue and in-flight exchange,
// and the routing protocol's send buffers — back to the arena, closing
// the leak-accounting books. The node must not carry traffic afterwards.
func (n *Node) Retire() {
	for len(n.pend) > 0 {
		d := n.pend[0]
		n.sched.Cancel(d.h)
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
	for i := range n.stages {
		if f := n.stages[i].Relayed; f != nil {
			f(p)
		}
	}
}

// NotifyDrop implements routing.Env.
func (n *Node) NotifyDrop(p *packet.Packet, reason string) {
	for i := range n.stages {
		if f := n.stages[i].Dropped; f != nil {
			f(p, reason)
		}
	}
}

// Compile-time interface checks.
var (
	_ mac.Upper   = (*Node)(nil)
	_ routing.Env = (*Node)(nil)
)
