// Package routing defines the interface between a node and its routing
// protocol, plus the mechanics all protocol implementations share: the
// route-discovery driver (Discovery: RREQ retry timer, per-destination
// bookkeeping, give-up path) over a send buffer for packets awaiting a
// route, control-packet origination and re-flooding (Originate,
// Rebroadcast), the source-route toolkit (SendAlong, SendSourceRouted,
// ForwardSourceRouted, ReverseRoute, HasLoop, ContainsLink),
// sequence-number comparison and broadcast jitter conventions.
//
// Four protocols implement Protocol: DSR and AODV (the paper's baselines,
// internal/routing/dsr and internal/routing/aodv), SMR (the multipath
// scheme of the paper's related work, internal/routing/smr) and MTS (the
// paper's contribution, internal/core).
package routing

import (
	"mtsim/internal/packet"
	"mtsim/internal/sim"
)

// Env is the node-side environment a protocol instance operates in. It is
// implemented by node.Node.
type Env interface {
	// ID returns the host node's address.
	ID() packet.NodeID
	// Scheduler returns the simulation scheduler for timers.
	Scheduler() *sim.Scheduler
	// RNG returns the protocol's random stream (jitter etc.).
	RNG() *sim.RNG
	// UIDs allocates packet UIDs.
	UIDs() *packet.UIDSource
	// SendMac queues p for link-layer transmission to next
	// (packet.Broadcast floods to all neighbours).
	SendMac(p *packet.Packet, next packet.NodeID)
	// SendMacAfter is SendMac deferred by d — the jittered re-broadcast
	// every protocol applies to flooded packets. Ownership of p passes to
	// the environment immediately, so a run that ends before the jitter
	// fires can still account for (and retire) the packet.
	SendMacAfter(d sim.Duration, p *packet.Packet, next packet.NodeID)
	// DropQueued removes packets matching pred from the interface queue,
	// returning the number removed (used after link failures).
	DropQueued(pred func(p *packet.Packet, next packet.NodeID) bool) int
	// DeliverLocal hands a packet that reached its final destination to
	// the transport layer.
	DeliverLocal(p *packet.Packet, from packet.NodeID)
	// NotifyRelay records that this node relayed a data packet (the
	// per-node β counts behind Table I / Figs. 5–7).
	NotifyRelay(p *packet.Packet)
	// NotifyDrop records a data packet dropped by the routing layer
	// (no route, buffer overflow, TTL exhausted).
	NotifyDrop(p *packet.Packet, reason string)
	// Arena returns the packet arena protocols acquire and release
	// packets through. Routers capture it at New.
	Arena() *packet.Arena
	// Trust returns the node's trust oracle, or nil when the trust
	// defence is off (the common case). Routers capture it at New.
	Trust() TrustOracle
}

// Protocol is a routing protocol instance bound to one node.
type Protocol interface {
	// Name returns the protocol's short name ("DSR", "AODV", "SMR",
	// "MTS").
	Name() string
	// Start is called once at simulation start, before any traffic.
	Start()
	// Send originates an end-to-end packet from this node.
	Send(p *packet.Packet)
	// Receive handles a packet handed up by the MAC: protocol control, or
	// data to be delivered locally or forwarded.
	Receive(p *packet.Packet, from packet.NodeID)
	// LinkFailed is the MAC's retry-exhaustion feedback for a unicast
	// packet that could not reach next.
	LinkFailed(p *packet.Packet, next packet.NodeID)
}

// Retirer is implemented by protocols that can hand back packets still in
// their custody (send buffers) when a run ends; the node calls it from
// Retire so the arena's leak accounting closes out.
type Retirer interface {
	Retire()
}

// TrustOracle scores next-hop neighbours from forwarding evidence (the
// trust countermeasure, internal/countermeasure). Protocols consult it at
// path-selection time; a nil oracle means every neighbour is fully
// trusted and selection behaves exactly as before the oracle existed.
type TrustOracle interface {
	// Distrusted reports whether the neighbour's score has fallen below
	// the distrust threshold — paths through it should be avoided when an
	// alternative exists.
	Distrusted(neighbour packet.NodeID) bool
	// Cost returns an additive path-cost penalty for routing through the
	// neighbour: 0 for a fully trusted hop, growing as evidence of
	// dropped traffic accumulates. Deterministic (pure function of the
	// evidence seen so far).
	Cost(neighbour packet.NodeID) float64
}

// TrustCost scores a complete source route under a trust oracle: its hop
// count plus the oracle's penalty for every intermediate relay (the
// endpoints do not forward). Shared by the source-routed protocols'
// trusted path selection.
func TrustCost(oracle TrustOracle, route []packet.NodeID) float64 {
	cost := float64(len(route))
	if len(route) < 2 {
		return cost
	}
	for _, hop := range route[1 : len(route)-1] {
		cost += oracle.Cost(hop)
	}
	return cost
}

// SeqNewer reports whether sequence number a is fresher than b using
// signed 32-bit wraparound comparison (AODV-style).
func SeqNewer(a, b uint32) bool { return int32(a-b) > 0 }

// MaxBroadcastJitter is the upper bound of the random delay protocols add
// before re-broadcasting flooded packets, avoiding synchronized collisions
// among neighbours that received the same broadcast simultaneously.
const MaxBroadcastJitter = 10 * sim.Millisecond

// DefaultTTL is the initial TTL for originated packets.
const DefaultTTL = 32
