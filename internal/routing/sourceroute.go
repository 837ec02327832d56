package routing

import (
	"slices"

	"mtsim/internal/packet"
)

// Sending helpers shared by the protocols: originating and re-flooding
// control packets, and the source-route toolkit — what the source-routed
// protocols (DSR, SMR, and MTS's control and return traffic) do with a
// route carried in the packet.

// SendAlong stamps route onto p and hands p to the route's first hop.
// The route starts at this node and has at least two nodes.
func SendAlong(env Env, ar *packet.Arena, p *packet.Packet, route []packet.NodeID) {
	ar.SetSourceRoute(p, route)
	p.SRIndex = 0
	env.SendMac(p, route[1])
}

// SendSourceRouted originates a control packet at this node and sends it
// along route (see SendAlong). ctl supplies the Kind, Size, Dst and
// Routing header; the UID, source and TTL are filled in here.
func SendSourceRouted(env Env, ar *packet.Arena, route []packet.NodeID, ctl packet.Packet) {
	ctl.TTL = DefaultTTL
	SendAlong(env, ar, newControl(env, ar, ctl), route)
}

// Originate sends a new control packet from this node to the neighbour
// next; packet.Broadcast floods it to every neighbour. ctl supplies the
// Kind, Size, Dst, TTL and Routing header; the UID and source are filled
// in here.
func Originate(env Env, ar *packet.Arena, next packet.NodeID, ctl packet.Packet) {
	env.SendMac(newControl(env, ar, ctl), next)
}

func newControl(env Env, ar *packet.Arena, ctl packet.Packet) *packet.Packet {
	ctl.UID = env.UIDs().Next()
	ctl.Src = env.ID()
	return ar.NewPacketFrom(ctl)
}

// Rebroadcast re-floods p after the broadcast jitter: a copy with one less
// TTL, carrying hdr and size in place of p's header and size.
func Rebroadcast(env Env, ar *packet.Arena, p *packet.Packet, hdr any, size int) {
	fwd := ar.Copy(p, env.UIDs())
	fwd.TTL--
	fwd.Routing = hdr
	fwd.Size = size
	env.SendMacAfter(env.RNG().Jitter(MaxBroadcastJitter), fwd, packet.Broadcast)
}

// ForwardSourceRouted advances p one hop along its source route: a copy
// with the TTL decremented goes to the node after this one. A route that
// does not continue past this node drops p as "bad-source-route".
func ForwardSourceRouted(env Env, ar *packet.Arena, p *packet.Packet) {
	idx := slices.Index(p.SourceRoute, env.ID())
	if idx < 0 || idx+1 >= len(p.SourceRoute) {
		env.NotifyDrop(p, "bad-source-route")
		return
	}
	fwd := ar.Copy(p, env.UIDs())
	fwd.TTL--
	fwd.SRIndex = idx + 1
	env.SendMac(fwd, p.SourceRoute[idx+1])
}

// ReverseRoute returns a reversed copy of r.
func ReverseRoute(r []packet.NodeID) []packet.NodeID {
	out := slices.Clone(r)
	slices.Reverse(out)
	return out
}

// HasLoop reports whether r visits any node twice. Routes are a handful of
// hops, so a nested scan is cheaper than building a set on every call.
func HasLoop(r []packet.NodeID) bool {
	for i := 1; i < len(r); i++ {
		if slices.Contains(r[:i], r[i]) {
			return true
		}
	}
	return false
}

// ContainsLink reports whether r uses the link between a and b in either
// direction.
func ContainsLink(r []packet.NodeID, a, b packet.NodeID) bool {
	for i := 0; i+1 < len(r); i++ {
		if (r[i] == a && r[i+1] == b) || (r[i] == b && r[i+1] == a) {
			return true
		}
	}
	return false
}
