package adversary

import (
	"mtsim/internal/packet"
	"mtsim/internal/sim"
)

// rushFilter is installed on k compromised relays mounting AODVSEC's
// rushing attack on route discovery: every protocol jitters its route-request re-broadcasts
// (routing.MaxBroadcastJitter) to avoid synchronized collisions, and
// duplicate suppression means only the FIRST copy of a flood a node hears
// is processed — so a relay that re-broadcasts instantly wins the race at
// all of its neighbours, and the discovered routes disproportionately run
// through it. The rushers then simply sit on-path and collect.
//
// The attack rewrites only the attacker's own forwarding delay through
// the node.RouteJitter hook; the protocol has already drawn its jitter
// from its RNG by then, so every random stream in the run is consumed
// identically with or without the attack — same-seed runs stay
// bit-identical in schedule structure, differing only in behaviour
// (TestRushingSameSeedDeterministic pins this).
type rushFilter struct{}

// FilterRoute implements node.RouteFilter: rushing never claims packets.
func (rushFilter) FilterRoute(*packet.Packet, packet.NodeID) bool { return false }

// RouteJitter implements node.RouteFilter: flooded route requests go out
// immediately; other control traffic (replies, errors) keeps its timing.
func (rushFilter) RouteJitter(p *packet.Packet, d sim.Duration) sim.Duration {
	if p.Kind == packet.KindRREQ {
		return 0
	}
	return d
}
