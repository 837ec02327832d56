package routing

import "mtsim/internal/packet"

// ECMPIndex hash-picks one of n equal-cost candidates for a flow toward
// dst at node owner. Protocols that hold several equally good routes to
// one destination — DSR's equal-shortest cached routes, an SMR pair of
// equal length, AODV's equally fresh and equally short next hops, MTS's
// paths tied at the freshest checking reply — build the candidate list
// from their own route store at the moment they select, in a fixed
// order, and index it with this hash. Each flow sticks to one member
// while different flows spread across the set, and because the list is
// rebuilt from whatever survives, a link failure becomes a re-hash
// rather than a rediscovery. The result depends only on the arguments:
// no RNG stream is consumed and nothing is cached, so there is nothing
// to invalidate or recycle. n must be > 0.
func ECMPIndex(owner, dst packet.NodeID, flow uint64, n int) int {
	seed := splitmix64(uint64(uint32(owner)) + 0x6D74732D65636D70) // "mts-ecmp"
	x := seed ^ splitmix64(flow*0x9E3779B97F4A7C15) ^ splitmix64(uint64(uint32(dst)))
	return int(splitmix64(x) % uint64(n))
}

// splitmix64 is the finalising mix of the SplitMix64 generator: a cheap,
// well-distributed 64-bit permutation.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// FlowKey derives the ECMP flow discriminator for a packet: the TCP flow
// id when the packet carries one, otherwise a mix of source and
// destination, so control traffic still spreads deterministically.
func FlowKey(p *packet.Packet) uint64 {
	if p.TCP != nil {
		return uint64(p.TCP.Flow) + 1
	}
	return uint64(uint32(p.Src))<<32 | uint64(uint32(p.Dst))
}
