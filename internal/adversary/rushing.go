package adversary

import (
	"mtsim/internal/packet"
	"mtsim/internal/sim"
)

// rushJitter is the Jitter stage of the k compromised relays mounting
// AODVSEC's rushing attack on route discovery: every protocol jitters its
// route-request re-broadcasts (routing.MaxBroadcastJitter) to avoid
// synchronized collisions, and duplicate suppression means only the FIRST
// copy of a flood a node hears is processed — so a relay that
// re-broadcasts instantly wins the race at all of its neighbours, and the
// discovered routes disproportionately run through it. The rushers then
// simply sit on-path and collect.
//
// Flooded route requests go out immediately; every other packet keeps
// its timing, and the rushers claim nothing. The protocol has already
// drawn its jitter from its RNG by then, so every random stream in the
// run is consumed identically with or without the attack — same-seed
// runs stay bit-identical in schedule structure, differing only in
// behaviour (TestRushingSameSeedDeterministic pins this).
func rushJitter(p *packet.Packet, d sim.Duration) sim.Duration {
	if p.Kind == packet.KindRREQ {
		return 0
	}
	return d
}
