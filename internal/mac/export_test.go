package mac

import "mtsim/internal/sim"

// EdgeActs reports whether an EnergyUp (up) or an EnergyDown would get
// past its first guard in the MAC's present state: EnergyUp pauses only a
// contending MAC, and EnergyDown's reconsider acts only for a contending
// MAC or an idle one with a queued job.
func (m *Mac) EdgeActs(up bool) bool {
	if up {
		return m.state == stContend
	}
	return m.state == stContend || m.state == stIdle && m.cur == nil && len(m.queue) > 0
}

// ContentionState is everything EnergyUp and EnergyDown can write.
type ContentionState struct {
	state                          jobState
	cur                            *txJob
	queued, backoffSlots           int
	backoffStart, nav              sim.Time
	difs, backoff, timeout, navExp sim.TaskHandle
}

// Contention snapshots the MAC's ContentionState.
func (m *Mac) Contention() ContentionState {
	return ContentionState{
		state: m.state, cur: m.cur,
		queued: len(m.queue), backoffSlots: m.backoffSlots,
		backoffStart: m.backoffStart, nav: m.nav,
		difs: m.difsEvent, backoff: m.backoffEvent, timeout: m.timeoutEvent, navExp: m.navEvent,
	}
}

// Contending reports whether the MAC is contending: the one state in which
// its radio is loud.
func (m *Mac) Contending() bool { return m.state == stContend }
