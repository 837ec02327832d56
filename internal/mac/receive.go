package mac

import (
	"mtsim/internal/packet"
	"mtsim/internal/sim"
)

// EnergyUp implements phy.Listener: the medium became busy.
func (m *Mac) EnergyUp() {
	if m.state == stContend {
		m.pauseContention()
	}
}

// EnergyDown implements phy.Listener: the medium became idle.
func (m *Mac) EnergyDown() {
	m.reconsider()
}

// setNAV extends the virtual carrier sense horizon. Only a contending MAC
// needs a re-evaluation when the NAV ends: any pending expiry timer is
// dropped, and reconsider arms a fresh one for a contender.
func (m *Mac) setNAV(until sim.Time) {
	if until <= m.nav {
		return
	}
	m.nav = until
	if m.navEvent.Pending() {
		m.sched.Cancel(m.navEvent)
		m.navEvent = sim.TaskHandle{}
	}
	if m.state == stContend {
		m.reconsider()
	}
}

// RxEnd implements phy.Listener: a decodable frame finished arriving.
func (m *Mac) RxEnd(f *packet.Frame, ok bool) {
	if !ok {
		// Corrupted frame: no EIFS modelling (see package comment).
		return
	}
	if m.Tap != nil {
		m.Tap(f)
	}
	if f.TxTo != m.id && f.TxTo != packet.Broadcast {
		// Overheard frame for someone else: honour its NAV.
		if f.NAV > 0 {
			m.setNAV(m.sched.Now().Add(f.NAV))
		}
		return
	}
	switch f.Kind {
	case packet.FrameRTS:
		m.handleRTS(f)
	case packet.FrameCTS:
		m.handleCTS(f)
	case packet.FrameData:
		m.handleData(f)
	case packet.FrameAck:
		m.handleAck(f)
	}
}

func (m *Mac) handleRTS(f *packet.Frame) {
	// Respond only if our virtual carrier sense is clear (802.11 rule);
	// otherwise stay silent and let the requester back off.
	if m.sched.Now() < m.nav || m.responding > 0 {
		return
	}
	nav := f.NAV - m.cfg.SIFS - m.ctsAirtime()
	if nav < 0 {
		nav = 0
	}
	cts := m.arena.NewFrameFrom(packet.Frame{
		UID:    m.uids.Next(),
		Kind:   packet.FrameCTS,
		TxFrom: m.id,
		TxTo:   f.TxFrom,
		NAV:    nav,
	})
	m.respond(cts, m.ctsAirtime())
}

func (m *Mac) handleCTS(f *packet.Frame) {
	if m.state != stWaitCTS || m.cur == nil || f.TxFrom != m.cur.next {
		return
	}
	if m.timeoutEvent.Pending() {
		m.sched.Cancel(m.timeoutEvent)
		m.timeoutEvent = sim.TaskHandle{}
	}
	m.setState(stTxData) // committed; a duplicate CTS must not re-trigger
	m.sendDataAfterCTS()
}

func (m *Mac) handleData(f *packet.Frame) {
	if f.IsBroadcast() {
		m.Stats.Delivered++
		if m.up != nil {
			m.up.Deliver(f.Payload, f.TxFrom)
		}
		return
	}
	// Unicast: always ACK; deliver only if not a duplicate retransmission.
	ack := m.arena.NewFrameFrom(packet.Frame{
		UID:    m.uids.Next(),
		Kind:   packet.FrameAck,
		TxFrom: m.id,
		TxTo:   f.TxFrom,
	})
	m.respond(ack, m.ackAirtime())

	if last, seen := m.dupCache[f.TxFrom]; seen && f.Retry && last == f.Seq {
		m.Stats.Duplicates++
		return
	}
	m.dupCache[f.TxFrom] = f.Seq
	m.Stats.Delivered++
	if m.up != nil {
		m.up.Deliver(f.Payload, f.TxFrom)
	}
}

func (m *Mac) handleAck(f *packet.Frame) {
	if m.state != stWaitAck || m.cur == nil || f.TxFrom != m.cur.next {
		return
	}
	if m.timeoutEvent.Pending() {
		m.sched.Cancel(m.timeoutEvent)
		m.timeoutEvent = sim.TaskHandle{}
	}
	m.finishJob()
}

// respJob is the pooled state of one in-flight CTS/ACK response: the frame
// to send and its airtime, dispatched SIFS after the eliciting frame
// (respSend) and again when the response leaves the air (respDone).
type respJob struct {
	m       *Mac
	f       *packet.Frame
	airtime sim.Duration
}

const (
	respSend = iota
	respDone
)

// Run implements sim.Task.
func (r *respJob) Run(arg int) {
	m := r.m
	switch arg {
	case respSend:
		if m.radio.Transmitting() {
			// We started another transmission at the same instant; the
			// response is lost and the requester will time out. The frame
			// never went on the air, so nobody can be decoding it.
			m.responding--
			m.arena.ReleaseFrame(r.f)
			m.releaseResp(r)
			m.reconsider()
			return
		}
		m.Stats.ResponsesSent++
		m.put(r.f, r.airtime)
		m.sched.AfterTask(r.airtime, r, respDone)
	case respDone:
		m.responding--
		m.arena.ReleaseFrameAfter(r.f, m.propHold())
		m.releaseResp(r)
		m.reconsider()
	}
}

func (m *Mac) releaseResp(r *respJob) {
	for i, q := range m.resps {
		if q == r {
			last := len(m.resps) - 1
			m.resps[i] = m.resps[last]
			m.resps[last] = nil
			m.resps = m.resps[:last]
			break
		}
	}
	m.respPool.Put(r)
}

// respond sends a CTS or ACK SIFS after the eliciting frame, bypassing
// contention as 802.11 prescribes. Contention for our own pending job stays
// paused until the response is on the air and finished.
func (m *Mac) respond(f *packet.Frame, airtime sim.Duration) {
	m.responding++
	if m.state == stContend {
		m.pauseContention()
	}
	r := m.respPool.Get()
	r.m, r.f, r.airtime = m, f, airtime
	m.resps = append(m.resps, r)
	m.sched.AfterTask(m.cfg.SIFS, r, respSend)
}
