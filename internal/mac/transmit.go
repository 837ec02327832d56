package mac

import (
	"mtsim/internal/packet"
	"mtsim/internal/sim"
)

// Send enqueues a network packet for link-layer transmission to next
// (packet.Broadcast for flooding). If the interface queue is full the packet
// is dropped silently, as in ns-2's drop-tail IFQ — TCP perceives this as
// congestion loss.
func (m *Mac) Send(p *packet.Packet, next packet.NodeID) {
	if len(m.queue) >= m.cfg.QueueCap {
		m.Stats.QueueDrops++
		m.arena.Release(p)
		return
	}
	job := m.acquireJob(p, next)
	if next != packet.Broadcast && p.Size >= m.cfg.RTSThreshold {
		job.useRTS = true
	}
	m.queue = append(m.queue, job)
	m.reconsider()
}

// DropWhere removes queued packets matching pred and returns how many were
// dropped. Routing protocols use it to purge packets addressed to a next
// hop that just failed.
func (m *Mac) DropWhere(pred func(p *packet.Packet, next packet.NodeID) bool) int {
	kept := m.queue[:0]
	dropped := 0
	for _, j := range m.queue {
		if pred(j.pkt, j.next) {
			dropped++
			m.Stats.QueueDrops++
			m.arena.Release(j.pkt)
			m.releaseJob(j)
		} else {
			kept = append(kept, j)
		}
	}
	m.queue = kept
	return dropped
}

// mediumFree reports whether both physical and virtual carrier sense are
// idle and we are not busy responding.
func (m *Mac) mediumFree() bool {
	return !m.radio.Busy() && m.sched.Now() >= m.nav && m.responding == 0
}

// reconsider is the single state-advancing entry point, invoked on every
// transition that could allow or forbid progress: enqueue, energy up/down,
// NAV changes, tx completion, response completion, job completion.
func (m *Mac) reconsider() {
	if m.state == stIdle && m.cur == nil && len(m.queue) > 0 {
		m.cur = m.queue[0]
		m.queue = m.queue[1:]
		m.seqCounter++
		m.cur.seq = m.seqCounter
		m.backoffSlots = m.drawBackoff()
		m.state = stContend
	}
	if m.state != stContend {
		return
	}
	if m.mediumFree() {
		m.resumeContention()
		return
	}
	m.pauseContention()
	if m.sched.Now() < m.nav && !m.navEvent.Pending() {
		// The NAV holds us off: re-evaluate when it ends.
		m.navEvent = m.sched.AtTask(m.nav, m, macNavExpire)
	}
}

func (m *Mac) drawBackoff() int { return m.rng.Intn(m.cw + 1) }

// pauseContention freezes the DIFS wait / backoff countdown, banking fully
// elapsed slots.
func (m *Mac) pauseContention() {
	if m.difsEvent.Pending() {
		m.sched.Cancel(m.difsEvent)
		m.difsEvent = sim.TaskHandle{}
	}
	if m.backoffEvent.Pending() {
		elapsed := m.sched.Now().Sub(m.backoffStart)
		done := int(elapsed / m.cfg.SlotTime)
		if done > m.backoffSlots {
			done = m.backoffSlots
		}
		m.backoffSlots -= done
		m.sched.Cancel(m.backoffEvent)
		m.backoffEvent = sim.TaskHandle{}
	}
}

// resumeContention (re)starts the DIFS wait, then counts down the remaining
// backoff slots (macDIFSDone arms the backoff timer; see Mac.Run).
func (m *Mac) resumeContention() {
	if m.difsEvent.Pending() || m.backoffEvent.Pending() {
		return // already counting
	}
	m.difsEvent = m.sched.AfterTask(m.cfg.DIFS, m, macDIFSDone)
}

func (m *Mac) onBackoffDone() {
	m.backoffSlots = 0
	job := m.cur
	if job == nil {
		m.state = stIdle
		return
	}
	switch {
	case job.next == packet.Broadcast:
		m.transmitData(job)
	case job.useRTS:
		m.transmitRTS(job)
	default:
		m.transmitData(job)
	}
}

// txTime returns the airtime of a frame of the given size at the given rate.
func (m *Mac) txTime(bytes int, rate float64) sim.Duration {
	return m.cfg.PLCPOverhead + sim.Seconds(float64(bytes*8)/rate)
}

func (m *Mac) dataAirtime(p *packet.Packet, broadcast bool) sim.Duration {
	rate := m.cfg.DataRate
	if broadcast {
		rate = m.cfg.BasicRate
	}
	return m.txTime(m.cfg.MacHeaderBytes+p.Size, rate)
}

func (m *Mac) ctsAirtime() sim.Duration { return m.txTime(m.cfg.CTSBytes, m.cfg.BasicRate) }
func (m *Mac) ackAirtime() sim.Duration { return m.txTime(m.cfg.AckBytes, m.cfg.BasicRate) }

func (m *Mac) put(f *packet.Frame, airtime sim.Duration) {
	if m.OnSend != nil {
		m.OnSend(f)
	}
	m.Stats.FramesSent[f.Kind]++
	m.channel.Transmit(m.radio, f, airtime)
}

func (m *Mac) transmitRTS(job *txJob) {
	m.state = stTxRTS
	dataT := m.dataAirtime(job.pkt, false)
	nav := m.cfg.SIFS + m.ctsAirtime() + m.cfg.SIFS + dataT + m.cfg.SIFS + m.ackAirtime()
	f := m.arena.NewFrameFrom(packet.Frame{
		UID:    m.uids.Next(),
		Kind:   packet.FrameRTS,
		TxFrom: m.id,
		TxTo:   job.next,
		Seq:    job.seq,
		Retry:  job.shortRetries > 0,
		NAV:    nav,
	})
	job.frame = f
	airtime := m.txTime(m.cfg.RTSBytes, m.cfg.BasicRate)
	m.put(f, airtime)
	m.sched.AfterTask(airtime, m, macTxDoneRTS)
}

func (m *Mac) transmitData(job *txJob) {
	m.state = stTxData
	broadcast := job.next == packet.Broadcast
	airtime := m.dataAirtime(job.pkt, broadcast)
	var nav sim.Duration
	if !broadcast {
		nav = m.cfg.SIFS + m.ackAirtime()
	}
	f := m.arena.NewFrameFrom(packet.Frame{
		UID:     m.uids.Next(),
		Kind:    packet.FrameData,
		TxFrom:  m.id,
		TxTo:    job.next,
		Seq:     job.seq,
		Retry:   job.shortRetries > 0 || job.longRetries > 0,
		Payload: job.pkt,
		NAV:     nav,
	})
	job.frame = f
	m.put(f, airtime)
	if broadcast {
		m.sched.AfterTask(airtime, m, macTxDoneBroadcast)
	} else {
		m.sched.AfterTask(airtime, m, macTxDoneData)
	}
}

// sendDataAfterCTS fires SIFS after a CTS is received (see macSendAfterCTS
// in Mac.Run for the deferred body).
func (m *Mac) sendDataAfterCTS() {
	job := m.cur
	if job == nil {
		return
	}
	m.ctsJob = job
	m.sched.AfterTask(m.cfg.SIFS, m, macSendAfterCTS)
}

func (m *Mac) onCTSTimeout() {
	job := m.cur
	if job == nil {
		return
	}
	job.shortRetries++
	m.Stats.Retries++
	if job.shortRetries >= m.cfg.ShortRetryLimit {
		m.failJob()
		return
	}
	m.retryJob()
}

func (m *Mac) onAckTimeout() {
	job := m.cur
	if job == nil {
		return
	}
	limit := m.cfg.ShortRetryLimit
	if job.useRTS {
		job.longRetries++
		limit = m.cfg.LongRetryLimit
		if job.longRetries >= limit {
			m.failJob()
			return
		}
	} else {
		job.shortRetries++
		if job.shortRetries >= limit {
			m.failJob()
			return
		}
	}
	m.Stats.Retries++
	m.retryJob()
}

// retryJob doubles the contention window and re-contends for the medium.
func (m *Mac) retryJob() {
	m.cw = min(2*(m.cw+1)-1, m.cfg.CWMax)
	m.backoffSlots = m.drawBackoff()
	m.state = stContend
	m.reconsider()
}

// finishJob completes the current job successfully and moves on. A
// unicast payload dies here — the MAC-ACK proves every arrival of its
// final data frame has long landed, and receivers only borrow delivered
// packets (they copy to forward), so the storage is free to recycle.
// Broadcast payloads were already released (quarantined) at tx-done.
func (m *Mac) finishJob() {
	job := m.cur
	m.cur = nil
	m.cw = m.cfg.CWMin
	m.state = stIdle
	if job != nil {
		if job.pkt != nil {
			m.arena.ReleaseAfter(job.pkt, m.propHold())
			job.pkt = nil
		}
		m.releaseJob(job)
	}
	m.reconsider()
}

// failJob reports link failure upward and moves on.
func (m *Mac) failJob() {
	job := m.cur
	m.cur = nil
	m.cw = m.cfg.CWMin
	m.state = stIdle
	m.Stats.LinkFailures++
	pkt, next := job.pkt, job.next
	m.releaseJob(job)
	if m.up != nil {
		m.up.LinkFailed(pkt, next)
	}
	m.reconsider()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
