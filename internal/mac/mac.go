// Package mac implements an IEEE 802.11b DCF MAC: CSMA/CA with physical and
// virtual carrier sense (NAV), slotted binary-exponential backoff, optional
// RTS/CTS for large unicast frames, positive ACKs with retry limits, and a
// drop-tail interface queue.
//
// The paper's evaluation (like ns-2's wireless stack it was run on) relies
// on two MAC behaviours this package reproduces faithfully:
//
//   - contention and collisions on a shared medium, which create the
//     delay/throughput differences between protocols, and
//   - link-failure feedback: when a unicast frame exhausts its retries the
//     routing protocol is notified, which is how DSR/AODV/MTS detect broken
//     links ("the feedback from the MAC layer", §III-E).
//
// Simplification (documented): EIFS after corrupted receptions is not
// modelled; corrupted frames are simply ignored. This slightly favours all
// protocols equally and does not affect their ordering.
package mac

import (
	"mtsim/internal/packet"
	"mtsim/internal/phy"
	"mtsim/internal/sim"
)

// Upper is the interface the MAC reports to (the node's network layer).
type Upper interface {
	// Deliver hands up a received network-layer packet addressed to this
	// node (or broadcast), along with the transmitting neighbour.
	Deliver(p *packet.Packet, from packet.NodeID)
	// LinkFailed reports that a unicast packet could not be delivered to
	// next after exhausting MAC retries.
	LinkFailed(p *packet.Packet, next packet.NodeID)
}

// Config holds the 802.11 timing and policy parameters.
type Config struct {
	SlotTime sim.Duration
	SIFS     sim.Duration
	DIFS     sim.Duration
	// PLCPOverhead is the preamble+header time prepended to every frame.
	PLCPOverhead sim.Duration

	DataRate  float64 // bit/s for unicast data frames
	BasicRate float64 // bit/s for control frames and broadcasts

	CWMin, CWMax    int
	ShortRetryLimit int // attempts for RTS and small data frames
	LongRetryLimit  int // attempts for data frames sent after RTS/CTS

	// RTSThreshold: unicast payloads of at least this many bytes use the
	// RTS/CTS exchange. Set very large to disable RTS/CTS entirely.
	RTSThreshold int

	QueueCap int // interface queue capacity (packets)

	MacHeaderBytes int
	RTSBytes       int
	CTSBytes       int
	AckBytes       int
}

// Default80211b returns the 802.11b parameter set used by the paper's ns-2
// setup: 11 Mb/s data, 2 Mb/s basic rate, long PLCP preamble, 50-packet
// interface queue.
func Default80211b() Config {
	return Config{
		SlotTime:        20 * sim.Microsecond,
		SIFS:            10 * sim.Microsecond,
		DIFS:            50 * sim.Microsecond,
		PLCPOverhead:    192 * sim.Microsecond,
		DataRate:        11e6,
		BasicRate:       2e6,
		CWMin:           31,
		CWMax:           1023,
		ShortRetryLimit: 7,
		LongRetryLimit:  4,
		RTSThreshold:    250,
		QueueCap:        50,
		MacHeaderBytes:  28,
		RTSBytes:        20,
		CTSBytes:        14,
		AckBytes:        14,
	}
}

// maxPropSlack absorbs propagation delay in response timeouts.
const maxPropSlack = 5 * sim.Microsecond

type jobState int

const (
	stIdle jobState = iota
	stContend
	stTxRTS
	stWaitCTS
	stTxData
	stWaitAck
)

// txJob is one queued network packet with its link-layer destination.
type txJob struct {
	pkt  *packet.Packet
	next packet.NodeID
	// frame is the attempt currently on the air (released back to the
	// arena when its tx-done event fires; nil between attempts).
	frame *packet.Frame
	// attempts
	shortRetries int
	longRetries  int
	useRTS       bool
	seq          uint16
}

// Stats counts MAC-level happenings; read by metrics and tests.
type Stats struct {
	FramesSent    [4]uint64 // indexed by packet.FrameKind
	Delivered     uint64
	Duplicates    uint64
	LinkFailures  uint64
	QueueDrops    uint64
	Retries       uint64
	ResponsesSent uint64
}

// Mac is one node's 802.11 DCF instance.
type Mac struct {
	id      packet.NodeID
	sched   *sim.Scheduler
	radio   *phy.Radio
	channel *phy.Channel
	cfg     Config
	up      Upper
	rng     *sim.RNG
	uids    *packet.UIDSource

	queue []*txJob
	cur   *txJob
	state jobState
	cw    int

	backoffSlots int
	backoffStart sim.Time

	difsEvent    sim.TaskHandle
	backoffEvent sim.TaskHandle
	timeoutEvent sim.TaskHandle
	navEvent     sim.TaskHandle

	// ctsJob snapshots the job a post-CTS data transmission was scheduled
	// for, so the SIFS-deferred send can detect job abandonment.
	ctsJob *txJob

	jobPool  sim.Pool[txJob]   // recycled interface-queue jobs
	respPool sim.Pool[respJob] // recycled CTS/ACK response state

	// arena pools packets and frames for the whole run; may be nil
	// (hand-assembled test stacks), in which case every release is a
	// no-op and frames are plain allocations.
	arena *packet.Arena
	// resps tracks scheduled/in-flight CTS-or-ACK responses so Retire can
	// account for their frames at the run horizon.
	resps []*respJob

	nav        sim.Time
	responding int // scheduled or in-flight CTS/ACK responses

	seqCounter uint16
	dupCache   map[packet.NodeID]uint16

	// Tap, when set, sees every successfully decoded frame before address
	// filtering — promiscuous mode. node.Node sets it from its Tap stages.
	Tap func(f *packet.Frame)
	// OnSend, when set, sees every frame this MAC puts on the air.
	// node.Node sets it from its Aired stages.
	OnSend func(f *packet.Frame)

	Stats Stats
}

// New creates a MAC bound to a radio on the given channel. The caller must
// register the returned MAC as the radio's listener (the scenario builder
// does this by attaching the radio with the MAC as listener; see node.New).
func New(id packet.NodeID, sched *sim.Scheduler, ch *phy.Channel, cfg Config, up Upper, rng *sim.RNG, uids *packet.UIDSource) *Mac {
	return &Mac{
		id:       id,
		sched:    sched,
		channel:  ch,
		cfg:      cfg,
		up:       up,
		rng:      rng,
		uids:     uids,
		cw:       cfg.CWMin,
		dupCache: make(map[packet.NodeID]uint16),
	}
}

// BindRadio attaches the radio this MAC transmits and receives through.
// Must be called exactly once before the simulation starts.
func (m *Mac) BindRadio(r *phy.Radio) {
	m.radio = r
	m.setState(m.state) // publish the radio's quiet flag
}

// setState is the one writer of m.state. It keeps the radio's quiet flag
// current: EnergyUp acts only for a contending MAC, and EnergyDown's
// reconsider acts only for a contending MAC or an idle one with a queued
// job — and an idle MAC never keeps a queued job past the reconsider that
// follows every enqueue and every return to idle. So every other state is
// quiet, and the channel may skip both callbacks
// (TestSkippedEnergyEdgesNeverAct checks that no skipped one would act).
func (m *Mac) setState(s jobState) {
	m.state = s
	m.radio.SetQuiet(s != stContend)
}

// SetArena binds the run's packet arena. Must be set (if at all) before
// any traffic; the node wires it for scenario-built stacks.
func (m *Mac) SetArena(a *packet.Arena) { m.arena = a }

// propHold is how long released frames and broadcast payloads stay
// quarantined: the upper bound on any arrival still propagating.
func (m *Mac) propHold() sim.Duration { return m.channel.MaxPropDelay() }

// releaseJobFrame retires the frame of the job's just-completed attempt.
func (m *Mac) releaseJobFrame(j *txJob) {
	if j == nil || j.frame == nil {
		return
	}
	m.arena.ReleaseFrameAfter(j.frame, m.propHold())
	j.frame = nil
}

// Timer kinds dispatched through the MAC's sim.Task implementation. All
// MAC timers are task events on the Mac itself rather than closures: the
// 802.11 state machine arms and revokes timers on every frame, so a
// captured closure per timer would dominate the simulator's allocation
// profile.
const (
	macNavExpire = iota
	macDIFSDone
	macBackoffDone
	macCTSTimeout
	macAckTimeout
	macTxDoneRTS
	macTxDoneData
	macTxDoneBroadcast
	macSendAfterCTS
)

// Run implements sim.Task, dispatching the MAC's timer events.
func (m *Mac) Run(arg int) {
	switch arg {
	case macNavExpire:
		m.navEvent = sim.TaskHandle{}
		m.reconsider()
	case macDIFSDone:
		m.difsEvent = sim.TaskHandle{}
		m.backoffStart = m.sched.Now()
		m.backoffEvent = m.sched.AfterTask(
			sim.Duration(m.backoffSlots)*m.cfg.SlotTime, m, macBackoffDone)
	case macBackoffDone:
		m.backoffEvent = sim.TaskHandle{}
		m.onBackoffDone()
	case macCTSTimeout:
		m.timeoutEvent = sim.TaskHandle{}
		m.onCTSTimeout()
	case macAckTimeout:
		m.timeoutEvent = sim.TaskHandle{}
		m.onAckTimeout()
	case macTxDoneRTS:
		m.releaseJobFrame(m.cur)
		m.setState(stWaitCTS)
		timeout := m.cfg.SIFS + m.ctsAirtime() + 2*maxPropSlack + m.cfg.SlotTime
		m.timeoutEvent = m.sched.AfterTask(timeout, m, macCTSTimeout)
	case macTxDoneData:
		m.releaseJobFrame(m.cur)
		m.setState(stWaitAck)
		timeout := m.cfg.SIFS + m.ackAirtime() + 2*maxPropSlack + m.cfg.SlotTime
		m.timeoutEvent = m.sched.AfterTask(timeout, m, macAckTimeout)
	case macTxDoneBroadcast:
		if j := m.cur; j != nil {
			// A broadcast has no MAC-ACK: the payload dies with the
			// transmission, but its arrivals are still propagating, so it
			// goes through the quarantine rather than straight to reuse.
			m.releaseJobFrame(j)
			m.arena.ReleaseAfter(j.pkt, m.propHold())
			j.pkt = nil
		}
		m.finishJob()
	case macSendAfterCTS:
		job := m.ctsJob
		m.ctsJob = nil
		if job == nil || m.cur != job {
			return // job was abandoned meanwhile
		}
		m.transmitData(job)
	}
}

// acquireJob takes a txJob from the free list (or allocates one).
func (m *Mac) acquireJob(p *packet.Packet, next packet.NodeID) *txJob {
	j := m.jobPool.Get()
	j.pkt, j.next = p, next
	return j
}

// releaseJob recycles a finished/dropped job. Any snapshot pointer to it is
// cleared first so a recycled struct can never alias a live comparison.
func (m *Mac) releaseJob(j *txJob) {
	if m.ctsJob == j {
		m.ctsJob = nil
	}
	m.jobPool.Put(j)
}

// Retire releases every packet and frame still in the MAC's custody —
// the interface queue, the in-flight job and any scheduled CTS/ACK
// responses — back to the arena. End-of-run accounting only: the MAC must
// not carry traffic afterwards (the next run rebuilds its node).
func (m *Mac) Retire() {
	if j := m.cur; j != nil {
		m.cur = nil
		m.releaseJobFrame(j)
		m.arena.Release(j.pkt)
		m.releaseJob(j)
	}
	for i, j := range m.queue {
		m.arena.Release(j.pkt)
		m.releaseJob(j)
		m.queue[i] = nil
	}
	m.queue = m.queue[:0]
	for len(m.resps) > 0 {
		r := m.resps[0]
		m.arena.ReleaseFrame(r.f)
		m.releaseResp(r) // removes r from m.resps
	}
}

// ID returns the node ID this MAC serves.
func (m *Mac) ID() packet.NodeID { return m.id }

// QueueLen returns the current interface-queue depth (tests, stats).
func (m *Mac) QueueLen() int { return len(m.queue) }
