// Package phy models the shared wireless medium: a unit-disc radio channel
// with configurable receive and carrier-sense ranges, signal propagation
// delay, half-duplex radios, and a receiver-side collision model.
//
// Model (documented substitution for ns-2's two-ray ground propagation):
//
//   - A frame is decodable by radios within RxRange of the transmitter at
//     the moment transmission starts (positions change negligibly during a
//     frame's ~1 ms airtime).
//   - Radios within CSRange sense energy (physical carrier sense) but
//     cannot decode beyond RxRange.
//   - Two frames overlapping in time at a receiver, both within RxRange,
//     corrupt each other (no capture effect). Energy from the
//     (RxRange, CSRange] ring defers transmitters but does not corrupt.
//   - A radio that is transmitting cannot receive (half duplex).
//   - All receivers of one transmission share a single propagation delay:
//     the distance of the farthest carrier-sensing radio over PropSpeed
//     (so it is still bounded by MaxPropDelay). Per-receiver delays would
//     differ by under 2 µs across a 550 m neighbourhood — an order of
//     magnitude below the 20 µs slot time that quantises every MAC
//     decision — and a common delay lets the channel deliver a whole
//     neighbourhood with two scheduler events instead of 2·k (see
//     "Arrival batching" below and docs/PAPER_MAP.md for the divergence
//     note).
//
// # Arrival batching
//
// Transmit resolves its audience once and records it in a pooled per-
// transmission arrival batch: three bitsets over radio index, marking the
// radios in carrier-sense range (cs), those that can decode (dec) and the
// DropFrame verdicts (drop). Two scheduler events per transmission (one
// batched first-bit, one batched last-bit) then walk the batch in radio-
// index order, so the scheduler's heap sees ~k× fewer inserts than one
// event pair per receiver. The reference mode behind UseUnbatchedArrivals
// schedules a first-bit and a last-bit event per carrier-sensing receiver,
// keyed by radio index, over the same batch; because all first-bit events
// share one timestamp and consecutive insertion sequences (and likewise
// the last-bit events), the two modes dispatch in exactly the same order
// and are byte-identical — that equivalence is what the property tests
// pin.
//
// A radio whose listener declares itself quiet (SetQuiet: EnergyUp and
// EnergyDown would both do nothing — for the MAC, any state but
// contention) costs a walk nothing unless it can decode: each walk visits
// only the radios in cs & (dec | loud), where loud marks the radios that
// are not quiet, and it re-reads the loud word after every callback. A
// quiet radio that can decode still gets its reception and RxEnd, and the
// channel reads the flag for the last-bit EnergyDown only after RxEnd
// returns, since RxEnd can start contention.
//
// Only a loud radio keeps an explicit energy count. A quiet radio's count
// is implicit in the batches in flight: each batch keeps a cursor per
// walk, and counts for radio i once its first-bit walk has passed i and
// until its last-bit walk reaches i. Energy and Busy count that way for a
// quiet radio, and SetQuiet(false) recounts so, so nothing a listener can
// observe changes.
//
// # Receiver lookup
//
// Transmit resolves its audience from a uniform-grid spatial index
// (geo.Grid) instead of scanning every attached radio, so the cost of one
// transmission scales with the neighbourhood size, not the population. The
// grid holds a position snapshot per radio; snapshots of moving radios are
// refreshed lazily on a coarse epoch chosen so that the possible drift
// since the last refresh stays below a slack. The receiver set and the
// propagation delay are still bit-for-bit those of a full scan (the linear
// reference path is kept, behind UseLinearScan, for equivalence tests).
//
// A mover's snapshot is never more than the slack (1 % of CSRange) plus a
// margin from its true position. The margin is 1 µm for float rounding plus
// the fastest mover's top speed times 1 µs, which covers the nanosecond
// truncation of up to a thousand waypoint legs ending within one refresh
// epoch. Both ends of a link may drift, so a pair's snapshot distance is
// within e of its true distance, where e is the slack plus the margin for
// each end that moves: two of them between movers, none between stationary
// radios, and none at all when the slack is zero (every snapshot is then
// exact: refresh at every transmission, or nothing moves).
//
// Every snapshot write (a refresh, Attach, SetMaxSpeed) starts a new
// snapshot generation. A transmitter classifies its neighbours once per
// generation, from its own snapshot: surely decodable (snapshot
// distance below RxRange−e), surely carrier-sense only (above RxRange+e
// and below CSRange−e), or uncertain (within e of either edge); radios
// beyond CSRange+e are out. A frame copies the sure classes into its batch
// and pays an exact position only for the uncertain neighbours and for the
// sure ones that might be the farthest receiver — within twice the largest
// pair error of the largest sure snapshot distance — since the farthest
// receiver's exact distance sets the batch's propagation delay. So the
// delay stays bit-exact.
//
// Fill order is observable: the scheduler breaks timestamp ties by
// insertion sequence and a batch delivers in its bit order, so receivers
// are visited in radio-index (attach) order, exactly as the linear scan
// visits them, and DropFrame is consulted in that order too.
package phy

import (
	"math"
	"math/bits"

	"mtsim/internal/geo"
	"mtsim/internal/packet"
	"mtsim/internal/sim"
)

// Listener is the MAC-side interface a Radio reports to.
type Listener interface {
	// EnergyUp is called when the number of in-CS-range transmissions
	// rises from zero: the medium became busy.
	EnergyUp()
	// EnergyDown is called when the medium becomes idle again.
	EnergyDown()
	// RxEnd delivers a frame whose last bit has arrived. ok is false if
	// the frame was corrupted by a collision. Every decodable frame is
	// delivered (even corrupted ones) so the MAC can apply EIFS rules.
	RxEnd(f *packet.Frame, ok bool)
}

// Radio is one node's attachment to the channel.
type Radio struct {
	ID  packet.NodeID
	pos func(sim.Time) geo.Point
	lis Listener
	ch  *Channel
	idx int32 // index in ch.radios; doubles as the spatial-grid id

	// maxSpeed bounds how fast the radio can move (m/s); it controls how
	// stale the radio's grid snapshot may become. +Inf means unknown
	// (raw Attach), which forces exact per-transmit snapshot refresh.
	maxSpeed float64

	// Position memo: pos(t) is pure in t for a fixed trajectory, and many
	// queries land on the same timestamp (every receiver check of one
	// transmission), so one evaluation per (radio, time) suffices.
	posKnown bool
	posTime  sim.Time
	posCache geo.Point

	txEnd  sim.Time // end of the radio's latest transmission; sending while now < txEnd
	energy int      // in-CS-range transmissions on air; kept only while loud (see Energy)
	quiet  bool     // listener ignores energy edges; see SetQuiet

	// current decode in progress (nil if none)
	rx *reception

	nb neighbours // this radio's neighbour classes as a transmitter

	// Stats
	FramesSent     uint64
	FramesDecoded  uint64
	FramesCollided uint64
}

type reception struct {
	frame    *packet.Frame
	collided bool
}

// neighbours is a transmitter's neighbour classes for one snapshot
// generation (see "Receiver lookup"). cs and dec are bitsets over radio
// index.
type neighbours struct {
	gen uint64
	cs  []uint64 // surely in carrier-sense range
	dec []uint64 // surely decodable (a subset of cs)
	n   int      // radios in cs
	unc []int32  // uncertain: an exact position decides
	far []int32  // in cs, and possibly the farthest receiver
}

// positionAt returns the radio's position at t, memoised per timestamp.
func (r *Radio) positionAt(t sim.Time) geo.Point {
	if !r.posKnown || r.posTime != t {
		r.posCache = r.pos(t)
		r.posTime = t
		r.posKnown = true
	}
	return r.posCache
}

// SetMaxSpeed declares an upper bound on the radio's movement speed in
// m/s. 0 marks the radio stationary (its grid snapshot is never refreshed);
// any finite bound lets the channel refresh snapshots on a coarse epoch
// instead of at every transmission. Radios attach with an unknown (+Inf)
// bound, which is always safe.
func (r *Radio) SetMaxSpeed(v float64) {
	if v < 0 {
		panic("phy: negative max speed")
	}
	r.maxSpeed = v
	r.ch.policyDirty = true
	// Re-snapshot immediately: a radio leaving the movers set (v == 0)
	// would otherwise freeze a stale snapshot while the query slack
	// computed for it drops, silently shrinking its receivable range.
	r.ch.grid.Update(r.idx, r.positionAt(r.ch.sched.Now()))
	r.ch.gen++
}

// SetQuiet tells the channel whether the radio's listener currently
// ignores energy edges: while quiet, EnergyUp and EnergyDown must both be
// no-ops, and the channel skips them. A quiet radio keeps no energy count
// of its own; turning loud recounts it from the batches in flight (see
// "Arrival batching"). The listener keeps the flag current at every
// transition of the state its callbacks read. Radios attach quiet only
// when they have no listener.
func (r *Radio) SetQuiet(q bool) {
	if q == r.quiet {
		return
	}
	r.quiet = q
	w, bit := r.idx>>6, uint64(1)<<(r.idx&63)
	if q {
		r.ch.loud[w] &^= bit
		return
	}
	r.ch.loud[w] |= bit
	r.energy = r.ch.recount(r)
}

// Task args for the batched arrival events. Args ≥ unbatchedArgBase encode
// a per-receiver event for the UseUnbatchedArrivals reference mode:
// arg = unbatchedArgBase + 2*radio index + phase (phase 0 first bit, 1 last
// bit).
const (
	batchStartArg    = 0
	batchEndArg      = 1
	unbatchedArgBase = 2
)

// arrivalBatch carries one transmission's whole audience as bitsets over
// radio index, all fixed at transmit time — range is evaluated when the
// first bit leaves the antenna, matching the model note above. It is the
// Task behind both delivery modes: batched (two events walk the bitsets in
// order) and unbatched reference (an event pair per carrier-sensing
// receiver). From Transmit until its last-bit delivery has run, a batch is
// in flight and its cursors count it in quiet radios' energy (see
// "Arrival batching"); then (or at once, when Transmit finds no receiver)
// it parks on the channel's free list with its bitsets kept.
// Batches reference the frame but never own it; frame release stays with
// the MAC's quarantine (the batch's own lifetime is bounded by
// MaxPropDelay + airtime, inside the quarantine hold).
type arrivalBatch struct {
	ch    *Channel
	frame *packet.Frame
	cs    []uint64 // receivers in carrier-sense range
	dec   []uint64 // receivers that can decode (a subset of cs)
	drop  []uint64 // DropFrame verdicts (a subset of dec)
	live  int      // outstanding last-bit events (1 batched, one per receiver unbatched)
	slot  int      // index in ch.inflight, or -1 when parked

	// Walk cursors: the batch counts in radio i's energy while
	// start > i >= end. start passes i when the first-bit walk visits or
	// skips it, end when the last-bit walk does.
	start, end int32
}

// Run implements sim.Task. Both delivery modes walk the same way: the
// batched events over every word of cs, an unbatched event over its one
// receiver's bit.
func (b *arrivalBatch) Run(arg int) {
	switch arg {
	case batchStartArg, batchEndArg:
		first := arg == batchStartArg
		for w, word := range b.cs {
			b.walk(w, word, first)
		}
		if first {
			b.start = math.MaxInt32
		} else {
			b.ch.parkBatch(b)
		}
	default:
		i, first := int32(arg-unbatchedArgBase)/2, (arg-unbatchedArgBase)%2 == 0
		b.walk(int(i>>6), 1<<(i&63), first)
		b.moveCursor(first, i+1) // past the receiver even if skipped
		if !first {
			b.live--
			if b.live == 0 {
				b.ch.parkBatch(b)
			}
		}
	}
}

// moveCursor moves the first-bit (first) or last-bit walk's cursor to
// radio index i: every receiver below it has been passed.
func (b *arrivalBatch) moveCursor(first bool, i int32) {
	if first {
		b.start = i
	} else {
		b.end = i
	}
}

// walk delivers the batch frame's first (or last) bit, in radio-index
// order, to the receivers marked in rest (word w of the bitsets) that can
// decode or are loud, moving the walk's cursor to each one it visits. The
// loud word is re-read after every visit, whose callbacks may change any
// radio's flag.
func (b *arrivalBatch) walk(w int, rest uint64, first bool) {
	ch := b.ch
	full := ch.fullWalk()
	for rest != 0 {
		m := rest
		if !full {
			m &= b.dec[w] | ch.loud[w]
		}
		if m == 0 {
			break
		}
		low := m & -m
		passed := rest & (low<<1 - 1) // this receiver and every one skipped below it
		rest &^= passed
		i := int32(w<<6 | bits.TrailingZeros64(m))
		if ch.OnPass != nil {
			b.pass(w, passed&^low, first)
		}
		b.moveCursor(first, i+1)
		b.visit(i, first)
	}
	if rest != 0 && ch.OnPass != nil {
		b.pass(w, rest, first)
	}
}

// pass moves the walk's cursor past each skipped receiver marked in word
// w of the bitsets in turn, reporting it to OnPass.
func (b *arrivalBatch) pass(w int, skipped uint64, first bool) {
	for ; skipped != 0; skipped &= skipped - 1 {
		i := int32(w<<6 | bits.TrailingZeros64(skipped))
		b.moveCursor(first, i+1)
		b.ch.OnPass(b.ch.radios[i], first)
	}
}

// visit delivers the batch frame's first or last bit to radio i, whose
// cursor the walk has just moved. A loud radio's count moves and it gets
// its energy edge; a quiet one's count is implicit. On the last bit the
// quiet flag is read again after endDecode, whose RxEnd can start
// contention (and, if it does, recounts without this batch).
func (b *arrivalBatch) visit(i int32, first bool) {
	ch := b.ch
	rcv := ch.radios[i]
	w, bit := i>>6, uint64(1)<<(i&63)
	if first {
		if !rcv.quiet {
			rcv.energy++
			if rcv.energy == 1 {
				rcv.lis.EnergyUp()
			}
		} else if ch.OnSkippedEdge != nil && ch.recount(rcv) == 1 {
			ch.OnSkippedEdge(rcv, true)
		}
		if b.dec[w]&bit != 0 {
			ch.startDecode(rcv, b.frame, b.drop[w]&bit != 0)
		}
	} else {
		if !rcv.quiet {
			rcv.energy--
		}
		if b.dec[w]&bit != 0 {
			ch.endDecode(rcv, b.frame)
		}
		if !rcv.quiet {
			if rcv.energy == 0 {
				rcv.lis.EnergyDown()
			}
		} else if ch.OnSkippedEdge != nil && ch.recount(rcv) == 0 {
			ch.OnSkippedEdge(rcv, false)
		}
	}
	if ch.OnPass != nil {
		ch.OnPass(rcv, first)
	}
}

// Channel is the shared medium connecting all radios.
type Channel struct {
	sched   *sim.Scheduler
	radios  []*Radio
	RxRange float64 // metres, decodable
	CSRange float64 // metres, senseable
	// PropSpeed is the signal propagation speed in metres/second.
	PropSpeed float64
	// DropFrame, when non-nil, is consulted once per decodable receiver at
	// transmit time (when the arrival batch is filled), in radio-index
	// order; returning true force-corrupts that delivery. Used by tests to
	// inject losses on specific links.
	DropFrame func(f *packet.Frame, to packet.NodeID) bool
	// OnSkippedEdge, when non-nil, is called for every EnergyUp (up) or
	// EnergyDown the channel skips because the radio was quiet. Used by
	// tests to check that no skipped callback would have acted.
	OnSkippedEdge func(r *Radio, up bool)
	// OnPass, when non-nil, is called as a frame's first-bit (first) or
	// last-bit walk passes a receiver in carrier-sense range: after
	// visiting it, or on skipping it (quiet and unable to decode), once the
	// walk's cursor is past it. Used by tests to keep a shadow of every
	// radio's energy count. It does not change which receivers a walk
	// visits; OnSkippedEdge, while set, makes the walks visit every one.
	OnPass func(r *Radio, first bool)

	// Spatial index over radio position snapshots.
	grid        *geo.Grid
	gen         uint64    // snapshot generation: bumped by every snapshot write
	hits        []geo.Hit // reusable WithinRangeHits buffer
	movers      []*Radio  // radios whose snapshots go stale (maxSpeed > 0)
	policyDirty bool      // movers/epoch need recomputation
	slack       float64   // max snapshot drift of a mover, metres
	margin      float64   // pad on every snapshot bound, metres
	epoch       sim.Duration
	nextRefresh sim.Time
	exact       bool // refresh every transmit (some radio has unknown speed)

	nbSlab []uint64 // unused words for neighbour-class bitsets

	// loud marks, by radio index, the radios that are not quiet.
	loud []uint64
	// inflight holds the batches whose cursors count in quiet radios'
	// energy: each from Transmit until its last-bit walk ends.
	inflight []*arrivalBatch

	// linear switches Transmit to the O(N) scan over all radios — the
	// reference implementation the grid path must match bit-for-bit.
	linear bool
	// unbatched switches delivery to an individual arrival event pair per
	// receiver over the same batch — the reference for the batched path.
	unbatched bool

	batchFree []*arrivalBatch     // parked batches (bitsets kept)
	recPool   sim.Pool[reception] // recycled receptions (decode state)
}

// DefaultRxRange and DefaultCSRange follow the paper (250 m transmission
// range) and the ns-2 default carrier-sense ratio (2.2x).
const (
	DefaultRxRange   = 250.0
	DefaultCSRange   = 550.0
	defaultPropSpeed = 3e8
)

// slackFraction sizes a mover's maximum snapshot drift as a share of
// CSRange. A smaller slack refreshes snapshots more often but lets a
// snapshot decide more receivers (see "Receiver lookup").
const slackFraction = 0.01

// A mover can drift a little past the slack, and every snapshot bound is
// padded by a margin that covers it: snapMargin (metres) for float
// rounding, plus the distance the fastest mover covers in legTravel
// (seconds). Waypoint leg times are truncated to whole nanoseconds, so
// each leg end can carry a mover up to its top speed times 1 ns past the
// drift bound; legTravel allows a thousand leg ends in one refresh epoch,
// in which a mover travels only the slack.
const (
	snapMargin = 1e-6
	legTravel  = 1000e-9
)

// NewChannel creates an empty channel whose receiver-lookup index covers
// field. Radios may stand or wander outside it; the index clamps them to
// its edge cells, which affects only query cost, never the result. The
// cells are CSRange wide, so a range query touches a 3×3 cell block; a
// zero-range channel (nothing is ever in range) gets 1 m cells.
func NewChannel(sched *sim.Scheduler, rxRange, csRange float64, field geo.Rect) *Channel {
	if csRange < rxRange {
		csRange = rxRange
	}
	cell := csRange
	if cell <= 0 {
		cell = 1
	}
	return &Channel{
		sched:     sched,
		RxRange:   rxRange,
		CSRange:   csRange,
		PropSpeed: defaultPropSpeed,
		grid:      geo.NewGrid(field, cell),
	}
}

// fullWalk reports whether the walks must visit every carrier-sensing
// receiver, so that OnSkippedEdge sees every skipped edge.
func (c *Channel) fullWalk() bool { return c.OnSkippedEdge != nil }

// getBatch takes the most recently parked batch, or allocates one, with
// bitsets one word per 64 attached radios.
func (c *Channel) getBatch() *arrivalBatch {
	var b *arrivalBatch
	if n := len(c.batchFree); n == 0 {
		b = &arrivalBatch{ch: c, slot: -1}
	} else {
		b = c.batchFree[n-1]
		c.batchFree[n-1] = nil
		c.batchFree = c.batchFree[:n-1]
	}
	if w := len(c.loud); len(b.cs) != w {
		buf := make([]uint64, 3*w)
		b.cs, b.dec, b.drop = buf[:w:w], buf[w:2*w:2*w], buf[2*w:]
	}
	return b
}

// parkBatch takes a batch out of flight, clears its frame reference and
// returns it to the free list with its bitsets kept.
func (c *Channel) parkBatch(b *arrivalBatch) {
	if b.slot >= 0 {
		last := c.inflight[len(c.inflight)-1]
		last.slot = b.slot
		c.inflight[b.slot] = last
		c.inflight[len(c.inflight)-1] = nil
		c.inflight = c.inflight[:len(c.inflight)-1]
		b.slot = -1
	}
	b.frame = nil
	b.live = 0
	c.batchFree = append(c.batchFree, b)
}

// recount derives r's energy count from the batches in flight: those whose
// first-bit walk has passed r and whose last-bit walk has not reached it.
func (c *Channel) recount(r *Radio) int {
	w, bit := r.idx>>6, uint64(1)<<(r.idx&63)
	n := 0
	for _, b := range c.inflight {
		if int(w) < len(b.cs) && b.cs[w]&bit != 0 && r.idx < b.start && r.idx >= b.end {
			n++
		}
	}
	return n
}

// UseLinearScan switches Transmit between the grid-indexed receiver lookup
// (default) and the exhaustive scan over all attached radios. The two are
// observably identical; the linear path exists as the reference for
// equivalence and determinism tests.
func (c *Channel) UseLinearScan(on bool) { c.linear = on }

// UseUnbatchedArrivals switches delivery between the batched scheme
// (default: two scheduler events walk the whole arrival batch) and the
// reference scheme that schedules an individual first-bit and last-bit
// event per receiver over the same batch. The two are byte-identical —
// same timestamps, same dispatch order, the same quiet-radio skipping and
// cursor rule — and the unbatched path exists, like UseLinearScan, purely
// as the reference for equivalence tests.
func (c *Channel) UseUnbatchedArrivals(on bool) { c.unbatched = on }

// Attach registers a radio for a node whose position over time is given by
// pos. The listener (the node's MAC) must be set before any transmission
// can reach the radio.
func (c *Channel) Attach(id packet.NodeID, pos func(sim.Time) geo.Point, lis Listener) *Radio {
	r := &Radio{
		ID:       id,
		pos:      pos,
		lis:      lis,
		ch:       c,
		idx:      int32(len(c.radios)),
		maxSpeed: math.Inf(1),
		quiet:    true,
	}
	c.radios = append(c.radios, r)
	for 64*len(c.loud) < len(c.radios) {
		c.loud = append(c.loud, 0)
	}
	r.SetQuiet(lis == nil)
	c.grid.Update(r.idx, r.positionAt(c.sched.Now()))
	c.policyDirty = true
	c.gen++
	return r
}

// Radios returns all attached radios (scenario introspection).
func (c *Channel) Radios() []*Radio { return c.radios }

// PositionOf returns the current position of a radio.
func (c *Channel) PositionOf(r *Radio) geo.Point { return r.positionAt(c.sched.Now()) }

// Energy returns the number of in-CS-range transmissions whose energy is
// currently on air at the radio: its own count while loud, derived from
// the batches in flight while quiet.
func (r *Radio) Energy() int {
	if r.quiet {
		return r.ch.recount(r)
	}
	return r.energy
}

// Busy reports whether the radio currently senses energy or is transmitting;
// exposed for the MAC's carrier-sense checks. A loud radio reads its own
// count; a quiet one (which the MAC never asks) counts the batches in
// flight.
func (r *Radio) Busy() bool { return r.Energy() > 0 || r.Transmitting() }

// Transmitting reports whether the radio is within its latest airtime.
func (r *Radio) Transmitting() bool { return r.ch.sched.Now() < r.txEnd }

// recomputePolicy derives the snapshot-refresh schedule from the attached
// radios' speed bounds: stationary radios are never refreshed, bounded
// radios on an epoch sized so drift stays under the slack (plus the
// margin, which grows with the top speed), and any radio with an unknown
// bound forces exact (per-transmit) refresh.
func (c *Channel) recomputePolicy() {
	c.policyDirty = false
	c.movers = c.movers[:0]
	maxKnown := 0.0
	c.exact = false
	for _, r := range c.radios {
		if r.maxSpeed == 0 {
			continue
		}
		c.movers = append(c.movers, r)
		if math.IsInf(r.maxSpeed, 1) {
			c.exact = true
		} else if r.maxSpeed > maxKnown {
			maxKnown = r.maxSpeed
		}
	}
	c.margin = snapMargin + legTravel*maxKnown
	switch {
	case c.exact || maxKnown == 0:
		// Exact refresh (or nothing moves): every snapshot is exact.
		c.slack = 0
		c.epoch = 0
	default:
		c.slack = slackFraction * c.CSRange
		c.epoch = sim.Seconds(c.slack / maxKnown)
	}
	c.nextRefresh = c.sched.Now() // force a refresh at the next transmit
}

// refreshMovers re-snapshots every non-stationary radio into the grid,
// starting a new snapshot generation when there is any.
func (c *Channel) refreshMovers(now sim.Time) {
	if len(c.movers) == 0 {
		return
	}
	for _, r := range c.movers {
		c.grid.Update(r.idx, r.positionAt(now))
	}
	c.gen++
}

// Transmit puts a frame on the air for the given airtime. The caller (MAC)
// is responsible for medium-access rules; the channel only models physics.
// The sender's own listener receives no callbacks for its own frame; the MAC
// schedules its own tx-done event.
func (c *Channel) Transmit(tx *Radio, f *packet.Frame, airtime sim.Duration) {
	now := c.sched.Now()
	tx.txEnd = now.Add(airtime)
	tx.FramesSent++

	// Transmitting corrupts any decode in progress at the sender
	// (half duplex).
	if tx.rx != nil {
		tx.rx.collided = true
	}

	txPos := tx.positionAt(now)
	cs2 := c.CSRange * c.CSRange
	rx2 := c.RxRange * c.RxRange

	b := c.getBatch()
	b.frame = f
	n, maxD2 := 0, 0.0

	if c.linear {
		clear(b.cs)
		clear(b.dec)
		for _, rcv := range c.radios {
			if rcv != tx {
				d2 := rcv.positionAt(now).DistanceSqTo(txPos)
				n, maxD2 = b.add(rcv.idx, d2, cs2, rx2, n, maxD2)
			}
		}
	} else {
		if c.policyDirty {
			c.recomputePolicy()
		}
		if c.exact || now >= c.nextRefresh {
			c.refreshMovers(now)
			if !c.exact {
				c.nextRefresh = now.Add(c.epoch)
			}
		}
		nb := &tx.nb
		if nb.gen != c.gen {
			c.classify(tx)
		}
		copy(b.cs, nb.cs)
		copy(b.dec, nb.dec)
		n = nb.n
		for _, id := range nb.unc {
			d2 := c.radios[id].positionAt(now).DistanceSqTo(txPos)
			n, maxD2 = b.add(id, d2, cs2, rx2, n, maxD2)
		}
		// A sure receiver outside far is nearer than one inside it, so its
		// exact distance cannot raise the maximum.
		for _, id := range nb.far {
			if d2 := c.radios[id].positionAt(now).DistanceSqTo(txPos); d2 > maxD2 {
				maxD2 = d2
			}
		}
	}

	clear(b.drop)
	if c.DropFrame != nil {
		for w, word := range b.dec {
			for ; word != 0; word &= word - 1 {
				i := w<<6 | bits.TrailingZeros64(word)
				if c.DropFrame(f, c.radios[i].ID) {
					b.drop[w] |= 1 << (i & 63)
				}
			}
		}
	}

	if n == 0 {
		c.parkBatch(b) // empty neighbourhood: no events at all
		return
	}
	prop := sim.Duration(0)
	if c.PropSpeed > 0 {
		prop = sim.Seconds(math.Sqrt(maxD2) / c.PropSpeed)
	}
	b.start, b.end = 0, 0
	b.slot = len(c.inflight)
	c.inflight = append(c.inflight, b)
	if c.unbatched {
		b.live = n
		for w, word := range b.cs {
			for ; word != 0; word &= word - 1 {
				i := w<<6 | bits.TrailingZeros64(word)
				c.sched.AfterTask(prop, b, unbatchedArgBase+2*i)
				c.sched.AfterTask(prop+airtime, b, unbatchedArgBase+2*i+1)
			}
		}
		return
	}
	b.live = 1
	c.sched.AfterTask(prop, b, batchStartArg)
	c.sched.AfterTask(prop+airtime, b, batchEndArg)
}

// add marks radio id at exact squared distance d2 from the transmitter as a
// receiver if it is in carrier-sense range, and returns the updated
// receiver count and maximum squared receiver distance — the batch's
// common propagation distance.
func (b *arrivalBatch) add(id int32, d2, cs2, rx2 float64, n int, maxD2 float64) (int, float64) {
	if d2 > cs2 {
		return n, maxD2
	}
	w, bit := id>>6, uint64(1)<<(id&63)
	b.cs[w] |= bit
	if d2 <= rx2 {
		b.dec[w] |= bit
	}
	// d2 is a finite, non-negative squared distance, so a plain comparison
	// matches math.Max bit for bit without its NaN and signed-zero cases.
	if d2 > maxD2 {
		maxD2 = d2
	}
	return n + 1, maxD2
}

// classify rebuilds tx's neighbour classes from the grid snapshots of the
// current generation (see "Receiver lookup").
func (c *Channel) classify(tx *Radio) {
	nb := &tx.nb
	nb.gen = c.gen
	if w := len(c.loud); len(nb.cs) != w {
		// Carve the bitsets from a slab sized for every radio: one
		// allocation per channel rather than one per transmitter.
		if len(c.nbSlab) < 2*w {
			c.nbSlab = make([]uint64, 2*w*len(c.radios))
		}
		nb.cs, nb.dec, c.nbSlab = c.nbSlab[:w:w], c.nbSlab[w:2*w:2*w], c.nbSlab[2*w:]
	} else {
		clear(nb.cs)
		clear(nb.dec)
	}
	nb.n = 0

	// drift is the snapshot error of one moving end; a pair's error is
	// the sum over its ends.
	drift := 0.0
	if c.slack > 0 {
		drift = c.slack + c.margin
	}
	eTx := 0.0
	if tx.maxSpeed != 0 {
		eTx = drift
	}
	still, moving := newBands(c.RxRange, c.CSRange, eTx), newBands(c.RxRange, c.CSRange, eTx+drift)
	p, _ := c.grid.Position(tx.idx)
	c.hits = c.grid.WithinRangeHits(p, c.CSRange+eTx+drift, c.hits[:0])
	// unc and far share one array, sized so that neither append moves it.
	ids := nb.unc[:0]
	if cap(ids) < len(c.hits) {
		ids = make([]int32, 0, len(c.hits))
	}
	farD2 := -1.0
	for _, h := range c.hits {
		if h.ID == tx.idx {
			continue
		}
		d2 := h.P.DistanceSqTo(p)
		bd := &still
		if c.radios[h.ID].maxSpeed != 0 {
			bd = &moving
		}
		switch {
		case d2 > bd.out2:
		case d2 >= bd.csIn2 || d2 >= bd.rxIn2 && d2 <= bd.rxOut2:
			ids = append(ids, h.ID)
		default:
			w, bit := h.ID>>6, uint64(1)<<(h.ID&63)
			nb.cs[w] |= bit
			if d2 < bd.rxIn2 {
				nb.dec[w] |= bit
			}
			nb.n++
			if d2 > farD2 {
				farD2 = d2
			}
		}
	}
	nb.unc, nb.far = ids, ids[len(ids):]
	if farD2 < 0 {
		return
	}
	// A sure receiver whose snapshot distance is more than twice the
	// largest pair error below farD2 is nearer than the one at farD2,
	// wherever both drifted to.
	cut2 := farD2
	if e := eTx + drift; e > 0 {
		cut2 = sqOrNone(math.Sqrt(farD2) - 2*e)
	}
	for _, h := range c.hits {
		if h.ID != tx.idx && nb.cs[h.ID>>6]&(1<<(h.ID&63)) != 0 && h.P.DistanceSqTo(p) >= cut2 {
			ids = append(ids, h.ID)
		}
	}
	nb.far = ids[len(nb.unc):]
}

// bands holds the squared snapshot-distance bounds that classify a
// neighbour whose pair error is e: out beyond out2, uncertain from csIn2
// or within [rxIn2, rxOut2], else surely in CS range and decodable below
// rxIn2. With e = 0 the uncertain bands shrink to the two edges.
type bands struct{ out2, csIn2, rxIn2, rxOut2 float64 }

func newBands(rx, cs, e float64) bands {
	return bands{
		out2:   (cs + e) * (cs + e),
		csIn2:  sqOrNone(cs - e),
		rxIn2:  sqOrNone(rx - e),
		rxOut2: (rx + e) * (rx + e),
	}
}

// sqOrNone squares a distance bound, or returns -1 (below every squared
// distance) when the bound is not positive.
func sqOrNone(d float64) float64 {
	if d <= 0 {
		return -1
	}
	return d * d
}

// startDecode begins decoding a decodable frame's first bit at rcv.
func (c *Channel) startDecode(rcv *Radio, f *packet.Frame, drop bool) {
	if rcv.Transmitting() {
		return // half duplex: cannot begin decode while sending
	}
	if rcv.rx != nil {
		// Overlapping decodable frames: both are lost.
		rcv.rx.collided = true
		rcv.FramesCollided++
		return
	}
	rx := c.recPool.Get()
	rx.frame = f
	rx.collided = drop
	rcv.rx = rx
}

// endDecode completes rcv's decode of f, if it is the frame being decoded,
// and hands it to the listener.
func (c *Channel) endDecode(rcv *Radio, f *packet.Frame) {
	if rcv.rx != nil && rcv.rx.frame == f {
		rx := rcv.rx
		rcv.rx = nil
		ok := !rx.collided
		c.recPool.Put(rx)
		if ok {
			rcv.FramesDecoded++
		} else {
			rcv.FramesCollided++
		}
		if rcv.lis != nil {
			rcv.lis.RxEnd(f, ok)
		}
	}
}

// MaxPropDelay bounds the propagation delay of any delivery this channel
// can schedule (the carrier-sense range at the propagation speed). The
// MAC uses it as the quarantine hold when releasing frames and broadcast
// payloads whose arrivals may still be in flight.
func (c *Channel) MaxPropDelay() sim.Duration {
	if c.PropSpeed <= 0 {
		return 0
	}
	return sim.Seconds(c.CSRange / c.PropSpeed)
}

// InRange reports whether two radios can currently decode each other's
// frames; used by scenario builders and tests for connectivity checks.
func (c *Channel) InRange(a, b *Radio) bool {
	now := c.sched.Now()
	return a.positionAt(now).DistanceSqTo(b.positionAt(now)) <= c.RxRange*c.RxRange
}
