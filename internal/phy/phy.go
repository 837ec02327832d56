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
// Transmit resolves its audience once and records every receiver's view —
// decodability and the forced-corruption verdict — in a pooled per-
// transmission arrival batch. Two scheduler events per transmission (one
// batched first-bit, one batched last-bit) then walk the batch in radio-ID
// order, so the scheduler's heap sees ~k× fewer inserts than the one-
// event-pair-per-receiver scheme this replaces. The reference mode behind
// UseUnbatchedArrivals schedules the historical 2·k individual events over
// the same precomputed batch; because all first-bit events share one
// timestamp and consecutive insertion sequences (and likewise the
// last-bit events), the two modes dispatch in exactly the same order and
// are byte-identical — that equivalence is what the property tests pin.
//
// A radio whose listener declares itself quiet (SetQuiet: EnergyUp and
// EnergyDown would both do nothing — for the MAC, any state but
// contention) costs the walk only its energy count: the channel skips both
// energy callbacks. Busy reads the count, so nothing a listener can observe
// changes. A quiet radio that can decode still gets its reception and
// RxEnd, and the channel reads the flag for the last-bit EnergyDown only
// after RxEnd returns, since RxEnd can start contention.
//
// # Receiver lookup
//
// Transmit resolves its audience through a uniform-grid spatial index
// (geo.Grid) instead of scanning every attached radio, so the cost of one
// transmission scales with the neighbourhood size, not the population. The
// grid holds a position snapshot per radio; snapshots of moving radios are
// refreshed lazily on a coarse epoch chosen so that the possible drift
// since the last refresh stays below a slack, and every query is inflated
// by that slack plus a margin (below). Candidates returned by the grid
// are then decided so that the delivered receiver set is bit-for-bit
// identical to a full scan (the linear reference path is kept, behind
// UseLinearScan, for equivalence tests).
//
// A snapshot decides most receivers on its own. A mover's snapshot is never
// more than the slack (1 % of CSRange) plus a margin from its true
// position. The margin is 1 µm for float rounding plus the fastest
// mover's top speed times 1 µs, which covers the nanosecond truncation of
// up to a thousand waypoint legs ending within one refresh epoch. So a
// candidate whose snapshot distance is further than the slack plus the
// margin from both the Rx and the CS edge has the classification the
// exact distance would give. Its exact position is still needed when it
// might be the farthest carrier-sensing receiver, whose exact distance
// sets the batch's propagation delay: so a snapshot decides only
// candidates more than two slacks plus two margins nearer than the
// farthest candidate that is surely in CS range. Only the rest —
// near an edge or near the farthest — pay for an exact position, and the
// delay stays bit-exact. Stationary radios' snapshots are exact, as are
// all snapshots when the slack is zero (refresh at every transmission).
//
// Fill order is observable: the scheduler breaks timestamp ties by
// insertion sequence and a batch delivers in fill order, so receivers must
// enter the batch in radio-index (attach) order, exactly as the linear
// scan visits them. The grid returns candidates in cell order, so Transmit
// marks them in a bitset over radio indices and walks its set bits upward
// — an ID-ordered fill with no comparison sort.
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
	energy int      // count of in-CS-range transmissions currently on air
	quiet  bool     // listener ignores energy edges; see SetQuiet

	// current decode in progress (nil if none)
	rx *reception

	// Stats
	FramesSent     uint64
	FramesDecoded  uint64
	FramesCollided uint64
}

type reception struct {
	frame    *packet.Frame
	collided bool
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
	if r.ch.grid != nil {
		r.ch.grid.Update(r.idx, r.positionAt(r.ch.sched.Now()))
	}
}

// SetQuiet tells the channel whether the radio's listener currently
// ignores energy edges: while quiet, EnergyUp and EnergyDown must both be
// no-ops, and the channel skips them (the energy count, which Busy reads,
// is kept either way). The listener keeps the flag current at every
// transition of the state its callbacks read. Radios attach quiet only
// when they have no listener.
func (r *Radio) SetQuiet(q bool) { r.quiet = q }

// Task args for the batched arrival events. Args ≥ unbatchedArgBase encode
// a per-receiver event for the UseUnbatchedArrivals reference mode:
// arg = unbatchedArgBase + 2*index + phase (phase 0 first bit, 1 last bit).
const (
	batchStartArg    = 0
	batchEndArg      = 1
	unbatchedArgBase = 2
)

// batchRx is one receiver's precomputed view inside an arrivalBatch: the
// radio, whether the frame is decodable at its position, and the DropFrame
// verdict. All of it is fixed at transmit time — range is evaluated when
// the first bit leaves the antenna, matching the model note above.
type batchRx struct {
	rcv       *Radio
	decodable bool
	drop      bool
}

// arrivalBatch carries one transmission's whole audience. It is the Task
// behind both delivery modes: batched (two events walk rx in order) and
// unbatched reference (2·len(rx) events index into rx one receiver at a
// time). After its last-bit delivery has run (or at once, when Transmit
// finds no receiver) a batch parks on the channel's free list with its
// receiver slice's capacity kept.
// Batches reference the frame but never own it; frame release stays with
// the MAC's quarantine (the batch's own lifetime is bounded by
// MaxPropDelay + airtime, inside the quarantine hold).
type arrivalBatch struct {
	ch    *Channel
	frame *packet.Frame
	rx    []batchRx
	live  int // outstanding last-bit events (1 batched, len(rx) unbatched)
}

// Run implements sim.Task. A quiet receiver's energy edges are skipped (see
// "Arrival batching").
func (b *arrivalBatch) Run(arg int) {
	switch arg {
	case batchStartArg:
		b.arriveStart(b.rx)
	case batchEndArg:
		b.arriveEnd(b.rx)
		b.ch.parkBatch(b)
	default:
		i, phase := (arg-unbatchedArgBase)/2, (arg-unbatchedArgBase)%2
		if phase == 0 {
			b.arriveStart(b.rx[i : i+1])
			return
		}
		b.arriveEnd(b.rx[i : i+1])
		b.live--
		if b.live == 0 {
			b.ch.parkBatch(b)
		}
	}
}

// arriveStart delivers the batch frame's first bit to each receiver in rx.
func (b *arrivalBatch) arriveStart(rx []batchRx) {
	ch := b.ch
	for i := range rx {
		e := &rx[i]
		rcv := e.rcv
		rcv.energy++
		if rcv.energy == 1 {
			if !rcv.quiet {
				rcv.lis.EnergyUp()
			} else if ch.OnSkippedEdge != nil {
				ch.OnSkippedEdge(rcv, true)
			}
		}
		if e.decodable {
			ch.startDecode(rcv, b.frame, e.drop)
		}
	}
}

// arriveEnd delivers the batch frame's last bit to each receiver in rx. A
// receiver's quiet flag is read after endDecode, whose RxEnd can start
// contention.
func (b *arrivalBatch) arriveEnd(rx []batchRx) {
	ch := b.ch
	for i := range rx {
		e := &rx[i]
		rcv := e.rcv
		rcv.energy--
		if e.decodable {
			ch.endDecode(rcv, b.frame)
		}
		if rcv.energy == 0 {
			if !rcv.quiet {
				rcv.lis.EnergyDown()
			} else if ch.OnSkippedEdge != nil {
				ch.OnSkippedEdge(rcv, false)
			}
		}
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
	// transmit time (when the arrival batch is filled); returning true
	// force-corrupts that delivery. Used by tests to inject losses on
	// specific links.
	DropFrame func(f *packet.Frame, to packet.NodeID) bool
	// OnSkippedEdge, when non-nil, is called for every EnergyUp (up) or
	// EnergyDown the channel skips because the radio was quiet. Used by
	// tests to check that no skipped callback would have acted.
	OnSkippedEdge func(r *Radio, up bool)

	// Spatial index over radio position snapshots.
	grid        *geo.Grid
	hits        []geo.Hit // reusable WithinRangeHits buffer
	movers      []*Radio  // radios whose snapshots go stale (maxSpeed > 0)
	policyDirty bool      // movers/epoch need recomputation
	slack       float64   // max snapshot drift of a mover, metres
	margin      float64   // pad on every snapshot bound, metres
	epoch       sim.Duration
	nextRefresh sim.Time
	exact       bool // refresh every transmit (some radio has unknown speed)

	// candSet marks one transmission's grid candidates by radio index and
	// candD2 holds each marked candidate's squared snapshot distance to the
	// transmitter. Both are sized in Attach; candSet is all-zero between
	// transmissions.
	candSet []uint64
	candD2  []float64

	// linear switches Transmit to the O(N) scan over all radios — the
	// reference implementation the grid path must match bit-for-bit.
	linear bool
	// unbatched switches delivery to 2·k individual arrival events over
	// the same precomputed batch — the reference for the batched path.
	unbatched bool

	batchFree []*arrivalBatch     // parked batches (receiver slices kept)
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

// NewChannel creates an empty channel.
func NewChannel(sched *sim.Scheduler, rxRange, csRange float64) *Channel {
	if csRange < rxRange {
		csRange = rxRange
	}
	return &Channel{
		sched:     sched,
		RxRange:   rxRange,
		CSRange:   csRange,
		PropSpeed: defaultPropSpeed,
	}
}

// getBatch takes the most recently parked batch, or allocates one.
func (c *Channel) getBatch() *arrivalBatch {
	n := len(c.batchFree)
	if n == 0 {
		return &arrivalBatch{ch: c}
	}
	b := c.batchFree[n-1]
	c.batchFree[n-1] = nil
	c.batchFree = c.batchFree[:n-1]
	return b
}

// parkBatch clears a batch's frame and receiver references and returns it
// to the free list with the receiver slice's capacity intact.
func (c *Channel) parkBatch(b *arrivalBatch) {
	b.frame = nil
	b.live = 0
	for i := range b.rx {
		b.rx[i] = batchRx{}
	}
	b.rx = b.rx[:0]
	c.batchFree = append(c.batchFree, b)
}

// EnableGrid builds the receiver-lookup index over the given field. Call it
// before attaching radios (scenario builders) for a well-sized grid;
// channels that never call it self-configure from the radios' positions at
// the first transmission. cellSize <= 0 picks the carrier-sense range,
// which makes a range query touch a 3×3 cell block.
func (c *Channel) EnableGrid(bounds geo.Rect, cellSize float64) {
	if cellSize <= 0 {
		cellSize = c.CSRange
	}
	if cellSize <= 0 {
		// Degenerate zero-range channels must still build and run (nothing
		// will ever be in range); any positive cell size works.
		cellSize = 1
	}
	c.grid = geo.NewGrid(bounds, cellSize)
	now := c.sched.Now()
	for _, r := range c.radios {
		c.grid.Update(r.idx, r.positionAt(now))
	}
	c.policyDirty = true
}

// UseLinearScan switches Transmit between the grid-indexed receiver lookup
// (default) and the exhaustive scan over all attached radios. The two are
// observably identical; the linear path exists as the reference for
// equivalence and determinism tests.
func (c *Channel) UseLinearScan(on bool) { c.linear = on }

// UseUnbatchedArrivals switches delivery between the batched scheme
// (default: two scheduler events walk the whole arrival batch) and the
// reference scheme that schedules an individual first-bit and last-bit
// event per receiver over the same precomputed batch. The two are
// byte-identical — same timestamps, same dispatch order, the same quiet-
// radio skipping — and the unbatched path exists, like UseLinearScan,
// purely as the reference for equivalence tests.
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
		quiet:    lis == nil,
	}
	c.radios = append(c.radios, r)
	for len(c.candD2) < len(c.radios) {
		c.candD2 = append(c.candD2, 0)
	}
	for 64*len(c.candSet) < len(c.radios) {
		c.candSet = append(c.candSet, 0)
	}
	if c.grid != nil {
		c.grid.Update(r.idx, r.positionAt(c.sched.Now()))
	}
	c.policyDirty = true
	return r
}

// Radios returns all attached radios (scenario introspection).
func (c *Channel) Radios() []*Radio { return c.radios }

// PositionOf returns the current position of a radio.
func (c *Channel) PositionOf(r *Radio) geo.Point { return r.positionAt(c.sched.Now()) }

// Busy reports whether the radio currently senses energy or is transmitting;
// exposed for the MAC's carrier-sense checks.
func (r *Radio) Busy() bool { return r.energy > 0 || r.Transmitting() }

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

// refreshMovers re-snapshots every non-stationary radio into the grid.
func (c *Channel) refreshMovers(now sim.Time) {
	for _, r := range c.movers {
		c.grid.Update(r.idx, r.positionAt(now))
	}
}

// autoGrid self-configures the index for channels built without EnableGrid
// (unit tests, ad-hoc topologies): bounds from the radios' current
// positions. Radios may later wander outside; the grid clamps them to edge
// cells, which affects only query cost, never the result.
func (c *Channel) autoGrid(now sim.Time) {
	if len(c.radios) == 0 {
		c.EnableGrid(geo.Rect{MinX: 0, MinY: 0, MaxX: 1, MaxY: 1}, 0)
		return
	}
	p0 := c.radios[0].positionAt(now)
	b := geo.Rect{MinX: p0.X, MinY: p0.Y, MaxX: p0.X, MaxY: p0.Y}
	for _, r := range c.radios[1:] {
		p := r.positionAt(now)
		b.MinX = math.Min(b.MinX, p.X)
		b.MinY = math.Min(b.MinY, p.Y)
		b.MaxX = math.Max(b.MaxX, p.X)
		b.MaxY = math.Max(b.MaxY, p.Y)
	}
	c.EnableGrid(b, c.CSRange)
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
	maxD2 := 0.0

	if c.linear {
		for _, rcv := range c.radios {
			if rcv == tx {
				continue
			}
			d2 := rcv.positionAt(now).DistanceSqTo(txPos)
			maxD2 = c.appendRx(b, rcv, d2, f, cs2, rx2, maxD2)
		}
	} else {
		if c.grid == nil {
			c.autoGrid(now)
		}
		if c.policyDirty {
			c.recomputePolicy()
		}
		if c.exact || now >= c.nextRefresh {
			c.refreshMovers(now)
			if !c.exact {
				c.nextRefresh = now.Add(c.epoch)
			}
		}
		slack, margin := c.slack, c.margin
		c.hits = c.grid.WithinRangeHits(txPos, c.CSRange+slack+margin, c.hits[:0])
		// Fill in radio-index order, as the linear scan does (see "Receiver
		// lookup"): mark the candidates, then walk the set bits upward,
		// clearing each word as it is consumed. Marking also finds the
		// farthest candidate that is in CS range wherever its snapshot
		// drifted to.
		csIn2 := sqOrNone(c.CSRange - slack - margin)
		far2 := -1.0
		for _, h := range c.hits {
			if h.ID == tx.idx {
				continue
			}
			d2 := h.P.DistanceSqTo(txPos)
			c.candSet[h.ID>>6] |= 1 << (h.ID & 63)
			c.candD2[h.ID] = d2
			if d2 < csIn2 && d2 > far2 {
				far2 = d2
			}
		}
		// A mover's snapshot decides it when its squared snapshot distance
		// is below cut2 (it cannot be the farthest receiver, so its exact
		// distance cannot set the propagation delay: both it and the
		// farthest may have drifted by the slack plus the margin) and outside
		// [rxIn2, rxOut2] (it is clear of the Rx edge). cut2 < csIn2, so
		// such a mover is clear of the CS edge too. With no slack every
		// snapshot is exact and decides.
		cut2, rxIn2, rxOut2 := math.Inf(1), math.Inf(1), math.Inf(1)
		if slack > 0 {
			cut2 = -1
			if far2 > 0 {
				cut2 = sqOrNone(math.Sqrt(far2) - 2*(slack+margin))
			}
			rxIn2 = sqOrNone(c.RxRange - slack - margin)
			rxOut2 = sqOrNone(c.RxRange + slack + margin)
		}
		words := c.candSet[:(len(c.radios)+63)>>6]
		for w, word := range words {
			if word == 0 {
				continue
			}
			words[w] = 0
			for ; word != 0; word &= word - 1 {
				id := w<<6 | bits.TrailingZeros64(word)
				rcv := c.radios[id]
				d2 := c.candD2[id]
				if (d2 >= cut2 || d2 >= rxIn2 && d2 <= rxOut2) && rcv.maxSpeed != 0 {
					// Near an edge or the farthest receiver: the snapshot may
					// lag by up to the slack, so use the exact position.
					d2 = rcv.positionAt(now).DistanceSqTo(txPos)
				}
				// A decided mover's snapshot d2 is below the exact distance
				// of some receiver that was checked exactly, so it cannot
				// raise the final maximum.
				maxD2 = c.appendRx(b, rcv, d2, f, cs2, rx2, maxD2)
			}
		}
	}

	if len(b.rx) == 0 {
		c.parkBatch(b) // empty neighbourhood: no events at all
	} else {
		prop := sim.Duration(0)
		if c.PropSpeed > 0 {
			prop = sim.Seconds(math.Sqrt(maxD2) / c.PropSpeed)
		}
		if c.unbatched {
			b.live = len(b.rx)
			for i := range b.rx {
				c.sched.AfterTask(prop, b, unbatchedArgBase+2*i)
				c.sched.AfterTask(prop+airtime, b, unbatchedArgBase+2*i+1)
			}
		} else {
			b.live = 1
			c.sched.AfterTask(prop, b, batchStartArg)
			c.sched.AfterTask(prop+airtime, b, batchEndArg)
		}
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

// appendRx checks one candidate receiver at squared distance d2 from the
// transmitter and, if in carrier-sense range, appends its precomputed view
// to the batch. Returns the running maximum squared distance over all
// in-CS receivers — the batch's common propagation distance.
func (c *Channel) appendRx(b *arrivalBatch, rcv *Radio, d2 float64, f *packet.Frame, cs2, rx2, maxD2 float64) float64 {
	if d2 > cs2 {
		return maxD2
	}
	decodable := d2 <= rx2
	b.rx = append(b.rx, batchRx{
		rcv:       rcv,
		decodable: decodable,
		drop:      decodable && c.DropFrame != nil && c.DropFrame(f, rcv.ID),
	})
	// d2 is a finite, non-negative squared distance, so a plain comparison
	// matches math.Max bit for bit without its NaN and signed-zero cases.
	if d2 > maxD2 {
		return d2
	}
	return maxD2
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
