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
// # Receiver lookup
//
// Transmit resolves its audience through a uniform-grid spatial index
// (geo.Grid) instead of scanning every attached radio, so the cost of one
// transmission scales with the neighbourhood size, not the population. The
// grid holds a position snapshot per radio; snapshots of moving radios are
// refreshed lazily on a coarse epoch chosen so that the possible drift
// since the last refresh stays below a slack margin, and every query is
// inflated by that margin. Candidates returned by the grid are then
// distance-checked against their exact current positions, so the delivered
// receiver set is bit-for-bit identical to a full scan (the linear
// reference path is kept, behind UseLinearScan, for equivalence tests).
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
// time). A batch stays on the channel's in-flight list from Transmit until
// its last-bit delivery has run — or until Reset/Retire drains it — and
// then parks on the free list with its receiver slice's capacity kept.
// Batches reference the frame but never own it; frame release stays with
// the MAC's quarantine (the batch's own lifetime is bounded by
// MaxPropDelay + airtime, inside the quarantine hold).
type arrivalBatch struct {
	ch    *Channel
	frame *packet.Frame
	rx    []batchRx
	live  int // outstanding last-bit events (1 batched, len(rx) unbatched)
	idx   int // position in ch.inflight (swap-remove bookkeeping)
}

// Run implements sim.Task.
func (b *arrivalBatch) Run(arg int) {
	ch := b.ch
	switch arg {
	case batchStartArg:
		for i := range b.rx {
			e := &b.rx[i]
			ch.arriveStart(e.rcv, b.frame, e.decodable, e.drop)
		}
	case batchEndArg:
		for i := range b.rx {
			e := &b.rx[i]
			ch.arriveEnd(e.rcv, b.frame, e.decodable)
		}
		ch.parkBatch(b)
	default:
		i, phase := (arg-unbatchedArgBase)/2, (arg-unbatchedArgBase)%2
		e := &b.rx[i]
		if phase == 0 {
			ch.arriveStart(e.rcv, b.frame, e.decodable, e.drop)
			return
		}
		ch.arriveEnd(e.rcv, b.frame, e.decodable)
		b.live--
		if b.live == 0 {
			ch.parkBatch(b)
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

	// Spatial index over radio position snapshots.
	grid        *geo.Grid
	spareGrid   *geo.Grid // previous run's grid, reusable by EnableGrid
	hits        []geo.Hit // reusable WithinRangeHits buffer
	spare       []*Radio  // recycled Radio structs (Reset → Attach)
	movers      []*Radio  // radios whose snapshots go stale (maxSpeed > 0)
	policyDirty bool      // movers/epoch need recomputation
	slackBudget float64   // max tolerated snapshot drift, metres
	slack       float64   // current query-radius inflation
	epoch       sim.Duration
	nextRefresh sim.Time
	exact       bool // refresh every transmit (some radio has unknown speed)

	// candSet marks one transmission's grid candidates by radio index and
	// candPos holds each marked candidate's snapshot position. Both are
	// sized in Attach; candSet is all-zero between transmissions.
	candSet []uint64
	candPos []geo.Point

	// linear switches Transmit to the O(N) scan over all radios — the
	// reference implementation the grid path must match bit-for-bit.
	linear bool
	// unbatched switches delivery to 2·k individual arrival events over
	// the same precomputed batch — the reference for the batched path.
	unbatched bool

	inflight  []*arrivalBatch     // batches with deliveries still scheduled
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

// Reset detaches every radio and restores the channel to its
// NewChannel(sched, rxRange, csRange) state while keeping the expensive
// reusable storage: the spatial grid (reused when the next EnableGrid asks
// for the same geometry), the receiver scratch buffers, the arrival-batch
// and reception pools, and the Radio structs themselves (recycled through
// the next Attach calls). Arrival batches still in flight are drained
// first — their scheduled events must never fire again (the caller resets
// the scheduler alongside, as scenario.Context does), and draining drops
// the frame references so no retired frame stays reachable through the
// channel. A reset channel behaves bit-for-bit like a fresh one; it exists
// so batch executors (scenario.Context) can run thousands of simulations
// without rebuilding the medium each time.
func (c *Channel) Reset(rxRange, csRange float64) {
	if csRange < rxRange {
		csRange = rxRange
	}
	c.drainBatches()
	c.RxRange = rxRange
	c.CSRange = csRange
	c.PropSpeed = defaultPropSpeed
	c.DropFrame = nil
	if c.grid != nil {
		// Park the index: it must not be consulted while it still holds the
		// previous run's snapshots, but EnableGrid can reclaim its storage.
		c.spareGrid, c.grid = c.grid, nil
	}
	for i, r := range c.radios {
		*r = Radio{}
		c.spare = append(c.spare, r)
		c.radios[i] = nil
	}
	c.radios = c.radios[:0]
	for i := range c.movers {
		c.movers[i] = nil
	}
	c.movers = c.movers[:0]
	c.policyDirty = true
	c.slackBudget = 0
	c.slack = 0
	c.epoch = 0
	c.nextRefresh = 0
	c.exact = false
	c.linear = false
	c.unbatched = false
}

// Retire drains any in-flight arrival batches at run end, dropping their
// frame references and parking them for reuse. It must only be called once
// the run is dead: the batches' scheduled events are assumed never to fire
// again (the owning scenario resets the scheduler before any reuse).
// Idempotent.
func (c *Channel) Retire() { c.drainBatches() }

// drainBatches force-parks every in-flight batch.
func (c *Channel) drainBatches() {
	for len(c.inflight) > 0 {
		c.parkBatch(c.inflight[len(c.inflight)-1])
	}
}

// getBatch takes a parked batch (or allocates one) and tracks it in flight.
func (c *Channel) getBatch() *arrivalBatch {
	var b *arrivalBatch
	if n := len(c.batchFree); n > 0 {
		b = c.batchFree[n-1]
		c.batchFree[n-1] = nil
		c.batchFree = c.batchFree[:n-1]
	} else {
		b = &arrivalBatch{}
	}
	b.ch = c
	b.idx = len(c.inflight)
	c.inflight = append(c.inflight, b)
	return b
}

// parkBatch removes a batch from the in-flight list (swap-remove), clears
// its frame and receiver references, and returns it to the free list with
// the receiver slice's capacity intact.
func (c *Channel) parkBatch(b *arrivalBatch) {
	last := len(c.inflight) - 1
	c.inflight[b.idx] = c.inflight[last]
	c.inflight[b.idx].idx = b.idx
	c.inflight[last] = nil
	c.inflight = c.inflight[:last]
	b.frame = nil
	b.live = 0
	for i := range b.rx {
		b.rx[i] = batchRx{}
	}
	b.rx = b.rx[:0]
	c.batchFree = append(c.batchFree, b)
}

// InflightBatches reports how many arrival batches are currently on the
// air (leak audits and tests).
func (c *Channel) InflightBatches() int { return len(c.inflight) }

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
	switch {
	case c.grid != nil && c.grid.Reset(bounds, cellSize):
		// Re-index in place below.
	case c.spareGrid != nil && c.spareGrid.Reset(bounds, cellSize):
		c.grid, c.spareGrid = c.spareGrid, nil
	default:
		c.grid = geo.NewGrid(bounds, cellSize)
	}
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
// byte-identical — same timestamps, same dispatch order — and the
// unbatched path exists, like UseLinearScan, purely as the reference for
// equivalence tests.
func (c *Channel) UseUnbatchedArrivals(on bool) { c.unbatched = on }

// Attach registers a radio for a node whose position over time is given by
// pos. The listener (the node's MAC) must be set before any transmission
// can reach the radio.
func (c *Channel) Attach(id packet.NodeID, pos func(sim.Time) geo.Point, lis Listener) *Radio {
	var r *Radio
	if n := len(c.spare); n > 0 {
		r = c.spare[n-1]
		c.spare[n-1] = nil
		c.spare = c.spare[:n-1]
	} else {
		r = &Radio{}
	}
	*r = Radio{
		ID:       id,
		pos:      pos,
		lis:      lis,
		ch:       c,
		idx:      int32(len(c.radios)),
		maxSpeed: math.Inf(1),
	}
	c.radios = append(c.radios, r)
	for len(c.candPos) < len(c.radios) {
		c.candPos = append(c.candPos, geo.Point{})
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
// radios on an epoch sized so drift stays under slackBudget, and any radio
// with an unknown bound forces exact (per-transmit) refresh.
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
	if c.slackBudget <= 0 {
		c.slackBudget = 0.1 * c.CSRange
	}
	switch {
	case c.exact || maxKnown == 0:
		// Exact refresh (or nothing moves): queries need no inflation.
		c.slack = 0
		c.epoch = 0
	default:
		c.slack = c.slackBudget
		c.epoch = sim.Seconds(c.slackBudget / maxKnown)
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
			maxD2 = c.appendRx(b, rcv, rcv.positionAt(now), txPos, f, cs2, rx2, maxD2)
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
		c.hits = c.grid.WithinRangeHits(txPos, c.CSRange+c.slack, c.hits[:0])
		// Fill in radio-index order, as the linear scan does (see "Receiver
		// lookup"): mark the candidates, then walk the set bits upward,
		// clearing each word as it is consumed.
		for _, h := range c.hits {
			c.candSet[h.ID>>6] |= 1 << (h.ID & 63)
			c.candPos[h.ID] = h.P
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
				if rcv == tx {
					continue
				}
				p := c.candPos[id]
				if rcv.maxSpeed != 0 {
					// The snapshot may lag a mover by up to the slack margin;
					// re-check against the exact current position. Stationary
					// radios' snapshots are exact, so the grid pass already
					// produced their position (the batch-fill payoff).
					p = rcv.positionAt(now)
				}
				maxD2 = c.appendRx(b, rcv, p, txPos, f, cs2, rx2, maxD2)
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

// appendRx distance-checks one candidate receiver at position p against
// the transmitter's exact position and, if in carrier-sense range, appends
// its precomputed view to the batch. Returns the running maximum squared
// distance over all in-CS receivers — the batch's common propagation
// distance.
func (c *Channel) appendRx(b *arrivalBatch, rcv *Radio, p, txPos geo.Point, f *packet.Frame, cs2, rx2, maxD2 float64) float64 {
	d2 := p.DistanceSqTo(txPos)
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

func (c *Channel) arriveStart(rcv *Radio, f *packet.Frame, decodable, drop bool) {
	rcv.energy++
	if rcv.energy == 1 && rcv.lis != nil {
		rcv.lis.EnergyUp()
	}
	if !decodable {
		return
	}
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

func (c *Channel) arriveEnd(rcv *Radio, f *packet.Frame, decodable bool) {
	rcv.energy--
	if decodable && rcv.rx != nil && rcv.rx.frame == f {
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
	if rcv.energy == 0 && rcv.lis != nil {
		rcv.lis.EnergyDown()
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
