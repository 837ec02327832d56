package phy

import (
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"mtsim/internal/geo"
	"mtsim/internal/packet"
	"mtsim/internal/sim"
)

// rxView is one receiver's entry in an arrival batch, by radio index.
type rxView struct {
	idx             int32
	decodable, drop bool
}

// batchRecord is what one transmission scheduled: its receivers in fill
// order and the batch's common propagation delay.
type batchRecord struct {
	rx   []rxView
	prop sim.Duration
}

// moversChannel builds a channel with n radios at the paper's density (50
// per 1000x1000 m), each moving in a straight line at up to 20 m/s with
// that bound declared, so the grid path runs with a non-zero slack and
// refresh epoch. The layout depends on n alone.
func moversChannel(s *sim.Scheduler, n int) *Channel {
	const speed = 20.0
	side := 1000.0 * math.Sqrt(float64(n)/50.0)
	c := NewChannel(s, DefaultRxRange, DefaultCSRange, geo.Field(side, side))
	rng := rand.New(rand.NewSource(int64(n)))
	for i := 0; i < n; i++ {
		x, y := rng.Float64()*side, rng.Float64()*side
		// Each component within ±speed/√2 keeps the speed under the bound.
		vx := (2*rng.Float64() - 1) * speed / math.Sqrt2
		vy := (2*rng.Float64() - 1) * speed / math.Sqrt2
		pos := func(t sim.Time) geo.Point {
			s := t.Seconds()
			return geo.Point{X: x + vx*s, Y: y + vy*s}
		}
		c.Attach(packet.NodeID(i), pos, nil).SetMaxSpeed(speed)
	}
	return c
}

// recordBatches makes one transmission every 25 ms for 7.5 simulated
// seconds (several snapshot-refresh epochs), cycling through the senders,
// and records each transmission's arrival batch.
func recordBatches(t *testing.T, s *sim.Scheduler, c *Channel) []batchRecord {
	t.Helper()
	c.DropFrame = func(f *packet.Frame, to packet.NodeID) bool {
		return (f.UID+uint64(to))%5 == 0
	}
	radios := c.Radios()
	var out []batchRecord
	for i := 0; i < 300; i++ {
		s.RunUntil(sim.Time(i) * sim.Time(25*sim.Millisecond))
		out = append(out, recordOne(t, s, c, radios[(7*i)%len(radios)], uint64(i+1)))
	}
	return out
}

// recordOne makes one transmission from tx now, runs it to completion and
// returns its arrival batch. It also checks that the batch left flight
// once delivered.
func recordOne(t *testing.T, s *sim.Scheduler, c *Channel, tx *Radio, uid uint64) batchRecord {
	t.Helper()
	f := &packet.Frame{UID: uid, Kind: packet.FrameData, TxTo: packet.Broadcast}
	// Park a batch so Transmit fills this one: it takes the most recently
	// parked batch, and parks it again at once if no radio is in range.
	b := c.getBatch()
	c.parkBatch(b)
	c.Transmit(tx, f, sim.Millisecond)
	var rec batchRecord
	for w, word := range b.cs {
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			bit := uint64(1) << (i & 63)
			rec.rx = append(rec.rx, rxView{int32(i), b.dec[w]&bit != 0, b.drop[w]&bit != 0})
		}
	}
	if len(rec.rx) > 0 {
		// The propagation delay is under the airtime, so the batch's
		// first-bit delivery is the earliest pending event.
		sent := s.Now()
		s.Step()
		rec.prop = s.Now().Sub(sent)
	}
	s.Run()
	if len(c.inflight) != 0 {
		t.Fatalf("transmission %d left %d batches in flight", uid, len(c.inflight))
	}
	return rec
}

// linearBatches records the same transmissions on a fresh channel through
// the linear reference scan.
func linearBatches(t *testing.T, n int) []batchRecord {
	s := sim.NewScheduler()
	c := moversChannel(s, n)
	c.UseLinearScan(true)
	return recordBatches(t, s, c)
}

// compareBatches fails on the first transmission whose grid batch differs
// from the linear reference in receivers, their order, their flags, or the
// propagation delay.
func compareBatches(t *testing.T, grid, linear []batchRecord) {
	t.Helper()
	receivers := 0
	for i := range linear {
		if !reflect.DeepEqual(grid[i], linear[i]) {
			t.Fatalf("transmission %d diverged:\ngrid:   %+v\nlinear: %+v", i, grid[i], linear[i])
		}
		receivers += len(linear[i].rx)
	}
	if receivers == 0 {
		t.Fatal("degenerate field: no transmission reached any receiver")
	}
}

// radial is one radio of an edge layout: its distance from the hub at the
// snapshot time edgeT0 and its radial speed (negative: inward), kept
// until edgeT0+stop when stop is set. A zero speed attaches it
// stationary.
type radial struct {
	dist, speed float64
	stop        sim.Duration
}

// Edge-layout constants: the movers' declared speed bound, the slack it
// gets, and a speed that overshoots the bound by a relative 1e-7. Over one
// refresh epoch the overshoot carries a mover about 0.53 µm past the
// slack — what nanosecond-truncated waypoint legs can add, and under
// the margin the channel gives that bound, edgeMargin.
//
// fastSpeed is a bound a hundred times higher, and fastOver overshoots it
// by three leg ends' truncation (3 × 2000 m/s × 1 ns = 6 µm per epoch;
// about 4 µm at the transmission, 1 ns before the refresh): more than
// snapMargin alone, so a margin that ignored the speed would misjudge it.
const (
	edgeSpeed  = 20.0
	edgeSlack  = slackFraction * DefaultCSRange
	edgeMargin = snapMargin + legTravel*edgeSpeed
	overSpeed  = edgeSpeed * (1 + 1e-7)
	fastSpeed  = 100 * edgeSpeed
	fastOver   = fastSpeed * (1 + 6e-6/edgeSlack)
	edgeT0     = sim.Time(sim.Second)
)

// edgeLayout is one edge layout: radios around a hub at the field centre,
// the speed bound its movers declare, and the hub's own speed towards the
// first radial (zero: stationary). A layout with a mid step runs it at
// edgeT0+midT, between the two transmissions, and makes the second one
// right after it.
type edgeLayout struct {
	name  string
	bound float64
	hub   float64
	rs    []radial
	midT  sim.Duration
	mid   func(c *Channel, hub geo.Point)
}

// edgeBatches attaches the layout's hub and radial radios, each mover
// declaring the speed bound, then records the hub's transmissions at
// edgeT0 (which refreshes every snapshot and builds the hub's neighbour
// classes) and one nanosecond before the next refresh, when the
// snapshots have drifted furthest (or right after the mid step).
func edgeBatches(t *testing.T, l edgeLayout, linear bool) []batchRecord {
	s := sim.NewScheduler()
	c := NewChannel(s, DefaultRxRange, DefaultCSRange, geo.Field(2000, 2000))
	c.UseLinearScan(linear)
	centre := geo.Point{X: 1000, Y: 1000}
	dir := func(i int) (float64, float64) {
		a := 0.4 + 2*math.Pi*float64(i)/float64(len(l.rs))
		return math.Cos(a), math.Sin(a)
	}
	hx, hy := dir(0)
	hubAt := func(t sim.Time) geo.Point {
		d := l.hub * t.Sub(edgeT0).Seconds()
		return geo.Point{X: centre.X + d*hx, Y: centre.Y + d*hy}
	}
	tx := c.Attach(0, hubAt, nil)
	if l.hub == 0 {
		tx.SetMaxSpeed(0)
	} else {
		tx.SetMaxSpeed(l.bound)
	}
	for i, r := range l.rs {
		dx, dy := dir(i)
		pos := func(t sim.Time) geo.Point {
			if r.stop > 0 && t > edgeT0.Add(r.stop) {
				t = edgeT0.Add(r.stop)
			}
			d := r.dist + r.speed*t.Sub(edgeT0).Seconds()
			return geo.Point{X: centre.X + d*dx, Y: centre.Y + d*dy}
		}
		rd := c.Attach(packet.NodeID(i+1), pos, nil)
		if r.speed == 0 {
			rd.SetMaxSpeed(0)
		} else {
			rd.SetMaxSpeed(l.bound)
		}
	}
	epoch := sim.Seconds(edgeSlack / l.bound)
	s.RunUntil(edgeT0)
	out := []batchRecord{recordOne(t, s, c, tx, 1)}
	if !linear && (c.slack != edgeSlack || c.epoch != epoch) {
		t.Fatalf("slack %v epoch %v, want %v and %v", c.slack, c.epoch, edgeSlack, epoch)
	}
	if l.mid != nil {
		s.RunUntil(edgeT0.Add(l.midT))
		l.mid(c, centre)
	} else {
		s.RunUntil(edgeT0.Add(epoch - 1))
	}
	return append(out, recordOne(t, s, c, tx, 2))
}

// TestGridFillMatchesLinearAcrossWords pins the ID-ordered fill at the
// bitset's word boundaries: populations inside, just under, at and just
// over one 64-bit word, several words, and a large field must all produce
// batches identical to the linear scan. The edge layouts pin the snapshot
// decisions where they are tightest: movers whose snapshot sits a tenth
// of a micrometre inside a decision bound and whose drift carries them
// across the edge, the same for movers a hundred times faster whose drift
// past the slack outgrows a fixed margin, and pairs of movers whose order
// by distance flips between the snapshot and the transmission, so the
// wrong one would set the propagation delay. With a moving hub, its own
// drift adds to each receiver's: a band of one slack misjudges a receiver,
// and a farthest window of two slacks misses the receiver that overtakes.
// The last layouts change the snapshots between two refreshes, so the
// hub's neighbour classes must be rebuilt: the only mover stops after a
// long drift and declares itself stationary, and a 65th radio attaches in
// range.
func TestGridFillMatchesLinearAcrossWords(t *testing.T) {
	for _, n := range []int{50, 63, 64, 65, 130, 1000} {
		s := sim.NewScheduler()
		c := moversChannel(s, n)
		compareBatches(t, recordBatches(t, s, c), linearBatches(t, n))
	}
	const (
		rx, cs, sl = DefaultRxRange, DefaultCSRange, edgeSlack
		tiny       = 1e-7
		// anchor is a stationary receiver surely in CS range, far enough
		// out that the movers of a layout are not near the farthest.
		anchorDist = cs - 10*sl
		// X is a distance whose propagation delay is 0.01 ns short of a
		// whole nanosecond: a receiver 1 cm beyond it gets a delay 1 ns
		// longer.
		X = 449.997
		// w is a mover's drift bound; a pair of movers drifts up to 2w.
		w = sl + edgeMargin
	)
	anchor := radial{dist: anchorDist}
	mover := func(dist, speed float64) radial { return radial{dist: dist, speed: speed} }
	var fillers []radial
	for i := 0; i < 62; i++ {
		fillers = append(fillers, radial{dist: 300 + float64(i)})
	}
	epoch := sim.Seconds(sl / edgeSpeed)
	for _, l := range []edgeLayout{
		{name: "rx-edge-outward", bound: edgeSpeed, rs: []radial{anchor, mover(rx-sl-tiny, overSpeed)}},
		{name: "rx-edge-inward", bound: edgeSpeed, rs: []radial{anchor, mover(rx+sl+tiny, -overSpeed)}},
		// The outward mover leaves CS range, so it must not set the cut
		// that lets a snapshot decide the other one, the farthest receiver.
		{name: "cs-edge-outward", bound: edgeSpeed, rs: []radial{mover(cs-sl-tiny, overSpeed), mover(cs-3*sl-2*edgeMargin-2*tiny, edgeSpeed)}},
		{name: "cs-query-inward", bound: edgeSpeed, rs: []radial{anchor, mover(cs+sl+tiny, -overSpeed)}},
		{name: "farthest-overtaken", bound: edgeSpeed, rs: []radial{mover(cs-4*sl, -edgeSpeed), mover(cs-5.5*sl, edgeSpeed)}},
		{name: "farthest-near-tie", bound: edgeSpeed, rs: []radial{mover(X+sl, -edgeSpeed), mover(X-sl+0.01, edgeSpeed)}},
		// 3 µm past the bound a fixed 1 µm margin would set; the 4 µm
		// overshoot carries each across its edge.
		{name: "fast-rx-edge-outward", bound: fastSpeed, rs: []radial{anchor, mover(rx-sl-3e-6, fastOver)}},
		{name: "fast-cs-query-inward", bound: fastSpeed, rs: []radial{anchor, mover(cs+sl+3e-6, -fastOver)}},
		// The hub backs away from a receiver moving out: 1.5 slacks inside
		// the Rx edge at the snapshot, half a slack beyond it at the
		// transmission.
		{name: "tx-drift-rx-edge", bound: edgeSpeed, hub: -overSpeed, rs: []radial{mover(rx-1.5*sl, overSpeed), anchor}},
		// The two radials lie on opposite sides of the hub, which moves
		// towards the second: the first gains up to 4w on it. A first
		// radial 3.5 slacks behind overtakes the second; one just inside
		// or just outside the 4w window cannot.
		{name: "farthest-overtaken-by-tx-drift", bound: edgeSpeed, hub: -overSpeed, rs: []radial{mover(cs-13.5*sl, overSpeed), mover(cs-10*sl, -overSpeed)}},
		{name: "farthest-window-inside", bound: edgeSpeed, hub: -overSpeed, rs: []radial{mover(cs-10*sl-4*w+tiny, overSpeed), mover(cs-10*sl, -overSpeed)}},
		{name: "farthest-window-outside", bound: edgeSpeed, hub: -overSpeed, rs: []radial{mover(cs-10*sl-4*w-tiny, overSpeed), mover(cs-10*sl, -overSpeed)}},
		// Three and a half epochs inward with no transmission (so no
		// refresh): the mover crosses the Rx edge, stops and declares
		// itself stationary, which leaves no mover to refresh.
		{name: "max-speed-invalidates", bound: edgeSpeed, rs: []radial{anchor, {dist: rx + 3*sl, speed: -edgeSpeed, stop: 7 * epoch / 2}},
			midT: 7 * epoch / 2, mid: func(c *Channel, _ geo.Point) { c.radios[2].SetMaxSpeed(0) }},
		{name: "attach-invalidates", bound: edgeSpeed, rs: append([]radial{mover(anchorDist, edgeSpeed)}, fillers...),
			midT: epoch / 2, mid: func(c *Channel, hub geo.Point) {
				c.Attach(64, fixed(hub.X+100, hub.Y), nil).SetMaxSpeed(0)
			}},
	} {
		t.Run(l.name, func(t *testing.T) {
			compareBatches(t, edgeBatches(t, l, false), edgeBatches(t, l, true))
		})
	}
}
