package phy

import (
	"math"
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

// attachMovers attaches n radios at the paper's density (50 per 1000x1000
// m), each moving in a straight line at up to 20 m/s with that bound
// declared, so the grid path runs with a non-zero slack and refresh epoch.
// The layout depends on n alone.
func attachMovers(c *Channel, n int) {
	const speed = 20.0
	side := 1000.0 * math.Sqrt(float64(n)/50.0)
	c.EnableGrid(geo.Field(side, side), 0)
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
}

// recordBatches makes one transmission every 25 ms for 7.5 simulated
// seconds (several snapshot-refresh epochs), cycling through the senders,
// and records each transmission's arrival batch. It also checks that the
// candidate bitset is left all-zero after every transmission.
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
// returns its arrival batch.
func recordOne(t *testing.T, s *sim.Scheduler, c *Channel, tx *Radio, uid uint64) batchRecord {
	t.Helper()
	f := &packet.Frame{UID: uid, Kind: packet.FrameData, TxTo: packet.Broadcast}
	// Park a batch so Transmit fills this one: it takes the most recently
	// parked batch, and parks it again at once if no radio is in range.
	b := c.getBatch()
	c.parkBatch(b)
	c.Transmit(tx, f, sim.Millisecond)
	var rec batchRecord
	if len(b.rx) > 0 {
		for _, e := range b.rx {
			rec.rx = append(rec.rx, rxView{e.rcv.idx, e.decodable, e.drop})
		}
		// The propagation delay is under the airtime, so the batch's
		// first-bit delivery is the earliest pending event.
		sent := s.Now()
		s.Step()
		rec.prop = s.Now().Sub(sent)
	}
	s.Run()
	for w, word := range c.candSet {
		if word != 0 {
			t.Fatalf("transmission %d left candidate word %d set: %#x", uid, w, word)
		}
	}
	return rec
}

// linearBatches records the same transmissions on a fresh channel through
// the linear reference scan.
func linearBatches(t *testing.T, n int) []batchRecord {
	s := sim.NewScheduler()
	c := NewChannel(s, DefaultRxRange, DefaultCSRange)
	attachMovers(c, n)
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
// snapshot time edgeT0 and its radial speed (negative: inward). A zero
// speed attaches it stationary.
type radial struct {
	dist, speed float64
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

// edgeBatches attaches a stationary hub at the field centre and the given
// radial movers around it, each declaring the speed bound, then records
// the hub's transmissions at edgeT0 (which refreshes every snapshot) and
// one nanosecond before the next refresh, when the snapshots have drifted
// furthest.
func edgeBatches(t *testing.T, rs []radial, bound float64, linear bool) []batchRecord {
	s := sim.NewScheduler()
	c := NewChannel(s, DefaultRxRange, DefaultCSRange)
	c.EnableGrid(geo.Field(2000, 2000), 0)
	c.UseLinearScan(linear)
	hub := geo.Point{X: 1000, Y: 1000}
	tx := c.Attach(0, func(sim.Time) geo.Point { return hub }, nil)
	tx.SetMaxSpeed(0)
	for i, r := range rs {
		a := 0.4 + 2*math.Pi*float64(i)/float64(len(rs))
		dx, dy := math.Cos(a), math.Sin(a)
		pos := func(t sim.Time) geo.Point {
			d := r.dist + r.speed*t.Sub(edgeT0).Seconds()
			return geo.Point{X: hub.X + d*dx, Y: hub.Y + d*dy}
		}
		rd := c.Attach(packet.NodeID(i+1), pos, nil)
		if r.speed == 0 {
			rd.SetMaxSpeed(0)
		} else {
			rd.SetMaxSpeed(bound)
		}
	}
	epoch := sim.Seconds(edgeSlack / bound)
	s.RunUntil(edgeT0)
	out := []batchRecord{recordOne(t, s, c, tx, 1)}
	if !linear && (c.slack != edgeSlack || c.epoch != epoch) {
		t.Fatalf("slack %v epoch %v, want %v and %v", c.slack, c.epoch, edgeSlack, epoch)
	}
	s.RunUntil(edgeT0.Add(epoch - 1))
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
// wrong one would set the propagation delay.
func TestGridFillMatchesLinearAcrossWords(t *testing.T) {
	for _, n := range []int{50, 63, 64, 65, 130, 1000} {
		s := sim.NewScheduler()
		c := NewChannel(s, DefaultRxRange, DefaultCSRange)
		attachMovers(c, n)
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
	)
	anchor := radial{anchorDist, 0}
	for _, tc := range []struct {
		name  string
		bound float64 // the movers' declared speed
		rs    []radial
	}{
		{"rx-edge-outward", edgeSpeed, []radial{anchor, {rx - sl - tiny, overSpeed}}},
		{"rx-edge-inward", edgeSpeed, []radial{anchor, {rx + sl + tiny, -overSpeed}}},
		// The outward mover leaves CS range, so it must not set the cut
		// that lets a snapshot decide the other one, the farthest receiver.
		{"cs-edge-outward", edgeSpeed, []radial{{cs - sl - tiny, overSpeed}, {cs - 3*sl - 2*edgeMargin - 2*tiny, edgeSpeed}}},
		{"cs-query-inward", edgeSpeed, []radial{anchor, {cs + sl + tiny, -overSpeed}}},
		{"farthest-overtaken", edgeSpeed, []radial{{cs - 4*sl, -edgeSpeed}, {cs - 5.5*sl, edgeSpeed}}},
		{"farthest-near-tie", edgeSpeed, []radial{{X + sl, -edgeSpeed}, {X - sl + 0.01, edgeSpeed}}},
		// 3 µm past the bound a fixed 1 µm margin would set; the 4 µm
		// overshoot carries each across its edge.
		{"fast-rx-edge-outward", fastSpeed, []radial{anchor, {rx - sl - 3e-6, fastOver}}},
		{"fast-cs-query-inward", fastSpeed, []radial{anchor, {cs + sl + 3e-6, -fastOver}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			compareBatches(t, edgeBatches(t, tc.rs, tc.bound, false), edgeBatches(t, tc.rs, tc.bound, true))
		})
	}
}
