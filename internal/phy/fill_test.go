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
		f := &packet.Frame{UID: uint64(i + 1), Kind: packet.FrameData, TxTo: packet.Broadcast}
		// Park a batch so Transmit fills this one: it takes the most
		// recently parked batch, and parks it again at once if no radio is
		// in range.
		b := c.getBatch()
		c.parkBatch(b)
		c.Transmit(radios[(7*i)%len(radios)], f, sim.Millisecond)
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
				t.Fatalf("transmission %d left candidate word %d set: %#x", i, w, word)
			}
		}
		out = append(out, rec)
	}
	return out
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

// TestGridFillMatchesLinearAcrossWords pins the ID-ordered fill at the
// bitset's word boundaries: populations inside, just under, at and just
// over one 64-bit word, several words, and a large field must all produce
// batches identical to the linear scan.
func TestGridFillMatchesLinearAcrossWords(t *testing.T) {
	for _, n := range []int{50, 63, 64, 65, 130, 1000} {
		s := sim.NewScheduler()
		c := NewChannel(s, DefaultRxRange, DefaultCSRange)
		attachMovers(c, n)
		compareBatches(t, recordBatches(t, s, c), linearBatches(t, n))
	}
}
