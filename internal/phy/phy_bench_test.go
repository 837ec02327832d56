package phy

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mtsim/internal/geo"
	"mtsim/internal/packet"
	"mtsim/internal/sim"
)

// buildField attaches n stationary radios uniformly over a field sized for
// the paper's default density (50 nodes per 1000x1000 m).
func buildField(s *sim.Scheduler, n int, linear bool) (*Channel, []*Radio) {
	// Constant density (the paper's 50 nodes per 1000x1000 m): area grows
	// linearly with the population, so neighbourhood size stays fixed and
	// the linear-vs-grid gap isolates the receiver-lookup cost.
	side := 1000.0 * math.Sqrt(float64(n)/50.0)
	c := NewChannel(s, DefaultRxRange, DefaultCSRange)
	c.EnableGrid(geo.Field(side, side), 0)
	c.UseLinearScan(linear)
	rng := rand.New(rand.NewSource(42))
	radios := make([]*Radio, n)
	for i := 0; i < n; i++ {
		x, y := rng.Float64()*side, rng.Float64()*side
		// Slow drift with a declared speed bound: position evaluation costs
		// an interpolation (like the real waypoint model) and the channel
		// exercises its epoch-refresh path instead of the static fast path.
		pos := func(t sim.Time) geo.Point {
			return geo.Point{X: x + t.Seconds()*1e-4, Y: y}
		}
		radios[i] = c.Attach(packet.NodeID(i), pos, nil)
		radios[i].SetMaxSpeed(0.001)
	}
	return c, radios
}

// BenchmarkPhyBroadcast measures one transmission end to end: receiver
// lookup plus scheduling and dispatching every arrival event. grid=false is
// the O(N) reference scan the spatial index replaced.
func BenchmarkPhyBroadcast(b *testing.B) {
	for _, n := range []int{50, 100, 200, 400, 1000} {
		for _, linear := range []bool{false, true} {
			mode := "grid"
			if linear {
				mode = "linear"
			}
			b.Run(fmt.Sprintf("nodes=%d/%s", n, mode), func(b *testing.B) {
				s := sim.NewScheduler()
				c, radios := buildField(s, n, linear)
				f := &packet.Frame{UID: 1, Kind: packet.FrameData, TxFrom: 0, TxTo: packet.Broadcast}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					c.Transmit(radios[i%n], f, sim.Millisecond)
					s.Run()
				}
			})
		}
	}
}

// BenchmarkTransmitBatch measures one broadcast end to end through the
// batched arrival delivery (two scheduler events walking the receiver
// batch). events/op is the scheduler pressure per broadcast, which stays
// at two whatever the neighbourhood size.
func BenchmarkTransmitBatch(b *testing.B) {
	for _, n := range []int{50, 100, 400, 1000} {
		b.Run(fmt.Sprintf("nodes=%d", n), func(b *testing.B) {
			s := sim.NewScheduler()
			c, radios := buildField(s, n, false)
			f := &packet.Frame{UID: 1, Kind: packet.FrameData, TxFrom: 0, TxTo: packet.Broadcast}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Transmit(radios[i%n], f, sim.Millisecond)
				s.Run()
			}
			b.ReportMetric(float64(s.Executed)/float64(b.N), "events/op")
		})
	}
}

// TestPhyBroadcastSteadyStateAllocs locks in the tentpole's allocation
// behaviour: after warm-up, a full transmit/deliver cycle performs no heap
// allocations (pooled events, pooled arrivals, pooled receptions, reused
// query scratch). The 130-radio field spans three candidate-bitset words.
func TestPhyBroadcastSteadyStateAllocs(t *testing.T) {
	for _, n := range []int{60, 130} {
		s := sim.NewScheduler()
		c, radios := buildField(s, n, false)
		f := &packet.Frame{UID: 1, Kind: packet.FrameData, TxFrom: 0, TxTo: packet.Broadcast}
		for i := 0; i < n; i++ { // warm the pools across every sender
			c.Transmit(radios[i], f, sim.Millisecond)
			s.Run()
		}
		i := 0
		allocs := testing.AllocsPerRun(200, func() {
			c.Transmit(radios[i%n], f, sim.Millisecond)
			s.Run()
			i++
		})
		if allocs != 0 {
			t.Fatalf("%d radios: transmit hot path allocates %.2f objects/op, want 0", n, allocs)
		}
	}
}
