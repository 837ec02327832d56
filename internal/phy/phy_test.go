package phy

import (
	"testing"

	"mtsim/internal/geo"
	"mtsim/internal/packet"
	"mtsim/internal/sim"
)

// recorder is a test Listener capturing callbacks.
type recorder struct {
	ups, downs int
	frames     []*packet.Frame
	oks        []bool
}

func (r *recorder) EnergyUp()   { r.ups++ }
func (r *recorder) EnergyDown() { r.downs++ }
func (r *recorder) RxEnd(f *packet.Frame, ok bool) {
	r.frames = append(r.frames, f)
	r.oks = append(r.oks, ok)
}

func fixed(x, y float64) func(sim.Time) geo.Point {
	return func(sim.Time) geo.Point { return geo.Point{X: x, Y: y} }
}

func testFrame(from, to packet.NodeID) *packet.Frame {
	return &packet.Frame{UID: 1, Kind: packet.FrameData, TxFrom: from, TxTo: to}
}

func TestDeliveryWithinRange(t *testing.T) {
	s := sim.NewScheduler()
	c := NewChannel(s, 250, 550, geo.Field(1000, 1000))
	a := c.Attach(0, fixed(0, 0), &recorder{})
	rb := &recorder{}
	c.Attach(1, fixed(200, 0), rb)

	c.Transmit(a, testFrame(0, 1), sim.Millisecond)
	s.Run()

	if len(rb.frames) != 1 || !rb.oks[0] {
		t.Fatalf("frames=%d oks=%v", len(rb.frames), rb.oks)
	}
	if rb.ups != 1 || rb.downs != 1 {
		t.Fatalf("energy transitions: up=%d down=%d", rb.ups, rb.downs)
	}
	if a.FramesSent != 1 {
		t.Fatalf("sender stats: %d", a.FramesSent)
	}
}

func TestNoDeliveryBeyondRxRange(t *testing.T) {
	s := sim.NewScheduler()
	c := NewChannel(s, 250, 550, geo.Field(1000, 1000))
	a := c.Attach(0, fixed(0, 0), &recorder{})
	rb := &recorder{}
	c.Attach(1, fixed(400, 0), rb) // in CS ring, beyond RX

	c.Transmit(a, testFrame(0, 1), sim.Millisecond)
	s.Run()

	if len(rb.frames) != 0 {
		t.Fatal("decoded beyond RX range")
	}
	if rb.ups != 1 || rb.downs != 1 {
		t.Fatalf("CS ring should sense energy: up=%d down=%d", rb.ups, rb.downs)
	}
}

func TestNoEnergyBeyondCSRange(t *testing.T) {
	s := sim.NewScheduler()
	c := NewChannel(s, 250, 550, geo.Field(1000, 1000))
	a := c.Attach(0, fixed(0, 0), &recorder{})
	rb := &recorder{}
	c.Attach(1, fixed(600, 0), rb)

	c.Transmit(a, testFrame(0, 1), sim.Millisecond)
	s.Run()

	if rb.ups != 0 || len(rb.frames) != 0 {
		t.Fatal("activity sensed beyond CS range")
	}
}

func TestCollisionCorruptsBoth(t *testing.T) {
	s := sim.NewScheduler()
	c := NewChannel(s, 250, 550, geo.Field(1000, 1000))
	// Two senders both in range of the victim; they can't hear each other
	// is irrelevant here — the channel doesn't enforce MAC rules.
	a := c.Attach(0, fixed(0, 0), &recorder{})
	b := c.Attach(1, fixed(400, 0), &recorder{})
	victim := &recorder{}
	c.Attach(2, fixed(200, 0), victim)

	s.At(0, func() { c.Transmit(a, testFrame(0, 2), sim.Millisecond) })
	s.At(sim.Time(100*sim.Microsecond), func() {
		c.Transmit(b, testFrame(1, 2), sim.Millisecond)
	})
	s.Run()

	// The first frame is delivered corrupted; the second one never began
	// decoding (receiver was mid-decode) so it is not delivered at all.
	if len(victim.frames) != 1 {
		t.Fatalf("deliveries = %d, want 1 (the corrupted first frame)", len(victim.frames))
	}
	if victim.oks[0] {
		t.Fatal("overlapping frames not corrupted")
	}
}

func TestNoCollisionWhenSequential(t *testing.T) {
	s := sim.NewScheduler()
	c := NewChannel(s, 250, 550, geo.Field(1000, 1000))
	a := c.Attach(0, fixed(0, 0), &recorder{})
	victim := &recorder{}
	c.Attach(1, fixed(100, 0), victim)

	s.At(0, func() { c.Transmit(a, testFrame(0, 1), sim.Millisecond) })
	s.At(sim.Time(2*sim.Millisecond), func() {
		c.Transmit(a, testFrame(0, 1), sim.Millisecond)
	})
	s.Run()

	if len(victim.frames) != 2 || !victim.oks[0] || !victim.oks[1] {
		t.Fatalf("sequential frames corrupted: %v", victim.oks)
	}
	if victim.ups != 2 || victim.downs != 2 {
		t.Fatalf("energy transitions: %d/%d", victim.ups, victim.downs)
	}
}

func TestHalfDuplexNoDecodeWhileTransmitting(t *testing.T) {
	s := sim.NewScheduler()
	c := NewChannel(s, 250, 550, geo.Field(1000, 1000))
	a := c.Attach(0, fixed(0, 0), &recorder{})
	rb := &recorder{}
	b := c.Attach(1, fixed(100, 0), rb)

	// b starts transmitting first; a's frame arrives while b is sending.
	s.At(0, func() { c.Transmit(b, testFrame(1, 0), 2*sim.Millisecond) })
	s.At(sim.Time(500*sim.Microsecond), func() {
		c.Transmit(a, testFrame(0, 1), sim.Millisecond)
	})
	s.Run()

	if len(rb.frames) != 0 {
		t.Fatal("decoded a frame while transmitting (half duplex violated)")
	}
}

func TestTransmitCorruptsOwnDecode(t *testing.T) {
	s := sim.NewScheduler()
	c := NewChannel(s, 250, 550, geo.Field(1000, 1000))
	a := c.Attach(0, fixed(0, 0), &recorder{})
	rb := &recorder{}
	b := c.Attach(1, fixed(100, 0), rb)

	// a's frame is arriving at b; midway through, b transmits.
	s.At(0, func() { c.Transmit(a, testFrame(0, 1), 2*sim.Millisecond) })
	s.At(sim.Time(sim.Millisecond), func() {
		c.Transmit(b, testFrame(1, 0), 100*sim.Microsecond)
	})
	s.Run()

	if len(rb.frames) != 1 || rb.oks[0] {
		t.Fatalf("decode-in-progress must be corrupted by own tx: frames=%d oks=%v",
			len(rb.frames), rb.oks)
	}
}

func TestPromiscuousDelivery(t *testing.T) {
	// Frames are delivered to ALL radios in range, not just the addressee;
	// MAC-level filtering happens above. This is what the eavesdropper and
	// NAV depend on.
	s := sim.NewScheduler()
	c := NewChannel(s, 250, 550, geo.Field(1000, 1000))
	a := c.Attach(0, fixed(0, 0), &recorder{})
	eaves := &recorder{}
	c.Attach(2, fixed(0, 200), eaves)

	c.Transmit(a, testFrame(0, 1), sim.Millisecond)
	s.Run()

	if len(eaves.frames) != 1 || !eaves.oks[0] {
		t.Fatal("third party did not overhear the frame")
	}
}

func TestCommonPropagationDelay(t *testing.T) {
	// One transmission delivers to its whole neighbourhood at a single
	// propagation delay — the farthest carrier-sensing radio's distance
	// over PropSpeed — and walks the receivers in radio-ID order.
	s := sim.NewScheduler()
	c := NewChannel(s, 250, 550, geo.Field(1000, 1000))
	a := c.Attach(0, fixed(0, 0), &recorder{})
	var order []packet.NodeID
	var nearAt, farAt sim.Time
	near := &hookListener{onRx: func() { nearAt = s.Now(); order = append(order, 1) }}
	far := &hookListener{onRx: func() { farAt = s.Now(); order = append(order, 2) }}
	c.Attach(1, fixed(10, 0), near)
	c.Attach(2, fixed(249, 0), far)

	c.Transmit(a, testFrame(0, packet.Broadcast), sim.Millisecond)
	s.Run()

	want := sim.Time(0).Add(sim.Millisecond + sim.Seconds(249.0/c.PropSpeed))
	if nearAt != want || farAt != want {
		t.Fatalf("deliveries at %v and %v, want common %v", nearAt, farAt, want)
	}
	if len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Fatalf("delivery order %v, want radio-ID order [1 2]", order)
	}
}

type hookListener struct{ onRx func() }

func (h *hookListener) EnergyUp()                      {}
func (h *hookListener) EnergyDown()                    {}
func (h *hookListener) RxEnd(f *packet.Frame, ok bool) { h.onRx() }

func TestDropFrameInjection(t *testing.T) {
	s := sim.NewScheduler()
	c := NewChannel(s, 250, 550, geo.Field(1000, 1000))
	a := c.Attach(0, fixed(0, 0), &recorder{})
	rb := &recorder{}
	c.Attach(1, fixed(100, 0), rb)
	c.DropFrame = func(f *packet.Frame, to packet.NodeID) bool { return to == 1 }

	c.Transmit(a, testFrame(0, 1), sim.Millisecond)
	s.Run()

	if len(rb.frames) != 1 || rb.oks[0] {
		t.Fatal("injected drop did not corrupt the frame")
	}
}

func TestInRange(t *testing.T) {
	s := sim.NewScheduler()
	c := NewChannel(s, 250, 550, geo.Field(1000, 1000))
	a := c.Attach(0, fixed(0, 0), nil)
	b := c.Attach(1, fixed(250, 0), nil)
	d := c.Attach(2, fixed(251, 0), nil)
	if !c.InRange(a, b) {
		t.Fatal("exact range boundary should be in range")
	}
	if c.InRange(a, d) {
		t.Fatal("251m should be out of range")
	}
}

func TestCSRangeClampedToRxRange(t *testing.T) {
	s := sim.NewScheduler()
	c := NewChannel(s, 250, 100, geo.Field(1000, 1000)) // nonsensical: CS < RX, must be clamped
	if c.CSRange < c.RxRange {
		t.Fatalf("CSRange=%v < RxRange=%v", c.CSRange, c.RxRange)
	}
	_ = s
}

func TestBusyReflectsEnergy(t *testing.T) {
	s := sim.NewScheduler()
	c := NewChannel(s, 250, 550, geo.Field(1000, 1000))
	a := c.Attach(0, fixed(0, 0), &recorder{})
	b := c.Attach(1, fixed(100, 0), &recorder{})

	c.Transmit(a, testFrame(0, 1), sim.Millisecond)
	if !a.Transmitting() || !a.Busy() {
		t.Fatal("sender not busy during tx")
	}
	// After propagation delay, b senses energy.
	s.RunUntil(sim.Time(500 * sim.Microsecond))
	if !b.Busy() {
		t.Fatal("receiver not busy mid-frame")
	}
	s.Run()
	if a.Busy() || b.Busy() {
		t.Fatal("radios busy after frame end")
	}
}

func TestTransmittingEndsAtAirtime(t *testing.T) {
	// The radio's sending state is read from the transmission's stored end
	// time: it holds through the last nanosecond of airtime and is gone at
	// start+airtime, whatever else is scheduled at that instant. Transmit
	// itself schedules only the two batched arrival events, and none when
	// nothing is in carrier-sense range.
	const airtime = sim.Millisecond
	start := sim.Time(3 * sim.Millisecond)
	s := sim.NewScheduler()
	c := NewChannel(s, 250, 550, geo.Field(1000, 1000))
	a := c.Attach(0, fixed(0, 0), &recorder{})
	c.Attach(1, fixed(200, 0), &recorder{})
	lone := c.Attach(2, fixed(5000, 0), &recorder{})

	check := func(at sim.Time, want bool) {
		s.At(at, func() {
			if a.Transmitting() != want || a.Busy() != want {
				t.Errorf("at start%+v: Transmitting=%v Busy=%v, want %v",
					at.Sub(start), a.Transmitting(), a.Busy(), want)
			}
		})
	}
	check(start.Add(airtime-1), true)
	check(start.Add(airtime), false)
	s.At(start, func() {
		before := s.Len()
		c.Transmit(a, testFrame(0, 1), airtime)
		if got := s.Len() - before; got != 2 {
			t.Errorf("Transmit with one receiver scheduled %d events, want 2", got)
		}
		if !a.Transmitting() || !a.Busy() {
			t.Error("sender not transmitting at the start of its airtime")
		}
		before = s.Len()
		c.Transmit(lone, testFrame(2, 0), airtime)
		if got := s.Len() - before; got != 0 {
			t.Errorf("Transmit with an empty neighbourhood scheduled %d events, want 0", got)
		}
	})
	s.Run()
	if lone.Transmitting() || a.Transmitting() {
		t.Fatal("radios still transmitting after the run")
	}
}

func TestZeroRangeChannelStillRuns(t *testing.T) {
	// A degenerate zero-range channel must build its grid and run (nothing
	// is ever in range) rather than panic on a zero cell size.
	s := sim.NewScheduler()
	c := NewChannel(s, 0, 0, geo.Field(10, 10))
	a := c.Attach(0, fixed(0, 0), &recorder{})
	rb := &recorder{}
	c.Attach(1, fixed(1, 0), rb)
	c.Transmit(a, testFrame(0, 1), sim.Millisecond)
	s.Run()
	if len(rb.frames) != 0 || rb.ups != 0 {
		t.Fatalf("zero-range channel delivered: frames=%d ups=%d", len(rb.frames), rb.ups)
	}
}

func TestMovingNodeOutOfRangeNotReached(t *testing.T) {
	s := sim.NewScheduler()
	c := NewChannel(s, 250, 550, geo.Field(1000, 1000))
	a := c.Attach(0, fixed(0, 0), &recorder{})
	rb := &recorder{}
	// Node starts far away and "teleports" close only after the frame
	// was sent — range is evaluated at transmission start.
	pos := func(t sim.Time) geo.Point {
		if t < sim.Time(sim.Millisecond) {
			return geo.Point{X: 1000, Y: 0}
		}
		return geo.Point{X: 10, Y: 0}
	}
	c.Attach(1, pos, rb)

	s.At(0, func() { c.Transmit(a, testFrame(0, 1), sim.Millisecond) })
	s.Run()
	if len(rb.frames) != 0 {
		t.Fatal("frame reached a node that was out of range at tx start")
	}
}
