package phy

import (
	"math/rand"
	"testing"

	"mtsim/internal/geo"
	"mtsim/internal/packet"
	"mtsim/internal/sim"
)

// flipper is a test Listener that flips quiet flags in RxEnd — its own
// and random other radios' — so radios turn loud and quiet in the middle
// of a walk, before and after the walk's cursor. It records whether it got
// an energy edge since the last check.
type flipper struct {
	t     *testing.T
	r     *Radio
	rng   *rand.Rand
	flips *int // quiet-to-loud flips of other radios
	edge  bool
}

func (f *flipper) EnergyUp()   { f.onEdge("EnergyUp") }
func (f *flipper) EnergyDown() { f.onEdge("EnergyDown") }

func (f *flipper) onEdge(name string) {
	if f.r.quiet {
		f.t.Fatalf("radio %d got %s while quiet", f.r.idx, name)
	}
	f.edge = true
}

func (f *flipper) RxEnd(*packet.Frame, bool) {
	radios := f.r.ch.radios
	if f.rng.Intn(2) == 0 {
		f.r.SetQuiet(!f.r.quiet)
	}
	if f.rng.Intn(2) == 0 {
		o := radios[f.rng.Intn(len(radios))]
		if o.quiet {
			*f.flips++
		}
		o.SetQuiet(!o.quiet)
	}
}

// TestImplicitEnergyMatchesShadow runs overlapping transmissions among 90
// radios (two bitset words) whose listeners flip quiet flags in RxEnd, and
// keeps a shadow count per radio from OnPass: up as each first-bit walk
// passes it, down as each last-bit walk does. At every pass, every radio's
// count must match its shadow — the cursor-based recount always, and the
// explicit count too while the radio is loud — and the passed radio must
// have got its energy edge exactly when the old explicit rule gives one:
// a loud radio whose count rose to one or, after RxEnd, fell to zero.
func TestImplicitEnergyMatchesShadow(t *testing.T) {
	for _, unbatched := range []bool{false, true} {
		name := "batched"
		if unbatched {
			name = "unbatched"
		}
		t.Run(name, func(t *testing.T) {
			s := sim.NewScheduler()
			c := NewChannel(s, DefaultRxRange, DefaultCSRange, geo.Field(900, 900))
			c.UseUnbatchedArrivals(unbatched)
			rng := rand.New(rand.NewSource(3))
			flips := 0
			const n = 90
			lis := make([]*flipper, n)
			for i := range lis {
				lis[i] = &flipper{t: t, rng: rng, flips: &flips}
				x, y := rng.Float64()*900, rng.Float64()*900
				lis[i].r = c.Attach(packet.NodeID(i), fixed(x, y), lis[i])
				lis[i].r.SetMaxSpeed(0)
				lis[i].r.SetQuiet(rng.Intn(2) == 0)
			}
			shadow := make([]int, n)
			passes, quietPasses := 0, 0
			c.OnPass = func(r *Radio, first bool) {
				passes++
				if first {
					shadow[r.idx]++
				} else {
					shadow[r.idx]--
				}
				for _, o := range c.radios {
					if got := c.recount(o); got != shadow[o.idx] {
						t.Fatalf("at %v, passing radio %d: radio %d recounts %d, shadow %d", s.Now(), r.idx, o.idx, got, shadow[o.idx])
					}
					if !o.quiet && o.energy != shadow[o.idx] {
						t.Fatalf("at %v: loud radio %d counts %d, shadow %d", s.Now(), o.idx, o.energy, shadow[o.idx])
					}
				}
				f := lis[r.idx]
				want := !r.quiet && (first && shadow[r.idx] == 1 || !first && shadow[r.idx] == 0)
				if f.edge != want {
					t.Fatalf("at %v: radio %d (first=%v, count %d, quiet %v) got edge %v, want %v",
						s.Now(), r.idx, first, shadow[r.idx], r.quiet, f.edge, want)
				}
				if r.quiet {
					quietPasses++
				}
				f.edge = false
			}
			for k := 0; k < 400; k++ {
				tx := lis[rng.Intn(n)].r
				at := sim.Time(rng.Int63n(int64(200 * sim.Millisecond)))
				airtime := sim.Duration(100+rng.Int63n(900)) * sim.Microsecond
				f := &packet.Frame{UID: uint64(k + 1), Kind: packet.FrameData, TxTo: packet.Broadcast}
				s.At(at, func() { c.Transmit(tx, f, airtime) })
			}
			s.Run()
			if len(c.inflight) != 0 {
				t.Fatalf("%d batches still in flight", len(c.inflight))
			}
			for _, o := range c.radios {
				if o.Energy() != 0 || shadow[o.idx] != 0 {
					t.Fatalf("radio %d ends with count %d, shadow %d", o.idx, o.Energy(), shadow[o.idx])
				}
			}
			if quietPasses == 0 || quietPasses == passes || flips == 0 {
				t.Fatalf("degenerate run: %d passes, %d of quiet radios, %d flips of other radios to loud", passes, quietPasses, flips)
			}
		})
	}
}
