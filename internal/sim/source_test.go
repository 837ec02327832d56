package sim

import (
	"math"
	"math/rand"
	"testing"
)

// refRNG mirrors RNG's methods over a plain math/rand source: the stream
// every RNG must reproduce draw for draw.
type refRNG struct{ r *rand.Rand }

func newRef(seed int64) refRNG { return refRNG{rand.New(rand.NewSource(seed))} }

func (g refRNG) Derive(label string) refRNG { return newRef(DeriveSeed(g.r.Int63(), label)) }

// sourceSeeds are the seeds math/rand's seeding treats specially (zero and
// its stand-in, the reduction modulus either side, the int64 extremes)
// plus the seeds around them.
var sourceSeeds = []int64{
	0, 1, -1, 89482311, int32max, -int32max, int32max - 1, -(int32max - 1),
	int32max + 1, 1 << 31, -(1 << 31), math.MinInt64, math.MaxInt64,
	math.MinInt64 + 1, math.MaxInt64 - 1,
}

// sourceDrawCounts straddle the lazy draws (the first rngTap), the build,
// the first wrap of the tap and feed indices (rngLen) and a long run.
var sourceDrawCounts = []int{1, 272, 273, 274, 606, 607, 608, 1500}

// compareMethods steps both streams through every RNG method, chosen by
// op, and reports the first mismatch.
func compareMethods(t *testing.T, seed int64, g *RNG, ref refRNG, draws int) {
	t.Helper()
	f := math.Float64bits
	for d := 0; d < draws; d++ {
		var got, want uint64
		switch op := d % 8; op {
		case 0:
			got, want = f(g.Float64()), f(ref.r.Float64())
		case 1:
			got, want = f(g.Uniform(-3, 7)), f(-3+10*ref.r.Float64())
		case 2:
			got, want = uint64(g.Intn(1000+d)), uint64(ref.r.Intn(1000+d))
		case 3:
			got, want = uint64(g.Int63()), uint64(ref.r.Int63())
		case 4:
			got, want = f(g.Exp(2.5)), f(ref.r.ExpFloat64()*2.5)
		case 5:
			p, q := g.Perm(5), ref.r.Perm(5)
			for i := range p {
				got, want = got*5+uint64(p[i]), want*5+uint64(q[i])
			}
		case 6:
			got, want = uint64(g.Jitter(Second)), uint64(ref.r.Int63n(int64(Second)))
		case 7:
			got, want = g.r.Uint64(), ref.r.Uint64()
		}
		if got != want {
			t.Fatalf("seed %d: call %d (op %d) = %#x, math/rand gives %#x", seed, d, d%8, got, want)
		}
	}
}

// TestSourceMatchesMathRand pins lazySource to math/rand's rngSource: for
// every seed math/rand's seeding singles out and a few thousand random
// ones, at every draw count around the lazy draws, the build and the
// register's wrap, each RNG method, each Derive chain and each reseed
// through rand.Rand.Seed yields exactly math/rand's values.
func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range sourceSeeds {
		for _, n := range sourceDrawCounts {
			g, ref := NewRNG(seed), newRef(seed)
			for d := 0; d < n; d++ {
				if a, b := g.src.Uint64(), ref.r.Uint64(); a != b {
					t.Fatalf("seed %d: draw %d = %d, math/rand gives %d", seed, d, a, b)
				}
			}
			// Derive chains from a stream n draws in, three deep.
			dg, dref := g, ref
			for depth := 0; depth < 3; depth++ {
				dg, dref = dg.Derive("node/7"), dref.Derive("node/7")
				compareMethods(t, seed, dg, dref, 40)
			}
			// Reseeding mid-stream restarts the new seed's stream.
			next := seed ^ int64(n)*0x9e3779b9
			g.r.Seed(next)
			ref.r.Seed(next)
			compareMethods(t, next, g, ref, 2*n)
		}
	}
	meta := rand.New(rand.NewSource(20051))
	for i := 0; i < 3000; i++ {
		seed := int64(meta.Uint64())
		if i%3 == 0 {
			seed = meta.Int63n(4*int32max) - 2*int32max // near the reduction
		}
		g, ref := NewRNG(seed), newRef(seed)
		draws := 300
		if i%10 == 0 {
			draws = 1500
		}
		compareMethods(t, seed, g, ref, draws)
	}
}

var rngSink *RNG

// TestRNGAllocations pins the memory property lazy seeding rests on: a
// stream costs one allocation (the RNG, its Rand and its source together)
// for as long as it only draws from unwritten register entries, and the
// first draw that needs a written one adds exactly one more, the register.
func TestRNGAllocations(t *testing.T) {
	for _, tc := range []struct{ draws, allocs int }{{0, 1}, {272, 1}, {rngTap, 1}, {rngTap + 1, 2}, {1500, 2}} {
		got := testing.AllocsPerRun(50, func() {
			rngSink = NewRNG(int64(tc.draws))
			for d := 0; d < tc.draws; d++ {
				rngSink.Int63()
			}
		})
		if got != float64(tc.allocs) {
			t.Errorf("NewRNG + %d draws: %v allocs, want %d", tc.draws, got, tc.allocs)
		}
	}
}

// BenchmarkNewRNG seeds a stream and takes three draws, the median
// stream's whole life in the paper-grid workload; math-rand is the same
// on math/rand's eagerly seeded source.
func BenchmarkNewRNG(b *testing.B) {
	b.Run("sim", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g := NewRNG(int64(i))
			g.Int63()
			g.Int63()
			g.Int63()
			rngSink = g
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := rand.New(rand.NewSource(int64(i)))
			r.Int63()
			r.Int63()
			r.Int63()
		}
	})
}

// BenchmarkRNGDraw draws from a stream whose register is built: the cost
// every draw past the first 273 pays.
func BenchmarkRNGDraw(b *testing.B) {
	b.Run("sim", func(b *testing.B) {
		g := NewRNG(1)
		for d := 0; d < rngLen; d++ {
			g.Int63()
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			g.Int63()
		}
	})
	b.Run("math-rand", func(b *testing.B) {
		r := rand.New(rand.NewSource(1))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Int63()
		}
	})
}
