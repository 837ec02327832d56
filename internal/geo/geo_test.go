package geo

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestDistance(t *testing.T) {
	a := Point{0, 0}
	b := Point{3, 4}
	if d := a.DistanceTo(b); d != 5 {
		t.Fatalf("distance = %v, want 5", d)
	}
	if d := a.DistanceSqTo(b); d != 25 {
		t.Fatalf("distanceSq = %v, want 25", d)
	}
	if d := a.DistanceTo(a); d != 0 {
		t.Fatalf("self distance = %v", d)
	}
}

func TestDistanceSymmetryProperty(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		if math.IsNaN(ax) || math.IsNaN(ay) || math.IsNaN(bx) || math.IsNaN(by) {
			return true
		}
		// Keep coordinates in a sane range to avoid inf overflow.
		clamp := func(v float64) float64 { return math.Mod(v, 1e6) }
		a := Point{clamp(ax), clamp(ay)}
		b := Point{clamp(bx), clamp(by)}
		d1 := a.DistanceTo(b)
		d2 := b.DistanceTo(a)
		return d1 == d2 && d1 >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTriangleInequalityProperty(t *testing.T) {
	f := func(coords [6]int16) bool {
		a := Point{float64(coords[0]), float64(coords[1])}
		b := Point{float64(coords[2]), float64(coords[3])}
		c := Point{float64(coords[4]), float64(coords[5])}
		return a.DistanceTo(c) <= a.DistanceTo(b)+b.DistanceTo(c)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLerp(t *testing.T) {
	a := Point{0, 0}
	b := Point{10, 20}
	mid := a.Lerp(b, 0.5)
	if mid.X != 5 || mid.Y != 10 {
		t.Fatalf("midpoint = %v", mid)
	}
	if a.Lerp(b, 0) != a {
		t.Fatal("Lerp(0) != start")
	}
	if a.Lerp(b, 1) != b {
		t.Fatal("Lerp(1) != end")
	}
}

func TestPointAddString(t *testing.T) {
	p := Point{1, 2}.Add(0.5, -0.5)
	if p.X != 1.5 || p.Y != 1.5 {
		t.Fatalf("Add = %v", p)
	}
	if p.String() != "(1.50, 1.50)" {
		t.Fatalf("String = %q", p.String())
	}
}

func TestRect(t *testing.T) {
	r := Field(1000, 500)
	if r.Width() != 1000 || r.Height() != 500 {
		t.Fatalf("dims = %v x %v", r.Width(), r.Height())
	}
	if !r.Contains(Point{0, 0}) || !r.Contains(Point{1000, 500}) {
		t.Fatal("boundary not contained")
	}
	if r.Contains(Point{-1, 0}) || r.Contains(Point{0, 501}) {
		t.Fatal("outside point contained")
	}
	c := r.Clamp(Point{-50, 700})
	if c.X != 0 || c.Y != 500 {
		t.Fatalf("clamp = %v", c)
	}
}

func TestClampIdempotentProperty(t *testing.T) {
	r := Field(1000, 1000)
	f := func(x, y float64) bool {
		if math.IsNaN(x) || math.IsNaN(y) {
			return true
		}
		c := r.Clamp(Point{x, y})
		return r.Contains(c) && r.Clamp(c) == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGridBasic(t *testing.T) {
	g := NewGrid(Field(1000, 1000), 250)
	g.Update(1, Point{100, 100})
	g.Update(2, Point{110, 100})
	g.Update(3, Point{900, 900})
	got := withinIDs(g, Point{105, 100}, 50)
	if len(got) != 2 {
		t.Fatalf("WithinRangeHits found %v", got)
	}
	if g.Len() != 3 {
		t.Fatalf("Len = %d", g.Len())
	}
	p, ok := g.Position(3)
	if !ok || p.X != 900 {
		t.Fatalf("Position(3) = %v %v", p, ok)
	}
}

func TestGridMove(t *testing.T) {
	g := NewGrid(Field(1000, 1000), 100)
	g.Update(1, Point{50, 50})
	g.Update(1, Point{950, 950}) // crosses many cells
	got := withinIDs(g, Point{50, 50}, 60)
	if len(got) != 0 {
		t.Fatalf("stale entry after move: %v", got)
	}
	got = withinIDs(g, Point{950, 950}, 10)
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("moved entry not found: %v", got)
	}
}

func TestGridMoveWithinCell(t *testing.T) {
	g := NewGrid(Field(1000, 1000), 500)
	g.Update(1, Point{100, 100})
	g.Update(1, Point{120, 120}) // same cell, exact position must update
	got := withinIDs(g, Point{120, 120}, 1)
	if len(got) != 1 {
		t.Fatalf("exact position not updated: %v", got)
	}
	got = withinIDs(g, Point{100, 100}, 1)
	if len(got) != 0 {
		t.Fatalf("old position still matches: %v", got)
	}
}

func TestGridRemove(t *testing.T) {
	g := NewGrid(Field(100, 100), 10)
	g.Update(7, Point{5, 5})
	g.Remove(7)
	g.Remove(7) // double remove is a no-op
	if g.Len() != 0 {
		t.Fatalf("Len after remove = %d", g.Len())
	}
	if got := withinIDs(g, Point{5, 5}, 50); len(got) != 0 {
		t.Fatalf("removed item found: %v", got)
	}
	if _, ok := g.Position(7); ok {
		t.Fatal("Position returns removed item")
	}
}

func TestGridOutOfBoundsClamped(t *testing.T) {
	g := NewGrid(Field(100, 100), 10)
	g.Update(1, Point{-5, 105}) // clamped to an edge cell, not a panic
	got := withinIDs(g, Point{0, 100}, 10)
	if len(got) != 1 {
		t.Fatalf("edge item not found: %v", got)
	}
}

func TestGridZeroCellPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero cell size did not panic")
		}
	}()
	NewGrid(Field(10, 10), 0)
}

// Property: grid range query returns exactly the brute-force answer.
func TestGridMatchesBruteForceProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		g := NewGrid(Field(1000, 1000), 125)
		pts := make(map[int32]Point)
		n := 5 + rng.Intn(100)
		for i := 0; i < n; i++ {
			p := Point{rng.Float64() * 1000, rng.Float64() * 1000}
			pts[int32(i)] = p
			g.Update(int32(i), p)
		}
		// Random moves, including repeated moves of the same ID.
		for i := 0; i < 40; i++ {
			id := int32(rng.Intn(n))
			p := Point{rng.Float64() * 1000, rng.Float64() * 1000}
			pts[id] = p
			g.Update(id, p)
		}
		centre := Point{rng.Float64() * 1000, rng.Float64() * 1000}
		radius := rng.Float64() * 400
		got := withinIDs(g, centre, radius)
		var want []int32
		for id, p := range pts {
			if p.DistanceSqTo(centre) <= radius*radius {
				want = append(want, id)
			}
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d items, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: got %v want %v", trial, got, want)
			}
		}
	}
}

func BenchmarkGridWithinRange(b *testing.B) {
	g := NewGrid(Field(1000, 1000), 250)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50; i++ {
		g.Update(int32(i), Point{rng.Float64() * 1000, rng.Float64() * 1000})
	}
	buf := make([]Hit, 0, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = g.WithinRangeHits(Point{500, 500}, 250, buf[:0])
	}
}
