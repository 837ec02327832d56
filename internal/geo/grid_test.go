package geo

import (
	"math/rand"
	"sort"
	"testing"
)

// The PHY treats carrier-sense range as inclusive (d² <= r²), so the grid
// must too: an item exactly on the query circle is a hit.
func TestGridWithinRangeInclusiveBoundary(t *testing.T) {
	g := NewGrid(Field(1000, 1000), 250)
	g.Update(1, Point{500, 500})
	g.Update(2, Point{750, 500}) // exactly radius away
	g.Update(3, Point{750.0001, 500})

	got := withinIDs(g, Point{500, 500}, 250)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("boundary item mishandled: %v", got)
	}
}

func TestGridRemoveAbsent(t *testing.T) {
	g := NewGrid(Field(100, 100), 10)
	g.Remove(42) // never inserted: must be a no-op, not a panic
	g.Update(1, Point{5, 5})
	g.Remove(42)
	if g.Len() != 1 {
		t.Fatalf("Len = %d after removing an absent id", g.Len())
	}
	if got := withinIDs(g, Point{5, 5}, 1); len(got) != 1 {
		t.Fatalf("present item lost: %v", got)
	}
}

// Items crossing a cell boundary in small steps must always be found at
// their current position and never at a stale one.
func TestGridCellBoundaryCrossing(t *testing.T) {
	g := NewGrid(Field(1000, 1000), 100)
	for x := 95.0; x <= 105; x += 1 { // walks across the x=100 cell edge
		g.Update(1, Point{x, 50})
		got := withinIDs(g, Point{x, 50}, 0.5)
		if len(got) != 1 || got[0] != 1 {
			t.Fatalf("item lost at x=%v: %v", x, got)
		}
		if prev := withinIDs(g, Point{x - 10, 50}, 0.5); len(prev) != 0 {
			t.Fatalf("stale position at x=%v: %v", x, prev)
		}
	}
}

// withinIDs returns the IDs WithinRangeHits finds within radius of centre.
func withinIDs(g *Grid, centre Point, radius float64) []int32 {
	var ids []int32
	for _, h := range g.WithinRangeHits(centre, radius, nil) {
		ids = append(ids, h.ID)
	}
	return ids
}

// WithinRangeHits must reuse the caller's buffer without allocating once
// its capacity suffices — the PHY calls it for every neighbour-class build.
func TestGridWithinRangeReusesBuffer(t *testing.T) {
	g := NewGrid(Field(1000, 1000), 250)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 64; i++ {
		g.Update(int32(i), Point{rng.Float64() * 1000, rng.Float64() * 1000})
	}
	buf := make([]Hit, 0, 128)
	allocs := testing.AllocsPerRun(100, func() {
		buf = g.WithinRangeHits(Point{500, 500}, 400, buf[:0])
	})
	if allocs != 0 {
		t.Fatalf("WithinRangeHits allocates %.1f objects/op with a sized buffer", allocs)
	}
	if len(buf) == 0 {
		t.Fatal("query returned nothing")
	}
}

// Property: the grid agrees with a brute-force scan even when items and
// query centres stray (far) outside the indexed bounds. Out-of-bounds items
// clamp into edge cells and the query block clamps monotonically, so
// correctness must not depend on the declared bounds at all.
func TestGridOutOfBoundsMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		g := NewGrid(Field(500, 500), 100)
		pts := make(map[int32]Point)
		n := 3 + rng.Intn(60)
		for i := 0; i < n; i++ {
			// Positions in [-1000, 2000): most outside the 500x500 bounds.
			p := Point{rng.Float64()*3000 - 1000, rng.Float64()*3000 - 1000}
			pts[int32(i)] = p
			g.Update(int32(i), p)
		}
		for i := 0; i < 20; i++ { // moves, also out of bounds
			id := int32(rng.Intn(n))
			p := Point{rng.Float64()*3000 - 1000, rng.Float64()*3000 - 1000}
			pts[id] = p
			g.Update(id, p)
		}
		centre := Point{rng.Float64()*3000 - 1000, rng.Float64()*3000 - 1000}
		radius := rng.Float64() * 600
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
			t.Fatalf("trial %d: got %v want %v (centre %v r %v)", trial, got, want, centre, radius)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: got %v want %v", trial, got, want)
			}
		}
	}
}
