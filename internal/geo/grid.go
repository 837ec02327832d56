package geo

import "math"

// Grid is a uniform-grid spatial index mapping integer item IDs to points.
// Cell size should be on the order of the query radius; range queries then
// touch only the 3×3 (or slightly larger) block of cells around the centre
// instead of scanning every item.
//
// The simulator uses it to find the receivers of a radio transmission: all
// nodes within carrier-sense range of a transmitter.
type Grid struct {
	cell   float64
	origin Point
	cols   int
	rows   int
	cells  [][]cellItem // cell index -> items (id + position)
	where  []int32      // item id -> cell index, or -1 when absent
	n      int          // indexed items
}

// cellItem stores the position inline with the id so that a range query —
// the hot path — never leaves the cell lists.
type cellItem struct {
	id int32
	p  Point
}

// NewGrid creates an index over the given bounds with the given cell size.
// Items may lie outside the bounds (they are clamped to the edge cells), so
// bounds affect only query efficiency, never correctness; this tolerates
// floating-point drift at field borders and nodes wandering off-field.
func NewGrid(bounds Rect, cellSize float64) *Grid {
	if cellSize <= 0 {
		panic("geo: non-positive cell size")
	}
	cols := max(int(math.Ceil(bounds.Width()/cellSize))+1, 1)
	rows := max(int(math.Ceil(bounds.Height()/cellSize))+1, 1)
	return &Grid{
		cell:   cellSize,
		origin: Point{bounds.MinX, bounds.MinY},
		cols:   cols,
		rows:   rows,
		cells:  make([][]cellItem, cols*rows),
	}
}

func (g *Grid) cellIndex(p Point) int {
	cx := min(max(int((p.X-g.origin.X)/g.cell), 0), g.cols-1)
	cy := min(max(int((p.Y-g.origin.Y)/g.cell), 0), g.rows-1)
	return cy*g.cols + cx
}

// cellOf returns the index of the cell holding the item, or -1.
func (g *Grid) cellOf(id int32) int {
	if id < 0 || int(id) >= len(g.where) {
		return -1
	}
	return int(g.where[id])
}

// Update inserts the item or moves it to a new position. IDs must be
// non-negative and are meant to be dense: the index keeps one slot per ID
// up to the largest seen.
func (g *Grid) Update(id int32, p Point) {
	if id < 0 {
		panic("geo: negative item id")
	}
	newCell := g.cellIndex(p)
	if old := g.cellOf(id); old >= 0 {
		if old == newCell {
			items := g.cells[old]
			for i := range items {
				if items[i].id == id {
					items[i].p = p
					return
				}
			}
			panic("geo: grid cell missing indexed item")
		}
		g.removeFromCell(id, old)
	} else {
		for len(g.where) <= int(id) {
			g.where = append(g.where, -1)
		}
		g.n++
	}
	g.cells[newCell] = append(g.cells[newCell], cellItem{id, p})
	g.where[id] = int32(newCell)
}

// Remove deletes the item; removing an absent item is a no-op.
func (g *Grid) Remove(id int32) {
	cell := g.cellOf(id)
	if cell < 0 {
		return
	}
	g.removeFromCell(id, cell)
	g.where[id] = -1
	g.n--
}

func (g *Grid) removeFromCell(id int32, cell int) {
	items := g.cells[cell]
	for i := range items {
		if items[i].id == id {
			items[i] = items[len(items)-1]
			g.cells[cell] = items[:len(items)-1]
			return
		}
	}
}

// Len returns the number of indexed items.
func (g *Grid) Len() int { return g.n }

// Position returns the stored position of an item.
func (g *Grid) Position(id int32) (Point, bool) {
	cell := g.cellOf(id)
	if cell < 0 {
		return Point{}, false
	}
	for _, it := range g.cells[cell] {
		if it.id == id {
			return it.p, true
		}
	}
	return Point{}, false
}

// Hit is one WithinRangeHits result: an item id together with the position
// snapshot the grid holds for it. Callers whose items cannot have drifted
// since their last Update (stationary radios) may use P directly and skip a
// second position lookup; for items that do drift, P is the snapshot the
// query radius was inflated against and the caller must re-check exactly.
type Hit struct {
	ID int32
	P  Point
}

// WithinRangeHits appends to dst one Hit per item within radius of centre
// (inclusive), carrying the stored position snapshot alongside the id, and
// returns the extended slice. The caller may pass a reused buffer to avoid
// allocation. Order is unspecified but deterministic for a given history
// of updates.
//
// Both block bounds are clamped into the grid, so a query centred beyond
// the indexed bounds still scans the edge cells where out-of-bounds items
// live: clamping is monotonic, so an item within radius always lands inside
// the scanned block no matter how far either point strays.
func (g *Grid) WithinRangeHits(centre Point, radius float64, dst []Hit) []Hit {
	r2 := radius * radius
	minCX := min(max(int((centre.X-radius-g.origin.X)/g.cell), 0), g.cols-1)
	maxCX := min(max(int((centre.X+radius-g.origin.X)/g.cell), 0), g.cols-1)
	minCY := min(max(int((centre.Y-radius-g.origin.Y)/g.cell), 0), g.rows-1)
	maxCY := min(max(int((centre.Y+radius-g.origin.Y)/g.cell), 0), g.rows-1)
	for cy := minCY; cy <= maxCY; cy++ {
		row := g.cells[cy*g.cols+minCX : cy*g.cols+maxCX+1]
		for _, items := range row {
			for _, it := range items {
				if it.p.DistanceSqTo(centre) <= r2 {
					dst = append(dst, Hit{ID: it.id, P: it.p})
				}
			}
		}
	}
	return dst
}
