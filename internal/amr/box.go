// Package amr implements 2D structured adaptive mesh refinement in the
// Berger–Colella style: a hierarchy of logically rectangular patches,
// recursively refined by a constant ratio over flagged regions, with
// point clustering, proper nesting, and load-balanced domain
// decomposition. It is the stand-in for the GrACE data-management
// library the paper wraps into its GrACEComponent.
package amr

import "fmt"

// Box is a rectangle in a level's integer index space. Lo and Hi are
// inclusive cell indices, so a Box with Lo==Hi contains one cell. The
// zero Box is the single cell at the origin; emptiness is represented
// explicitly by Hi < Lo in any direction.
type Box struct {
	Lo, Hi [2]int
}

// NewBox builds a box from corner indices (inclusive).
func NewBox(lox, loy, hix, hiy int) Box {
	return Box{Lo: [2]int{lox, loy}, Hi: [2]int{hix, hiy}}
}

// Empty reports whether the box contains no cells.
func (b Box) Empty() bool {
	return b.Hi[0] < b.Lo[0] || b.Hi[1] < b.Lo[1]
}

// Size returns the cell extents (nx, ny); zero/negative dims mean empty.
func (b Box) Size() (int, int) {
	return b.Hi[0] - b.Lo[0] + 1, b.Hi[1] - b.Lo[1] + 1
}

// NumCells is the total cell count, 0 for empty boxes.
func (b Box) NumCells() int {
	nx, ny := b.Size()
	if nx <= 0 || ny <= 0 {
		return 0
	}
	return nx * ny
}

// Contains reports whether (i, j) lies inside the box.
func (b Box) Contains(i, j int) bool {
	return i >= b.Lo[0] && i <= b.Hi[0] && j >= b.Lo[1] && j <= b.Hi[1]
}

// ContainsBox reports whether o lies entirely inside b. An empty o is
// contained in anything.
func (b Box) ContainsBox(o Box) bool {
	if o.Empty() {
		return true
	}
	return o.Lo[0] >= b.Lo[0] && o.Hi[0] <= b.Hi[0] && o.Lo[1] >= b.Lo[1] && o.Hi[1] <= b.Hi[1]
}

// Intersect returns the overlap of two boxes (possibly empty).
func (b Box) Intersect(o Box) Box {
	r := Box{}
	for d := 0; d < 2; d++ {
		r.Lo[d] = max(b.Lo[d], o.Lo[d])
		r.Hi[d] = min(b.Hi[d], o.Hi[d])
	}
	return r
}

// Intersects reports whether the boxes share at least one cell.
func (b Box) Intersects(o Box) bool {
	return !b.Intersect(o).Empty()
}

// Grow expands the box by n cells on every side (n may be negative to
// shrink).
func (b Box) Grow(n int) Box {
	return Box{
		Lo: [2]int{b.Lo[0] - n, b.Lo[1] - n},
		Hi: [2]int{b.Hi[0] + n, b.Hi[1] + n},
	}
}

// Refine maps the box to the index space one level finer with the given
// ratio: each coarse cell becomes ratio×ratio fine cells.
func (b Box) Refine(ratio int) Box {
	return Box{
		Lo: [2]int{b.Lo[0] * ratio, b.Lo[1] * ratio},
		Hi: [2]int{(b.Hi[0]+1)*ratio - 1, (b.Hi[1]+1)*ratio - 1},
	}
}

// Coarsen maps the box to the next coarser index space (floor division,
// correct for negative indices too). A fine box maps onto every coarse
// cell it touches.
func (b Box) Coarsen(ratio int) Box {
	return Box{
		Lo: [2]int{floorDiv(b.Lo[0], ratio), floorDiv(b.Lo[1], ratio)},
		Hi: [2]int{floorDiv(b.Hi[0], ratio), floorDiv(b.Hi[1], ratio)},
	}
}

// BoundingBox returns the smallest box covering both operands.
func (b Box) BoundingBox(o Box) Box {
	if b.Empty() {
		return o
	}
	if o.Empty() {
		return b
	}
	r := Box{}
	for d := 0; d < 2; d++ {
		r.Lo[d] = min(b.Lo[d], o.Lo[d])
		r.Hi[d] = max(b.Hi[d], o.Hi[d])
	}
	return r
}

// Equal reports exact equality.
func (b Box) Equal(o Box) bool { return b == o }

func (b Box) String() string {
	return fmt.Sprintf("[(%d,%d)-(%d,%d)]", b.Lo[0], b.Lo[1], b.Hi[0], b.Hi[1])
}

// SplitX cuts the box at index i: the left part keeps columns < i, the
// right part keeps columns >= i.
func (b Box) SplitX(i int) (Box, Box) {
	left := b
	left.Hi[0] = i - 1
	right := b
	right.Lo[0] = i
	return left, right
}

// SplitY cuts the box at row j.
func (b Box) SplitY(j int) (Box, Box) {
	bot := b
	bot.Hi[1] = j - 1
	top := b
	top.Lo[1] = j
	return bot, top
}

// Subtract returns b minus o as a list of disjoint boxes covering every
// cell of b outside o.
func (b Box) Subtract(o Box) []Box {
	ov := b.Intersect(o)
	if ov.Empty() {
		return []Box{b}
	}
	if ov == b {
		return nil
	}
	var out []Box
	rest := b
	// Slabs below and above the overlap in y.
	if rest.Lo[1] < ov.Lo[1] {
		bot, top := rest.SplitY(ov.Lo[1])
		out = append(out, bot)
		rest = top
	}
	if rest.Hi[1] > ov.Hi[1] {
		bot, top := rest.SplitY(ov.Hi[1] + 1)
		out = append(out, top)
		rest = bot
	}
	// Slabs left and right of the overlap in x.
	if rest.Lo[0] < ov.Lo[0] {
		l, r := rest.SplitX(ov.Lo[0])
		out = append(out, l)
		rest = r
	}
	if rest.Hi[0] > ov.Hi[0] {
		l, r := rest.SplitX(ov.Hi[0] + 1)
		out = append(out, r)
		rest = l
	}
	return out
}

// DecomposeUniform partitions the box into an approximately pn×pm grid
// of sub-boxes, one per rank, choosing the process grid that minimizes
// the aspect-ratio penalty. It returns exactly n boxes (some may repeat
// empty if n exceeds the cell count).
func (b Box) DecomposeUniform(n int) []Box {
	if n <= 0 {
		return nil
	}
	nx, ny := b.Size()
	// Pick px*py == n with px/py as close to nx/ny as possible.
	bestPx, bestPy := 1, n
	bestScore := -1.0
	for px := 1; px <= n; px++ {
		if n%px != 0 {
			continue
		}
		py := n / px
		// Score: perimeter-to-area proxy (lower better).
		w := float64(nx) / float64(px)
		h := float64(ny) / float64(py)
		if w < 1 || h < 1 {
			continue
		}
		score := w + h
		if bestScore < 0 || score < bestScore {
			bestScore = score
			bestPx, bestPy = px, py
		}
	}
	out := make([]Box, 0, n)
	for pj := 0; pj < bestPy; pj++ {
		j0 := b.Lo[1] + pj*ny/bestPy
		j1 := b.Lo[1] + (pj+1)*ny/bestPy - 1
		for pi := 0; pi < bestPx; pi++ {
			i0 := b.Lo[0] + pi*nx/bestPx
			i1 := b.Lo[0] + (pi+1)*nx/bestPx - 1
			out = append(out, NewBox(i0, j0, i1, j1))
		}
	}
	return out
}

func floorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}
