package amr

import "sort"

// Generation identifies the shape of the hierarchy: the successor
// Regrid returns counts one more than its receiver. Telemetry stamps
// it on every event, so a run's timeline shows where each regrid
// landed.
func (h *Hierarchy) Generation() int { return h.Regrids }

// Neighbors returns, for each patch on the level (by slice position),
// the positions of the other patches within `ghost` cells of it — the
// pairs whose grown boxes overlap and can therefore exchange ghost
// data. The lists are sorted ascending and symmetric.
//
// A sweep over patches sorted by Box.Lo[0] prunes the all-pairs scan:
// a candidate further right than the grown box of the current patch
// cannot touch it, nor can anything after it in the sorted order.
func (lv *Level) Neighbors(ghost int) [][]int {
	n := len(lv.Patches)
	out := make([][]int, n)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		pa, pb := lv.Patches[order[a]].Box, lv.Patches[order[b]].Box
		if pa.Lo[0] != pb.Lo[0] {
			return pa.Lo[0] < pb.Lo[0]
		}
		return order[a] < order[b]
	})
	for ai := 0; ai < n; ai++ {
		a := order[ai]
		ga := lv.Patches[a].Box.Grow(ghost)
		for bi := ai + 1; bi < n; bi++ {
			b := order[bi]
			if lv.Patches[b].Box.Lo[0] > ga.Hi[0] {
				break
			}
			// Proximity is symmetric: a.Grow(g) meets b iff b.Grow(g)
			// meets a.
			if ga.Intersects(lv.Patches[b].Box) {
				out[a] = append(out[a], b)
				out[b] = append(out[b], a)
			}
		}
	}
	for i := range out {
		sort.Ints(out[i])
	}
	return out
}
