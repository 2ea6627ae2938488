package apps

import (
	"fmt"

	"godsm/dsm"
)

// SOR: red-black successive over-relaxation over a 2D grid, the TreadMarks
// distribution's demo application. Rows are block-distributed over threads;
// each iteration performs a red half-sweep and a black half-sweep separated
// by barriers. The only remote data a thread touches are its neighbours'
// boundary rows.
//
// Prefetch insertion (Section 3.2): at the start of each half-sweep a
// thread prefetches the two neighbour boundary rows and then computes its
// interior rows first (loop splitting), giving the prefetches the length of
// the interior computation to complete before the boundary rows are needed.

const sorOmega = 0.5

type sorParams struct {
	rows, cols, iters int
}

// sorSizes are SOR's inputs at each scale.
var sorSizes = [3]sorParams{{rows: 48, cols: 48, iters: 4}, {rows: 384, cols: 384, iters: 10},
	{rows: 2000, cols: 2000, iters: 50}}

// sorInit gives the initial grid value at (i, j); the top boundary is hot.
func sorInit(i, j, cols int) float64 {
	if i == 0 {
		return 1.0
	}
	return float64((i*31+j*17)%97) / 97.0
}

// sorRow relaxes q cells of one colour, two columns apart. mid starts one
// cell left of the first of them and up and down right above and below it,
// so cell x is mid[2x+1] and its neighbours up[2x], down[2x], mid[2x] and
// mid[2x+2].
func sorRow(up, mid, down []float64, q int) {
	for x := 0; x < 2*q; x += 2 {
		c := mid[x+1]
		mid[x+1] = c + sorOmega*((up[x]+down[x]+mid[x]+mid[x+2])/4-c)
	}
}

// stencilAt reads, through the accessors, the five-point neighbourhood of
// the cell at word x of a run whose first three lanes are laid out as
// sorRow's rows — up, down, left, right, centre — into s, and returns it as
// width-one rows.
func stencilAt(e *dsm.Env, s *[5]float64, l *[4]lane, x int) (u, m, d []float64) {
	mid := l[1].at(x)
	s[0], s[4], s[1], s[3], s[2] = e.ReadF64(l[0].at(x)), e.ReadF64(l[2].at(x)), e.ReadF64(mid), e.ReadF64(mid+16), e.ReadF64(mid+8)
	return s[:1], s[1:4], s[4:]
}

// BuildSOR constructs the SOR application.
func BuildSOR(sys *dsm.System, opt Options) *Instance {
	p := sized(opt.Scale, sorSizes)
	R, C := p.rows+2, p.cols+2 // including boundary
	grid := allocWords[float64](sys, R*C)
	var box errBox

	idx := func(i, j int) int { return i*C + j }

	// sweepRow updates every interior cell of the given color in row i.
	sweepRow := func(e *dsm.Env, color, i int) {
		j := 1 + (i+color+1)%2
		lanes := [4]lane{{a: grid.at(idx(i-1, j))}, {a: grid.at(idx(i, j-1)), halo: 2, write: true}, {a: grid.at(idx(i+1, j))}}
		eachRun(e, lanes, p.cols+1-j, 2, 6, costStencil,
			func(v [4][]float64, _, q int) int { sorRow(v[0], v[1], v[2], q); return q },
			func(x int) {
				var s [5]float64
				u, m, d := stencilAt(e, &s, &lanes, x)
				sorRow(u, m, d, 1)
				e.WriteF64(lanes[1].at(x)+8, m[1])
			})
	}

	// halfSweep updates rows [lo, hi), interior-first when pipelining so
	// boundary-row prefetches have time to land.
	halfSweep := func(e *dsm.Env, color, lo, hi int, pipelined bool) {
		if pipelined && hi-lo > 2 {
			for i := lo + 1; i < hi-1; i++ {
				sweepRow(e, color, i)
			}
			sweepRow(e, color, lo)
			sweepRow(e, color, hi-1)
			return
		}
		for i := lo; i < hi; i++ {
			sweepRow(e, color, i)
		}
	}

	run := func(e *dsm.Env) {
		if e.ThreadID() == 0 {
			row := make([]float64, C)
			for i := 0; i < R; i++ {
				for j := range row {
					row[j] = sorInit(i, j, C)
				}
				writeWords(e, grid.at(idx(i, 0)), row, 20)
			}
		}
		e.Barrier(0)

		lo, hi := e.ThreadRange(p.rows)
		lo, hi = lo+1, hi+1 // interior rows are 1..rows
		bar := 1
		for it := 0; it < p.iters; it++ {
			for color := 0; color < 2; color++ {
				if e.Prefetching() && hi > lo {
					// Neighbour boundary rows are the remote data.
					e.PrefetchRange(grid.at(idx(lo-1, 0)), 8*C)
					e.PrefetchRange(grid.at(idx(hi, 0)), 8*C)
				}
				halfSweep(e, color, lo, hi, e.Prefetching())
				e.Barrier(bar)
				bar++
			}
		}
		e.Barrier(bar)

		if e.ThreadID() == 0 {
			e.EndMeasurement()
			if opt.Verify {
				box.set(sorVerify(e, grid, p))
			}
		}
		e.Barrier(bar + 1)
	}

	return &Instance{Name: "SOR", Run: run, Err: box.get}
}

// sorVerify recomputes the grid sequentially and compares bitwise:
// red-black updates within a half-sweep are order-independent, so the
// parallel result must match exactly.
func sorVerify(e *dsm.Env, grid f64s, p sorParams) error {
	R, C := p.rows+2, p.cols+2
	g := make([]float64, R*C)
	for i := 0; i < R; i++ {
		for j := 0; j < C; j++ {
			g[i*C+j] = sorInit(i, j, C)
		}
	}
	for it := 0; it < p.iters; it++ {
		for color := 0; color < 2; color++ {
			for i := 1; i <= p.rows; i++ {
				j := 1 + (i+color+1)%2
				sorRow(g[(i-1)*C+j:], g[i*C+j-1:], g[(i+1)*C+j:], (p.cols-j)/2+1)
			}
		}
	}
	if x, got := firstDiff(e, grid.at(0), g); x >= 0 {
		return fmt.Errorf("SOR: cell (%d,%d) = %v, want %v", x/C, x%C, got, g[x])
	}
	return nil
}
