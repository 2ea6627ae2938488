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

func sorSizes(sc Scale) sorParams {
	switch sc {
	case Unit:
		return sorParams{rows: 48, cols: 48, iters: 4}
	case Small:
		return sorParams{rows: 384, cols: 384, iters: 10}
	default: // Paper
		return sorParams{rows: 2000, cols: 2000, iters: 50}
	}
}

// sorInit gives the initial grid value at (i, j); the top boundary is hot.
func sorInit(i, j, cols int) float64 {
	if i == 0 {
		return 1.0
	}
	return float64((i*31+j*17)%97) / 97.0
}

// BuildSOR constructs the SOR application.
func BuildSOR(sys *dsm.System, opt Options) *Instance {
	p := sorSizes(opt.Scale)
	R, C := p.rows+2, p.cols+2 // including boundary
	grid := allocF64s(sys, R*C)
	var box errBox

	idx := func(i, j int) int { return i*C + j }

	// halfSweep updates every interior cell of the given color in rows
	// [lo, hi), interior-first when pipelining so boundary-row prefetches
	// have time to land.
	halfSweep := func(e *dsm.Env, color, lo, hi int, pipelined bool) {
		order := make([]int, 0, hi-lo)
		if pipelined && hi-lo > 2 {
			for i := lo + 1; i < hi-1; i++ {
				order = append(order, i)
			}
			order = append(order, lo, hi-1)
		} else {
			for i := lo; i < hi; i++ {
				order = append(order, i)
			}
		}
		for _, i := range order {
			for j := 1 + (i+color+1)%2; j <= p.cols; j += 2 {
				up := e.ReadF64(grid.at(idx(i-1, j)))
				down := e.ReadF64(grid.at(idx(i+1, j)))
				left := e.ReadF64(grid.at(idx(i, j-1)))
				right := e.ReadF64(grid.at(idx(i, j+1)))
				c := e.ReadF64(grid.at(idx(i, j)))
				e.WriteF64(grid.at(idx(i, j)), c+sorOmega*((up+down+left+right)/4-c))
				e.Compute(costStencil)
			}
		}
	}

	run := func(e *dsm.Env) {
		if e.ThreadID() == 0 {
			for i := 0; i < R; i++ {
				for j := 0; j < C; j++ {
					e.WriteF64(grid.at(idx(i, j)), sorInit(i, j, C))
					e.Compute(20)
				}
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
				box.set(sorVerify(e, grid, p, idx))
			}
		}
		e.Barrier(bar + 1)
	}

	return &Instance{Name: "SOR", Run: run, Err: box.get}
}

// sorVerify recomputes the grid sequentially in plain Go and compares
// bitwise: red-black updates within a half-sweep are order-independent, so
// the parallel result must match exactly.
func sorVerify(e *dsm.Env, grid f64s, p sorParams, idx func(i, j int) int) error {
	R, C := p.rows+2, p.cols+2
	g := make([]float64, R*C)
	for i := 0; i < R; i++ {
		for j := 0; j < C; j++ {
			g[idx(i, j)] = sorInit(i, j, C)
		}
	}
	for it := 0; it < p.iters; it++ {
		for color := 0; color < 2; color++ {
			for i := 1; i <= p.rows; i++ {
				for j := 1 + (i+color+1)%2; j <= p.cols; j += 2 {
					c := g[idx(i, j)]
					g[idx(i, j)] = c + sorOmega*((g[idx(i-1, j)]+g[idx(i+1, j)]+g[idx(i, j-1)]+g[idx(i, j+1)])/4-c)
				}
			}
		}
	}
	for i := 0; i < R; i++ {
		for j := 0; j < C; j++ {
			got := e.ReadF64(grid.at(idx(i, j)))
			if got != g[idx(i, j)] {
				return fmt.Errorf("SOR: cell (%d,%d) = %v, want %v", i, j, got, g[idx(i, j)])
			}
		}
	}
	return nil
}
