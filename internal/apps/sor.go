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

// sorRow relaxes q cells of one colour, two columns apart. mid starts one
// cell left of the first of them and up and down right above and below it,
// so cell x is mid[2x+1] and its neighbours up[2x], down[2x], mid[2x] and
// mid[2x+2]. It is the sweep's arithmetic for rows whose pages all hit and
// for the sequential golden; sweepRow states it once more, an access at a
// time, for the cells whose pages do not.
func sorRow(up, mid, down []float64, q int) {
	for x := 0; x < 2*q; x += 2 {
		c := mid[x+1]
		mid[x+1] = c + sorOmega*((up[x]+down[x]+mid[x]+mid[x+2])/4-c)
	}
}

// stencilViews returns views of the five-point neighbourhoods of the w cells
// of a row that start at the cell right of mid, below up and above down: w
// elements at up and at down, w+2 at mid, writable if write is set. w is as
// many cells, at most limit, as lie before the three rows' next page ends;
// it is 0, and the views nil, if that is none or a page does not hit.
func stencilViews(e *dsm.Env, up, mid, down dsm.Addr, limit int, write bool) (u, m, d []float64, w int) {
	if w = min(limit, inPage(up), inPage(mid)-2, inPage(down)); w > 0 {
		if m = e.View(mid, w+2, write); m != nil {
			if u = e.View(up, w, false); u != nil {
				if d = e.View(down, w, false); d != nil {
					return u, m, d, w
				}
			}
		}
	}
	return nil, nil, nil, 0
}

// BuildSOR constructs the SOR application.
func BuildSOR(sys *dsm.System, opt Options) *Instance {
	p := sorSizes(opt.Scale)
	R, C := p.rows+2, p.cols+2 // including boundary
	grid := allocF64s(sys, R*C)
	var box errBox

	idx := func(i, j int) int { return i*C + j }

	// sweepRow updates every interior cell of the given color in row i: a
	// run of cells on views when the pages under their neighbourhoods all
	// hit, one cell through the accessors when not (a miss, a first write,
	// a neighbourhood that straddles a page end), then it asks again.
	sweepRow := func(e *dsm.Env, color, i int) {
		for j := 1 + (i+color+1)%2; j <= p.cols; j += 2 {
			ua, ma, da := grid.at(idx(i-1, j)), grid.at(idx(i, j-1)), grid.at(idx(i+1, j))
			if u, m, d, w := stencilViews(e, ua, ma, da, p.cols+1-j, true); w > 0 {
				q := (w + 1) / 2
				sorRow(u, m, d, q)
				e.Accessed(6 * q)
				e.Compute(dsm.Time(q) * costStencil)
				j += 2 * (q - 1)
				continue
			}
			up := e.ReadF64(ua)
			down := e.ReadF64(da)
			left := e.ReadF64(ma)
			right := e.ReadF64(ma + 16)
			c := e.ReadF64(ma + 8)
			e.WriteF64(ma+8, c+sorOmega*((up+down+left+right)/4-c))
			e.Compute(costStencil)
		}
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
				writeF64s(e, grid.at(idx(i, 0)), row, 20)
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
