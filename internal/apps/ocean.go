package apps

import (
	"fmt"

	"godsm/dsm"
)

// OCEAN: a simplification of the SPLASH-2 ocean simulation down to its
// communication core, as documented in DESIGN.md: two coupled grids (stream
// function psi and vorticity) relaxed red-black over an eddy/boundary-
// forced domain, with a lock-protected global residual reduction and a
// convergence test every sweep. This preserves what the paper's OCEAN
// stresses in the DSM — nearest-neighbour page sharing on a 258² grid plus
// very heavy barrier synchronization (two barriers per sweep and a
// reduction), which is why OCEAN's breakdown is dominated by
// synchronization time.
//
// The residual is accumulated in fixed-point under a lock so that the
// convergence decision is independent of accumulation order (and therefore
// of the thread count), keeping every configuration bitwise comparable.

type oceanParams struct {
	g        int // interior grid dimension
	maxIters int
	tol      int64 // fixed-point residual threshold
}

// oceanSizes are OCEAN's inputs at each scale; the paper's grid is 258×258.
var oceanSizes = [3]oceanParams{{g: 34, maxIters: 6, tol: 1 << 8}, {g: 130, maxIters: 12, tol: 1 << 8},
	{g: 258, maxIters: 30, tol: 1 << 8}}

const (
	oceanRelax = 0.45
	oceanScale = 1 << 20 // fixed-point scale for the residual reduction
	oceanLock  = 7
)

// oceanForcing is the eddy/boundary current forcing term at (i, j).
func oceanForcing(i, j, g int) float64 {
	// A boundary-driven circulation: strong flow at the top boundary,
	// decaying eddies in the interior.
	di := float64(i) / float64(g+1)
	dj := float64(j) / float64(g+1)
	return 0.02 * (di - dj) * (1 - di) * dj
}

func oceanInit(i, j, g int) float64 {
	if i == 0 {
		return 1.0 // wind-driven top boundary current
	}
	if j == 0 || i == g+1 || j == g+1 {
		return 0
	}
	return float64((i*13+j*7)%89) / 890.0
}

// The two sweeps' arithmetic, a run of cells at a time over rows laid out as
// in sorRow.

// oceanVorRow computes the vorticity of the w cells of row i from column j:
// the psi stencil plus the forcing term.
func oceanVorRow(up, mid, down, vor []float64, i, j, w, g int) {
	for x := 0; x < w; x++ {
		lap := up[x] + down[x] + mid[x] + mid[x+2] - 4*mid[x+1]
		vor[x] = lap + oceanForcing(i, j+x, g)
	}
}

// oceanRelaxRow relaxes q psi cells of one colour, two columns apart, toward
// the vorticity field and returns their fixed-point residual.
func oceanRelaxRow(up, mid, down, vor []float64, q int) (res int64) {
	for x := 0; x < 2*q; x += 2 {
		c := mid[x+1]
		target := (up[x] + down[x] + mid[x] + mid[x+2]) / 4
		nv := c + oceanRelax*(target-c+vor[x])
		mid[x+1] = nv
		d := nv - c
		if d < 0 {
			d = -d
		}
		res += int64(d * oceanScale)
	}
	return res
}

// BuildOcean constructs the OCEAN application.
func BuildOcean(sys *dsm.System, opt Options) *Instance {
	p := sized(opt.Scale, oceanSizes)
	G := p.g + 2
	psi := allocWords[float64](sys, G*G)
	vor := allocWords[float64](sys, G*G)
	errCell := allocWords[int64](sys, 2) // [0]=fixed-point residual, [1]=done flag
	var box errBox

	idx := func(i, j int) int { return i*G + j }
	// stencil is the lanes of psi's five-point stencil over row i from
	// column j, laid out as sorRow's, and of vor under it; a sweep writes
	// one grid and reads the other.
	stencil := func(i, j int, writePsi bool) [4]lane {
		return [4]lane{{a: psi.at(idx(i-1, j))}, {a: psi.at(idx(i, j-1)), halo: 2, write: writePsi},
			{a: psi.at(idx(i+1, j))}, {a: vor.at(idx(i, j)), write: !writePsi}}
	}

	run := func(e *dsm.Env) {
		me := e.ThreadID()
		if me == 0 {
			for i := 0; i < G; i++ {
				eachRun(e, [4]lane{{a: psi.at(idx(i, 0)), write: true}, {a: vor.at(idx(i, 0)), write: true}}, G, 1, 2, 25,
					func(v [4][]float64, x, q int) int {
						for k := range v[0] {
							v[0][k] = oceanInit(i, x+k, p.g)
						}
						clear(v[1])
						return q
					},
					func(x int) {
						e.WriteF64(psi.at(idx(i, x)), oceanInit(i, x, p.g))
						e.WriteF64(vor.at(idx(i, x)), 0)
					})
			}
		}
		e.Barrier(0)

		lo, hi := e.ThreadRange(p.g)
		lo, hi = lo+1, hi+1
		bar := 1
		for it := 0; it < p.maxIters; it++ {
			// Sweep 1: vorticity from the psi stencil.
			if e.Prefetching() && hi > lo {
				e.PrefetchRange(psi.at(idx(lo-1, 0)), 8*G)
				e.PrefetchRange(psi.at(idx(hi, 0)), 8*G)
			}
			for i := lo; i < hi; i++ {
				l := stencil(i, 1, false)
				eachRun(e, l, p.g, 1, 6, costStencil,
					func(v [4][]float64, x, q int) int { oceanVorRow(v[0], v[1], v[2], v[3], i, 1+x, q, p.g); return q },
					func(x int) {
						var s [5]float64
						var vo [1]float64
						u, m, d := stencilAt(e, &s, &l, x)
						oceanVorRow(u, m, d, vo[:], i, 1+x, 1, p.g)
						e.WriteF64(l[3].at(x), vo[0])
					})
			}
			e.Barrier(bar)
			bar++

			// Sweep 2: red-black relaxation of psi toward the vorticity
			// field (red-black keeps the parallel result identical to the
			// sequential one), accumulating the local residual.
			var localErr int64
			for color := 0; color < 2; color++ {
				if e.Prefetching() && hi > lo {
					e.PrefetchRange(psi.at(idx(lo-1, 0)), 8*G)
					e.PrefetchRange(psi.at(idx(hi, 0)), 8*G)
					e.PrefetchRange(vor.at(idx(lo, 0)), 8*G)
				}
				for i := lo; i < hi; i++ {
					j := 1 + (i+color+1)%2
					l := stencil(i, j, true)
					eachRun(e, l, p.g+1-j, 2, 7, costStencil+40,
						func(v [4][]float64, _, q int) int { localErr += oceanRelaxRow(v[0], v[1], v[2], v[3], q); return q },
						func(x int) {
							// up, mid, down, vor: the centre first, as the
							// accessors always read it.
							var s [6]float64
							mid := l[1].at(x)
							s[2], s[0], s[4], s[1], s[3], s[5] = e.ReadF64(mid+8), e.ReadF64(l[0].at(x)), e.ReadF64(l[2].at(x)), e.ReadF64(mid), e.ReadF64(mid+16), e.ReadF64(l[3].at(x))
							localErr += oceanRelaxRow(s[:1], s[1:4], s[4:5], s[5:], 1)
							e.WriteF64(mid+8, s[2])
						})
				}
				e.Barrier(bar)
				bar++
			}

			// Lock-protected global reduction.
			if e.Prefetching() {
				e.PrefetchRange(errCell.at(0), 16)
			}
			e.Lock(oceanLock)
			e.WriteI64(errCell.at(0), e.ReadI64(errCell.at(0))+localErr)
			e.Unlock(oceanLock)
			e.Barrier(bar)
			bar++

			if me == 0 {
				total := e.ReadI64(errCell.at(0))
				if total < p.tol {
					e.WriteI64(errCell.at(1), 1)
				}
				e.WriteI64(errCell.at(0), 0)
			}
			e.Barrier(bar)
			bar++
			if e.ReadI64(errCell.at(1)) != 0 {
				break
			}
		}
		e.Barrier(1000) // final barrier, distinct id

		if me == 0 {
			e.EndMeasurement()
			if opt.Verify {
				box.set(oceanVerify(e, psi, p))
			}
		}
		e.Barrier(1001)
	}

	return &Instance{Name: "OCEAN", Run: run, Err: box.get}
}

// oceanVerify recomputes the run sequentially (identical operation order
// per cell; the fixed-point reduction makes the iteration count identical)
// and compares the stream function bitwise.
func oceanVerify(e *dsm.Env, psi f64s, p oceanParams) error {
	G := p.g + 2
	ps := make([]float64, G*G)
	vo := make([]float64, G*G)
	for i := 0; i < G; i++ {
		for j := 0; j < G; j++ {
			ps[i*G+j] = oceanInit(i, j, p.g)
		}
	}
	// stencil returns the rows above, at (from one cell to the left) and
	// below cell (i,j).
	stencil := func(i, j int) (up, mid, down []float64) {
		return ps[(i-1)*G+j:], ps[i*G+j-1:], ps[(i+1)*G+j:]
	}
	for it := 0; it < p.maxIters; it++ {
		for i := 1; i <= p.g; i++ {
			up, mid, down := stencil(i, 1)
			oceanVorRow(up, mid, down, vo[i*G+1:], i, 1, p.g, p.g)
		}
		var total int64
		for color := 0; color < 2; color++ {
			for i := 1; i <= p.g; i++ {
				j := 1 + (i+color+1)%2
				up, mid, down := stencil(i, j)
				total += oceanRelaxRow(up, mid, down, vo[i*G+j:], (p.g-j)/2+1)
			}
		}
		if total < p.tol {
			break
		}
	}
	if x, got := firstDiff(e, psi.at(0), ps); x >= 0 {
		return fmt.Errorf("OCEAN: psi(%d,%d) = %v, want %v", x/G, x%G, got, ps[x])
	}
	return nil
}
