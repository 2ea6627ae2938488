package apps

import (
	"fmt"
	"math/rand"

	"godsm/dsm"
)

// LU: blocked right-looking LU factorization (no pivoting; the matrix is
// made diagonally dominant) in the two SPLASH-2 variants the paper runs:
//
//   - LU-NCONT: the matrix is one row-major n×n array, so a B×B block
//     spans B non-contiguous row segments (many pages, false sharing at
//     block boundaries). Paper input: n=1024, B=128.
//   - LU-CONT: each block is stored contiguously (block-major), so a block
//     is one dense B²-element region. Paper input: n=1024, B=32.
//
// Blocks are assigned to threads in a 2D scatter. Each step k factors the
// diagonal block, solves the perimeter row/column, and updates the interior
// (barriers between phases).
//
// Prefetch insertion: before updating an owned interior block (i,j), the
// remote source blocks (i,k) and (k,j) are prefetched; the loop over owned
// blocks is software-pipelined so block t+1's sources are prefetched while
// block t computes.

type luParams struct {
	n, b int
	cont bool
}

// luNcontSizes and luContSizes are the two variants' inputs at each scale.
var (
	luNcontSizes = [3]luParams{{n: 64, b: 16}, {n: 256, b: 32}, {n: 1024, b: 128}}
	luContSizes  = [3]luParams{{n: 64, b: 8, cont: true}, {n: 256, b: 16, cont: true}, {n: 1024, b: 32, cont: true}}
)

// luInput generates the deterministic diagonally dominant input matrix.
func luInput(n int) []float64 {
	rng := rand.New(rand.NewSource(11081998))
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			a[i*n+j] = rng.Float64()
		}
		a[i*n+i] += float64(n)
	}
	return a
}

// luLayout maps matrix coordinates to shared addresses.
type luLayout struct {
	arr  f64s
	n, b int
	cont bool
}

func (l luLayout) at(i, j int) dsm.Addr {
	if !l.cont {
		return l.arr.at(i*l.n + j)
	}
	nb := l.n / l.b
	bi, bj := i/l.b, j/l.b
	oi, oj := i%l.b, j%l.b
	return l.arr.at((bi*nb+bj)*l.b*l.b + oi*l.b + oj)
}

// blockRow returns the address of row r of block (I,J); the row's b
// elements are contiguous in either layout.
func (l luLayout) blockRow(I, J, r int) dsm.Addr { return l.at(I*l.b+r, J*l.b) }

// luGrid factors T threads into the pr×pc grid of the 2D-scatter block
// distribution, as square as T allows.
func luGrid(T int) (pr, pc int) {
	pr = 1
	for d := 1; d*d <= T; d++ {
		if T%d == 0 {
			pr = d
		}
	}
	return pr, T / pr
}

// The four block kernels run over []float64 rows: a thread's page views,
// the sequential golden's matrix, or one element's gathered operands.

// luEliminate subtracts l times the pivot row rj from row ri of a diagonal
// block: the inner loop of the unblocked LU.
func luEliminate(ri, rj []float64, l float64) {
	rj = rj[:len(ri)]
	for x := range ri {
		ri[x] -= l * rj[x]
	}
}

// luSolveRowCol computes rows from..b-1 of column c of U(k,j) = L(k,k)^-1
// A(k,j) (unit lower triangular) in place; a and d are the rows of A(k,j)
// and of the diagonal block.
func luSolveRowCol(a, d [][]float64, c, from, b int) {
	for r := from; r < b; r++ {
		v := a[r][c]
		for t, dt := range d[r][:r] {
			v -= dt * a[t][c]
		}
		a[r][c] = v
	}
}

// luSolveColRow computes columns from..b-1 of one row of L(i,k) = A(i,k)
// U(k,k)^-1 in place; a is the row, d the rows of the diagonal block.
func luSolveColRow(a []float64, d [][]float64, from, b int) {
	for c := from; c < b; c++ {
		v := a[c]
		for t, at := range a[:c] {
			v -= at * d[t][c]
		}
		a[c] = v / d[c][c]
	}
}

// luUpdateRow computes columns from..b-1 of one row of A(i,j) -= L(i,k)
// U(k,j); a and l are that row of A(i,j) and of L(i,k), u the rows of U(k,j).
// It streams the rows of U — t outer, c inner — which subtracts from every
// a[c] the same products in the same order as a column at a time would.
func luUpdateRow(a, l []float64, u [][]float64, from, b int) {
	a = a[from:b]
	for t, lt := range l {
		ut := u[t][from:b]
		ut = ut[:len(a)]
		for c, x := range ut {
			a[c] -= lt * x
		}
	}
}

// seqBlockLU factors the n×n row-major matrix m in place with exactly the
// block order and kernels of the parallel version, so results compare
// bitwise.
func seqBlockLU(m []float64, n, b int) {
	nb := n / b
	// block points dst at the rows of block (I,J).
	block := func(dst [][]float64, I, J int) {
		for r := range dst {
			dst[r] = m[(I*b+r)*n+J*b:][:b]
		}
	}
	d, a, l, u := make([][]float64, b), make([][]float64, b), make([][]float64, b), make([][]float64, b)
	for k := 0; k < nb; k++ {
		block(d, k, k)
		for j := 0; j < b; j++ {
			pivot := d[j][j]
			for i := j + 1; i < b; i++ {
				f := d[i][j] / pivot
				d[i][j] = f
				luEliminate(d[i][j+1:], d[j][j+1:], f)
			}
		}
		for j := k + 1; j < nb; j++ {
			block(a, k, j)
			for c := 0; c < b; c++ {
				luSolveRowCol(a, d, c, 1, b)
			}
		}
		for i := k + 1; i < nb; i++ {
			block(a, i, k)
			for r := 0; r < b; r++ {
				luSolveColRow(a[r], d, 0, b)
			}
		}
		for i := k + 1; i < nb; i++ {
			block(l, i, k)
			for j := k + 1; j < nb; j++ {
				block(u, k, j)
				block(a, i, j)
				for r := 0; r < b; r++ {
					luUpdateRow(a[r], l[r], u, 0, b)
				}
			}
		}
	}
}

// luThread is one thread's handle on the shared matrix. Before each element
// a block kernel asks for views of every row the rest of its matrix row
// (column, for solveRow) touches, and finishes the row on them if they are
// all there; if not, it runs the kernel at width one on the element's
// operands, gathered through get, sets the element, and asks again.
type luThread struct {
	e    *dsm.Env
	lay  luLayout
	a, u [][]float64 // scratch: the row views of a block, or gathered rows
	x, y []float64   // scratch: an element's gathered row segments
	col  []float64   // scratch: an element's gathered column, at col[b:]
}

func (t *luThread) get(i, j int) float64    { return t.e.ReadF64(t.lay.at(i, j)) }
func (t *luThread) set(i, j int, v float64) { t.e.WriteF64(t.lay.at(i, j), v) }

// row returns a view of row r of block (I,J), or nil.
func (t *luThread) row(I, J, r int, write bool) []float64 {
	return t.e.View(t.lay.blockRow(I, J, r), t.lay.b, write)
}

// block takes views of rows from..b-1 of block (I,J) into dst and reports
// whether it got them all.
func (t *luThread) block(dst [][]float64, I, J, from int, write bool) bool {
	for r := from; r < t.lay.b; r++ {
		if dst[r] = t.row(I, J, r, write); dst[r] == nil {
			return false
		}
	}
	return true
}

// column points rows[k], k < n, at windows of t.col whose element c is
// t.col[b+k], and returns t.col[b:]: an element path gathers a column there
// that the kernel reads as rows[k][c], as it would a block's views.
func (t *luThread) column(rows [][]float64, n, c int) []float64 {
	for k := range n {
		rows[k] = t.col[t.lay.b+k-c:]
	}
	return t.col[t.lay.b:]
}

// factor performs the in-place unblocked LU of diagonal block k.
func (t *luThread) factor(k int) {
	b, o := t.lay.b, k*t.lay.b
	for j := 0; j < b; j++ {
		d := t.get(o+j, o+j)
		for i := j + 1; i < b; i++ {
			l := t.get(o+i, o+j) / d
			t.set(o+i, o+j, l)
			lanes := [4]lane{{a: t.lay.at(o+i, o+j+1), write: true}, {a: t.lay.at(o+j, o+j+1)}}
			eachRun(t.e, lanes, b-j-1, 1, 3, 0,
				func(v [4][]float64, _, q int) int { luEliminate(v[0], v[1], l); return q },
				func(x int) {
					c := o + j + 1 + x
					ri, rj := [1]float64{t.get(o+i, c)}, [1]float64{t.get(o+j, c)}
					luEliminate(ri[:], rj[:], l)
					t.set(o+i, c, ri[0])
				})
		}
	}
}

// solveRow computes U(k,j) = L(k,k)^-1 A(k,j) (unit lower triangular).
func (t *luThread) solveRow(k, j int) {
	b, ro, co := t.lay.b, k*t.lay.b, j*t.lay.b
	a, d := t.a, t.u
	for c, ok := 0, false; c < b; c++ {
		for r := 1; r < b; r++ {
			// Row 0 of A(k,j) is only read, and the first row of a page
			// that nobody writes is never twinned.
			if !ok {
				a[0] = t.row(k, j, 0, false)
				ok = a[0] != nil && t.block(a, k, j, 1, true) && t.block(d, k, k, 1, false)
			}
			if ok {
				luSolveRowCol(a, d, c, r, b)
				t.e.Accessed((b - r) * (b + r + 1))
				break
			}
			col := t.column(a, r+1, c)
			col[r] = t.get(ro+r, co+c)
			for x := range r {
				t.x[x], col[x] = t.get(ro+r, ro+x), t.get(ro+x, co+c)
			}
			d[r] = t.x
			luSolveRowCol(a, d, c, r, r+1)
			t.set(ro+r, co+c, col[r])
		}
	}
}

// solveCol computes L(i,k) = A(i,k) U(k,k)^-1.
func (t *luThread) solveCol(k, i int) {
	b, ro, co := t.lay.b, i*t.lay.b, k*t.lay.b
	d := t.u
	for r, ok := 0, false; r < b; r++ {
		for c := 0; c < b; c++ {
			if a := t.row(i, k, r, true); a != nil {
				if ok = ok || t.block(d, k, k, 0, false); ok {
					luSolveColRow(a, d, c, b)
					t.e.Accessed((b - c) * (b + c + 2))
					break
				}
			}
			ok = false
			col := t.column(d, c+1, c)
			t.x[c] = t.get(ro+r, co+c)
			for x := range c {
				t.x[x], col[x] = t.get(ro+r, co+x), t.get(co+x, co+c)
			}
			col[c] = t.get(co+c, co+c)
			luSolveColRow(t.x, d, c, c+1)
			t.set(ro+r, co+c, t.x[c])
		}
	}
}

// update computes A(i,j) -= L(i,k) U(k,j).
func (t *luThread) update(k, i, j int) {
	b, io, jo, ko := t.lay.b, i*t.lay.b, j*t.lay.b, k*t.lay.b
	u := t.u
	for r, ok := 0, false; r < b; r++ {
		for c := 0; c < b; c++ {
			if a := t.row(i, j, r, true); a != nil {
				if l := t.row(i, k, r, false); l != nil {
					if ok = ok || t.block(u, k, j, 0, false); ok {
						luUpdateRow(a, l, u, c, b)
						t.e.Accessed((b - c) * (2 + 2*b))
						break
					}
				}
			}
			ok = false
			col := t.column(u, b, c)
			t.x[c] = t.get(io+r, jo+c)
			for x := range b {
				t.y[x], col[x] = t.get(io+r, ko+x), t.get(ko+x, jo+c)
			}
			luUpdateRow(t.x, t.y, u, c, c+1)
			t.set(io+r, jo+c, t.x[c])
		}
	}
}

func buildLU(sys *dsm.System, opt Options, sizes [3]luParams) *Instance {
	p := sized(opt.Scale, sizes)
	cont, name := p.cont, "LU-NCONT"
	if cont {
		name = "LU-CONT"
	}
	n, b := p.n, p.b
	nb := n / b
	lay := luLayout{arr: allocWords[float64](sys, n*n), n: n, b: b, cont: cont}
	input := sharedInput(inputKey{gen: "lu", n: n}, func() []float64 { return luInput(n) }) // both variants
	var box errBox

	run := func(e *dsm.Env) {
		T := e.NumThreads()
		pr, pc := luGrid(T)
		owner := func(I, J int) int { return (I%pr)*pc + J%pc }
		me := e.ThreadID()
		t := &luThread{e: e, lay: lay, a: make([][]float64, b), u: make([][]float64, b),
			x: make([]float64, b), y: make([]float64, b), col: make([]float64, 2*b)}

		pfBlock := func(I, J int) {
			if cont {
				// The whole block is one contiguous range.
				e.PrefetchRange(lay.blockRow(I, J, 0), 8*b*b)
				return
			}
			for r := 0; r < b; r++ {
				e.PrefetchRange(lay.blockRow(I, J, r), 8*b)
			}
		}

		if me == 0 {
			for i := 0; i < n; i++ {
				for J := 0; J < nb; J++ {
					writeWords(e, lay.at(i, J*b), input[i*n+J*b:][:b], 20)
				}
			}
		}
		e.Barrier(0)

		bar := 1
		var mine [][2]int // the interior blocks this thread owns at step k
		for k := 0; k < nb; k++ {
			if owner(k, k) == me {
				t.factor(k)
				e.Compute(dsm.Time(b*b*b/3) * costMulSub)
			}
			e.Barrier(bar)
			bar++

			if e.Prefetching() {
				// The perimeter solves all need the diagonal block.
				needDiag := false
				for j := k + 1; j < nb && !needDiag; j++ {
					needDiag = owner(k, j) == me || owner(j, k) == me
				}
				if needDiag && owner(k, k) != me {
					pfBlock(k, k)
				}
			}
			for j := k + 1; j < nb; j++ {
				if owner(k, j) == me {
					t.solveRow(k, j)
					e.Compute(dsm.Time(b*b*b/2) * costMulSub)
				}
			}
			for i := k + 1; i < nb; i++ {
				if owner(i, k) == me {
					t.solveCol(k, i)
					e.Compute(dsm.Time(b*b*b/2) * costMulSub)
				}
			}
			e.Barrier(bar)
			bar++

			// Interior update, software-pipelined prefetching of the
			// source blocks for the next owned block.
			mine = mine[:0]
			for i := k + 1; i < nb; i++ {
				for j := k + 1; j < nb; j++ {
					if owner(i, j) == me {
						mine = append(mine, [2]int{i, j})
					}
				}
			}
			pfSources := func(t int) {
				if t >= len(mine) {
					return
				}
				i, j := mine[t][0], mine[t][1]
				if owner(i, k) != me {
					pfBlock(i, k)
				}
				if owner(k, j) != me {
					pfBlock(k, j)
				}
			}
			if e.Prefetching() {
				pfSources(0)
			}
			for x, ij := range mine {
				if e.Prefetching() {
					pfSources(x + 1)
				}
				t.update(k, ij[0], ij[1])
				e.Compute(dsm.Time(b*b*b) * costMulSub)
			}
			e.Barrier(bar)
			bar++
		}

		if me == 0 {
			e.EndMeasurement()
			if opt.Verify {
				box.set(luVerify(e, lay, input, name))
			}
		}
		e.Barrier(bar)
	}

	return &Instance{Name: name, Run: run, Err: box.get}
}

func luVerify(e *dsm.Env, lay luLayout, input []float64, name string) error {
	n, b := lay.n, lay.b
	want := append([]float64(nil), input...)
	seqBlockLU(want, n, b)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j += b {
			if x, got := firstDiff(e, lay.at(i, j), want[i*n+j:][:b]); x >= 0 {
				return fmt.Errorf("%s: element (%d,%d) = %v, want %v", name, i, j+x, got, want[i*n+j+x])
			}
		}
	}
	return nil
}

// BuildLUNcont constructs LU with non-contiguous (row-major) block storage.
func BuildLUNcont(sys *dsm.System, opt Options) *Instance {
	return buildLU(sys, opt, luNcontSizes)
}

// BuildLUCont constructs LU with contiguous block storage.
func BuildLUCont(sys *dsm.System, opt Options) *Instance {
	return buildLU(sys, opt, luContSizes)
}
