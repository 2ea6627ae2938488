package apps

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// Each row kernel is the one statement of its arithmetic: a thread runs it on
// page views, at width one on an element's gathered operands, and a
// sequential golden on its own slices. The references below are the same
// arithmetic in the textbook order — an element at a time, each operand
// named once — and the kernels must match them bitwise: that order is what
// makes a row kernel's result the same at any width, so a run's result does
// not depend on which of its rows happened to hit.

func refEliminate(ri, rj []float64, l float64, from, b int) {
	for jj := from; jj < b; jj++ {
		ri[jj] = ri[jj] - l*rj[jj]
	}
}

func refSolveRowCol(a, d [][]float64, c, from, b int) {
	for r := from; r < b; r++ {
		v := a[r][c]
		for x := 0; x < r; x++ {
			v -= d[r][x] * a[x][c]
		}
		a[r][c] = v
	}
}

func refSolveColRow(a []float64, d [][]float64, from, b int) {
	for c := from; c < b; c++ {
		v := a[c]
		for x := 0; x < c; x++ {
			v -= a[x] * d[x][c]
		}
		a[c] = v / d[c][c]
	}
}

func refUpdateRow(a, l []float64, u [][]float64, from, b int) {
	for c := from; c < b; c++ {
		v := a[c]
		for x := 0; x < b; x++ {
			v -= l[x] * u[x][c]
		}
		a[c] = v
	}
}

func refOceanVorRow(up, mid, down, vor []float64, i, j, w, g int) {
	for x := 0; x < w; x++ {
		u, d, left, right, c := up[x], down[x], mid[x], mid[x+2], mid[x+1]
		vor[x] = u + d + left + right - 4*c + oceanForcing(i, j+x, g)
	}
}

func refTwiddleRow(v []complex128, i, j, n int) {
	for x := range v {
		v[x] *= fftTwiddle(i, j+x, n)
	}
}

func refSorRow(up, mid, down []float64, q int) {
	for x := 0; x < 2*q; x += 2 {
		u, d, left, right, c := up[x], down[x], mid[x], mid[x+2], mid[x+1]
		mid[x+1] = c + sorOmega*((u+d+left+right)/4-c)
	}
}

func refOceanRelaxRow(up, mid, down, vor []float64, q int) (res int64) {
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

// kernelBlock is a b×b block of values in [-1, 1) with a dominant diagonal,
// as rows; clone copies it.
type kernelBlock [][]float64

func randBlock(rng *rand.Rand, b int) kernelBlock {
	m := make(kernelBlock, b)
	for r := range m {
		m[r] = make([]float64, b)
		for c := range m[r] {
			m[r][c] = 2*rng.Float64() - 1
		}
		m[r][r] += float64(b)
	}
	return m
}

func (m kernelBlock) clone() kernelBlock {
	out := make(kernelBlock, len(m))
	for r := range m {
		out[r] = append([]float64(nil), m[r]...)
	}
	return out
}

// sameBits reports the first element where got and want differ bitwise.
func sameBits(t *testing.T, what string, got, want kernelBlock) {
	t.Helper()
	for r := range want {
		for c := range want[r] {
			if math.Float64bits(got[r][c]) != math.Float64bits(want[r][c]) {
				t.Fatalf("%s: element (%d,%d) = %v, reference %v", what, r, c, got[r][c], want[r][c])
			}
		}
	}
}

// TestRowKernelsMatchElementOrder: every row kernel, on random blocks of
// each LU block size the applications use and from every starting column
// (row, for luSolveRowCol), leaves the same bits as its reference.
func TestRowKernelsMatchElementOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(2501))
	for _, b := range []int{8, 16, 32, 128} {
		a, l, u, d := randBlock(rng, b), randBlock(rng, b), randBlock(rng, b), randBlock(rng, b)
		for from := 0; from <= b; from++ {
			r := from % b // the block row a row kernel works on
			name := func(k string) string { return fmt.Sprintf("%s b=%d from=%d", k, b, from) }

			got, want := a.clone(), a.clone()
			luUpdateRow(got[r], l[r], u, from, b)
			refUpdateRow(want[r], l[r], u, from, b)
			sameBits(t, name("luUpdateRow"), got, want)

			got, want = d.clone(), d.clone()
			p := (r + 1) % b // the pivot row
			f := got[r][p] / got[p][p]
			luEliminate(got[r][from:b], got[p][from:b], f)
			refEliminate(want[r], want[p], f, from, b)
			sameBits(t, name("luEliminate"), got, want)

			got, want = a.clone(), a.clone()
			for _, c := range []int{0, b / 2, b - 1} {
				luSolveRowCol(got, d, c, from, b)
				refSolveRowCol(want, d, c, from, b)
			}
			sameBits(t, name("luSolveRowCol"), got, want)

			got, want = a.clone(), a.clone()
			luSolveColRow(got[r], d, from, b)
			refSolveColRow(want[r], d, from, b)
			sameBits(t, name("luSolveColRow"), got, want)

			// The stencils: cells from+1, from+3, … of a row as wide as
			// the block, with the rows above and below it.
			q := (b - from - 1) / 2
			if q == 0 {
				continue
			}
			got, want = a.clone(), a.clone()
			sorRow(got[0][from:], got[1][from:], got[2][from:], q)
			refSorRow(want[0][from:], want[1][from:], want[2][from:], q)
			sameBits(t, name("sorRow"), got, want)

			got, want = a.clone(), a.clone()
			res := oceanRelaxRow(got[0][from:], got[1][from:], got[2][from:], l[3][from:], q)
			if ref := refOceanRelaxRow(want[0][from:], want[1][from:], want[2][from:], l[3][from:], q); res != ref {
				t.Fatalf("%s: residual %d, reference %d", name("oceanRelaxRow"), res, ref)
			}
			sameBits(t, name("oceanRelaxRow"), got, want)

			got, want = a.clone(), a.clone()
			oceanVorRow(got[0][from:], got[1][from:], got[2][from:], got[3][from:], r, from, q, b)
			refOceanVorRow(want[0][from:], want[1][from:], want[2][from:], want[3][from:], r, from, q, b)
			sameBits(t, name("oceanVorRow"), got, want)

			// The twiddle row: q points from point from of row r of a
			// b×b transform, interleaved re/im.
			got, want = a.clone(), a.clone()
			fftTwiddleRow(got[4][from:][:2*q], r, from, b*b)
			pts := make([]complex128, q)
			for x := range pts {
				pts[x] = complex(want[4][from+2*x], want[4][from+2*x+1])
			}
			refTwiddleRow(pts, r, from, b*b)
			for x, c := range pts {
				want[4][from+2*x], want[4][from+2*x+1] = real(c), imag(c)
			}
			sameBits(t, name("fftTwiddleRow"), got, want)
		}
	}
}

// BenchmarkLUUpdateRow is LU's inner kernel alone: one block row of
// A(i,j) -= L(i,k) U(k,j) per op, at LU-NCONT's small (32) and paper (128)
// block sizes. ns/mulsub is the host time of one multiply-subtract.
func BenchmarkLUUpdateRow(b *testing.B) {
	for _, bs := range []int{32, 128} {
		b.Run(fmt.Sprint("b=", bs), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			a, l, u := randBlock(rng, bs), randBlock(rng, bs), randBlock(rng, bs)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := i % bs
				luUpdateRow(a[r], l[r], u, 0, bs)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(bs*bs), "ns/mulsub")
		})
	}
}
