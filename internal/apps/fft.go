package apps

import (
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
	"math/rand"

	"godsm/dsm"
)

// FFT: 1-D complex FFT of n = m² points using the SPLASH-2 style six-step
// (transpose) algorithm: transpose, m-point row FFTs, twiddle scaling,
// transpose, row FFTs, transpose. The transposes are all-to-all
// communication phases; rows are block-distributed over threads.
//
// Prefetch insertion (Section 3.2, compiler-style): the transpose loops are
// software-pipelined over source-thread blocks — while copying the block
// owned by thread q, the pages of thread q+1's block are prefetched.

type fftParams struct {
	m int // n = m*m points
}

// fftSizes are FFT's inputs at each scale: 256, 16K and (the paper's) 256K
// points.
var fftSizes = [3]fftParams{{m: 16}, {m: 128}, {m: 512}}

// fftInput returns the deterministic input signal.
func fftInput(n int) []complex128 {
	rng := rand.New(rand.NewSource(20260705))
	in := make([]complex128, n)
	for i := range in {
		in[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	return in
}

// fftInPlace is an iterative radix-2 Cooley-Tukey FFT.
func fftInPlace(x []complex128) {
	n := len(x)
	// Bit reversal.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j |= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		ang := -2 * math.Pi / float64(length)
		wl := cmplx.Exp(complex(0, ang))
		for i := 0; i < n; i += length {
			w := complex(1, 0)
			for j := 0; j < length/2; j++ {
				u := x[i+j]
				v := x[i+j+length/2] * w
				x[i+j] = u + v
				x[i+j+length/2] = u - v
				w *= wl
			}
		}
	}
}

// fftSixStepSeq runs the six-step algorithm sequentially on a copy of the
// input; the parallel run must match it bitwise.
func fftSixStepSeq(in []complex128, m int) []complex128 {
	n := m * m
	a := append([]complex128(nil), in...)
	b := make([]complex128, n)
	transpose := func(dst, src []complex128) {
		for i := 0; i < m; i++ {
			for j := 0; j < m; j++ {
				dst[i*m+j] = src[j*m+i]
			}
		}
	}
	rowFFTs := func(x []complex128) {
		for i := 0; i < m; i++ {
			fftInPlace(x[i*m : (i+1)*m])
		}
	}
	transpose(b, a)
	rowFFTs(b)
	for i := 0; i < m; i++ {
		for j, c := range b[i*m : (i+1)*m] {
			v := [2]float64{real(c), imag(c)}
			fftTwiddleRow(v[:], i, j, n)
			b[i*m+j] = complex(v[0], v[1])
		}
	}
	transpose(a, b)
	rowFFTs(a)
	transpose(b, a)
	return b
}

func fftTwiddle(i, j, n int) complex128 {
	ang := -2 * math.Pi * float64(i) * float64(j) / float64(n)
	return cmplx.Exp(complex(0, ang))
}

// fftTwiddleRow scales the points of v, interleaved re/im, by their twiddle
// factors: v starts at point j of row i.
func fftTwiddleRow(v []float64, i, j, n int) {
	for x := 0; x < len(v); x += 2 {
		c := complex(v[x], v[x+1]) * fftTwiddle(i, j+x/2, n)
		v[x], v[x+1] = real(c), imag(c)
	}
}

// BuildFFT constructs the FFT application.
func BuildFFT(sys *dsm.System, opt Options) *Instance {
	p := sized(opt.Scale, fftSizes)
	m := p.m
	n := m * m
	a := allocWords[float64](sys, 2*n) // interleaved re/im
	b := allocWords[float64](sys, 2*n)
	input := fftInput(n)
	var box errBox

	// transpose writes dst rows [lo,hi) from src columns, iterating over
	// source-thread row blocks with pipelined prefetching.
	transpose := func(e *dsm.Env, dst, src f64s, lo, hi int) {
		T := e.NumThreads()
		tpp := T / e.NumProcs()
		pfBlock := func(q int) {
			qlo, qhi := threadChunkFor(m, e.NumProcs(), tpp, q)
			if qhi <= qlo {
				return
			}
			// The source block is rows [qlo,qhi) of src, columns [lo,hi):
			// prefetch the pages covering those rows' column range.
			for j := qlo; j < qhi; j++ {
				start := src.at(2 * (j*m + lo))
				e.PrefetchRange(start, 16*(hi-lo))
			}
		}
		if e.Prefetching() {
			pfBlock(0)
		}
		for q := 0; q < T; q++ {
			if e.Prefetching() && q+1 < T {
				pfBlock(q + 1) // pipeline: fetch the next block now
			}
			qlo, qhi := threadChunkFor(m, e.NumProcs(), tpp, q)
			for j := qlo; j < qhi; j++ {
				// A view of the rest of source row j's stretch, and one of
				// each destination point while they hit.
				eachRun(e, [4]lane{{a: src.at(2 * (j*m + lo))}}, 2*(hi-lo), 2, 4, costCmul/2,
					func(v [4][]float64, x, q int) int {
						for k := range q {
							d := e.View(dst.at(2*((lo+x/2+k)*m+j)), 2, true)
							if d == nil {
								return k
							}
							d[0], d[1] = v[0][2*k], v[0][2*k+1]
						}
						return q
					},
					func(x int) { writeC(e, dst, (lo+x/2)*m+j, readC(e, src, j*m+lo+x/2)) })
			}
		}
	}

	rowFFTs := func(e *dsm.Env, arr f64s, lo, hi int) {
		row := make([]complex128, m)
		for i := lo; i < hi; i++ {
			loadCs(e, arr, i*m, row)
			fftInPlace(row)
			e.Compute(dsm.Time(m) * dsm.Time(costButterfly) * dsm.Time(bits.Len(uint(m))-1) / 2)
			storeCs(e, arr, i*m, row, 0)
		}
	}

	run := func(e *dsm.Env) {
		if e.ThreadID() == 0 {
			storeCs(e, a, 0, input, 30)
		}
		e.Barrier(0)
		lo, hi := e.ThreadRange(m)

		transpose(e, b, a, lo, hi)
		e.Barrier(1)
		rowFFTs(e, b, lo, hi)
		for i := lo; i < hi; i++ {
			eachRun(e, [4]lane{{a: b.at(2 * i * m), write: true}}, 2*m, 2, 4, costCmul,
				func(v [4][]float64, x, q int) int { fftTwiddleRow(v[0], i, x/2, n); return q },
				func(x int) {
					re, im := b.at(2*i*m+x), b.at(2*i*m+x+1)
					c := [2]float64{e.ReadF64(re), e.ReadF64(im)}
					fftTwiddleRow(c[:], i, x/2, n)
					e.WriteF64(re, c[0])
					e.WriteF64(im, c[1])
				})
		}
		e.Barrier(2)
		transpose(e, a, b, lo, hi)
		e.Barrier(3)
		rowFFTs(e, a, lo, hi)
		e.Barrier(4)
		transpose(e, b, a, lo, hi)
		e.Barrier(5)

		if e.ThreadID() == 0 {
			e.EndMeasurement()
			if opt.Verify {
				box.set(fftVerify(e, b, input, m))
			}
		}
		e.Barrier(6)
	}

	return &Instance{Name: "FFT", Run: run, Err: box.get}
}

// The complex arrays are interleaved re/im float64s: point i is the words
// 2i and 2i+1, which never straddle a page. readC and writeC make one
// point's two accesses through the accessors.

func readC(e *dsm.Env, arr f64s, i int) complex128 {
	return complex(e.ReadF64(arr.at(2*i)), e.ReadF64(arr.at(2*i+1)))
}

func writeC(e *dsm.Env, arr f64s, i int, v complex128) {
	e.WriteF64(arr.at(2*i), real(v))
	e.WriteF64(arr.at(2*i+1), imag(v))
}

// loadCs reads points i, i+1, … of arr into dst.
func loadCs(e *dsm.Env, arr f64s, i int, dst []complex128) {
	eachRun(e, [4]lane{{a: arr.at(2 * i)}}, 2*len(dst), 2, 2, 0,
		func(v [4][]float64, x, q int) int {
			for k := range q {
				dst[x/2+k] = complex(v[0][2*k], v[0][2*k+1])
			}
			return q
		},
		func(x int) { dst[x/2] = readC(e, arr, i+x/2) })
}

// storeCs writes vals to points i, i+1, … of arr, charging cost of
// computation after each point.
func storeCs(e *dsm.Env, arr f64s, i int, vals []complex128, cost dsm.Time) {
	eachRun(e, [4]lane{{a: arr.at(2 * i), write: true}}, 2*len(vals), 2, 2, cost,
		func(v [4][]float64, x, q int) int {
			for k, c := range vals[x/2:][:q] {
				v[0][2*k], v[0][2*k+1] = real(c), imag(c)
			}
			return q
		},
		func(x int) { writeC(e, arr, i+x/2, vals[x/2]) })
}

func fftVerify(e *dsm.Env, out f64s, input []complex128, m int) error {
	n := m * m
	want := fftSixStepSeq(input, m)
	row := make([]complex128, m)
	for i := 0; i < m; i++ {
		loadCs(e, out, i*m, row)
		for j, got := range row {
			if got != want[i*m+j] {
				return fmt.Errorf("FFT: element %d = %v, want %v (bitwise)", i*m+j, got, want[i*m+j])
			}
		}
	}
	// For small sizes also check against the naive DFT (algorithmic truth).
	if n <= 1024 {
		for _, k := range []int{0, 1, n / 2, n - 1} {
			var f complex128
			for j := 0; j < n; j++ {
				f += input[j] * fftTwiddle(j, k, n)
			}
			got := readC(e, out, k)
			if cmplx.Abs(got-f) > 1e-6*float64(n) {
				return fmt.Errorf("FFT: DFT mismatch at %d: %v vs naive %v", k, got, f)
			}
		}
	}
	return nil
}
