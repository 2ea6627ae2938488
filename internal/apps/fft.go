package apps

import (
	"fmt"
	"math"
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

func fftSizes(sc Scale) fftParams {
	switch sc {
	case Unit:
		return fftParams{m: 16} // 256 points
	case Small:
		return fftParams{m: 128} // 16K points
	default:
		return fftParams{m: 512} // 256K points, the paper's input
	}
}

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
		for j := 0; j < m; j++ {
			b[i*m+j] *= fftTwiddle(i, j, n)
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

// BuildFFT constructs the FFT application.
func BuildFFT(sys *dsm.System, opt Options) *Instance {
	p := fftSizes(opt.Scale)
	m := p.m
	n := m * m
	a := allocF64s(sys, 2*n) // interleaved re/im
	b := allocF64s(sys, 2*n)
	input := fftInput(n)
	var box errBox

	readC := func(e *dsm.Env, arr f64s, i int) complex128 {
		return complex(e.ReadF64(arr.at(2*i)), e.ReadF64(arr.at(2*i+1)))
	}
	writeC := func(e *dsm.Env, arr f64s, i int, v complex128) {
		e.WriteF64(arr.at(2*i), real(v))
		e.WriteF64(arr.at(2*i+1), imag(v))
	}

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
				for i := lo; i < hi; i++ {
					writeC(e, dst, i*m+j, readC(e, src, j*m+i))
					e.Compute(costCmul / 2)
				}
			}
		}
	}

	rowFFTs := func(e *dsm.Env, arr f64s, lo, hi int) {
		row := make([]complex128, m)
		for i := lo; i < hi; i++ {
			for j := 0; j < m; j++ {
				row[j] = readC(e, arr, i*m+j)
			}
			fftInPlace(row)
			e.Compute(dsm.Time(m) * dsm.Time(costButterfly) * dsm.Time(bits(m)) / 2)
			for j := 0; j < m; j++ {
				writeC(e, arr, i*m+j, row[j])
			}
		}
	}

	run := func(e *dsm.Env) {
		if e.ThreadID() == 0 {
			for i, v := range input {
				writeC(e, a, i, v)
				e.Compute(30)
			}
		}
		e.Barrier(0)
		lo, hi := e.ThreadRange(m)

		transpose(e, b, a, lo, hi)
		e.Barrier(1)
		rowFFTs(e, b, lo, hi)
		for i := lo; i < hi; i++ {
			for j := 0; j < m; j++ {
				writeC(e, b, i*m+j, readC(e, b, i*m+j)*fftTwiddle(i, j, n))
				e.Compute(costCmul)
			}
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
				box.set(fftVerify(e, b, input, m, readC))
			}
		}
		e.Barrier(6)
	}

	return &Instance{Name: "FFT", Run: run, Err: box.get}
}

// bits returns log2(m) for powers of two.
func bits(m int) int {
	b := 0
	for v := m; v > 1; v >>= 1 {
		b++
	}
	return b
}

func fftVerify(e *dsm.Env, out f64s, input []complex128, m int,
	readC func(*dsm.Env, f64s, int) complex128) error {
	n := m * m
	want := fftSixStepSeq(input, m)
	for i := 0; i < n; i++ {
		got := readC(e, out, i)
		if got != want[i] {
			return fmt.Errorf("FFT: element %d = %v, want %v (bitwise)", i, got, want[i])
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
