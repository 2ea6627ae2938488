package apps

import (
	"math"
	"math/cmplx"
	"slices"
	"testing"
)

// Independent algorithm validation: these tests check the golden
// implementations themselves against mathematical ground truth, so that
// "parallel == golden" (checked elsewhere) implies "parallel == correct".

// TestLUFactorizationResidual: L·U must reconstruct the input matrix.
func TestLUFactorizationResidual(t *testing.T) {
	const n, b = 32, 8
	a := luInput(n)
	lu := slices.Clone(a)
	seqBlockLU(lu, n, b)

	var maxErr float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			// (L·U)[i][j] with L unit-lower, U upper from the packed form.
			var s float64
			for k := 0; k <= min(i, j); k++ {
				l := lu[i*n+k]
				if k == i {
					l = 1
				}
				u := lu[k*n+j]
				if k > j {
					u = 0
				}
				if k <= j && k < i || k == i {
					s += l * u
				}
			}
			if e := math.Abs(s - a[i*n+j]); e > maxErr {
				maxErr = e
			}
		}
	}
	if maxErr > 1e-9*float64(n) {
		t.Fatalf("LU residual too large: %g", maxErr)
	}
}

// TestLUBlockSizesAgree: the blocked factorization must be independent of
// the block size up to floating-point reassociation — for a diagonally
// dominant matrix the results must agree closely.
func TestLUBlockSizesAgree(t *testing.T) {
	const n = 32
	a := luInput(n)
	lu8 := slices.Clone(a)
	seqBlockLU(lu8, n, 8)
	lu16 := slices.Clone(a)
	seqBlockLU(lu16, n, 16)
	for i := range a {
		if math.Abs(lu8[i]-lu16[i]) > 1e-8 {
			t.Fatalf("block sizes disagree at %d: %v vs %v", i, lu8[i], lu16[i])
		}
	}
}

// TestFFTSixStepMatchesNaiveDFT validates the six-step algorithm across
// the full output for a small size.
func TestFFTSixStepMatchesNaiveDFT(t *testing.T) {
	const m = 8 // n = 64
	n := m * m
	in := fftInput(n)
	got := fftSixStepSeq(in, m)
	for k := 0; k < n; k++ {
		var want complex128
		for j := 0; j < n; j++ {
			want += in[j] * fftTwiddle(j, k, n)
		}
		if cmplx.Abs(got[k]-want) > 1e-9*float64(n) {
			t.Fatalf("DFT mismatch at %d: %v vs %v", k, got[k], want)
		}
	}
}

// TestFFTLinearity: FFT(a+b) = FFT(a)+FFT(b) — a structural property the
// implementation must satisfy independent of the reference.
func TestFFTLinearity(t *testing.T) {
	const m = 8
	n := m * m
	a := fftInput(n)
	b := make([]complex128, n)
	for i := range b {
		b[i] = complex(float64(i%13)/13, -float64(i%7)/7)
	}
	ab := make([]complex128, n)
	for i := range ab {
		ab[i] = a[i] + b[i]
	}
	fa := fftSixStepSeq(a, m)
	fb := fftSixStepSeq(b, m)
	fab := fftSixStepSeq(ab, m)
	for i := range fab {
		if cmplx.Abs(fab[i]-(fa[i]+fb[i])) > 1e-9*float64(n) {
			t.Fatalf("linearity violated at %d", i)
		}
	}
}

// TestWaterForcesAntisymmetric: the pair force must satisfy Newton's third
// law under the quantization (what makes momentum-free accumulation work).
func TestWaterForcesAntisymmetric(t *testing.T) {
	pos := waterInitPos(16)
	for i := 0; i < 16; i++ {
		for j := i + 1; j < 16; j++ {
			fij := waterPairForce(pos[i], pos[j])
			fji := waterPairForce(pos[j], pos[i])
			for d := 0; d < 3; d++ {
				if quantize(fij[d]) != -quantize(fji[d]) {
					t.Fatalf("pair (%d,%d) dim %d not antisymmetric after quantization", i, j, d)
				}
			}
		}
	}
}

// TestWaterMomentumConservation: with antisymmetric quantized forces, the
// total accumulated force must be exactly zero.
func TestWaterMomentumConservation(t *testing.T) {
	const n = 32
	pos := waterInitPos(n)
	acc := make([]int64, 3*n)
	for i := 0; i < n; i++ {
		waterNsqPartners(i, n, func(j int) { addForce(acc, i, j, waterPairForce(pos[i], pos[j])) })
	}
	for d := 0; d < 3; d++ {
		var total int64
		for i := 0; i < n; i++ {
			total += acc[3*i+d]
		}
		if total != 0 {
			t.Fatalf("total force in dim %d = %d, want 0", d, total)
		}
	}
}

// TestWaterCyclicPairingCoversAllPairs: the load-balanced cyclic pairing
// must enumerate each unordered pair exactly once, for odd and even n.
func TestWaterCyclicPairingCoversAllPairs(t *testing.T) {
	for _, n := range []int{7, 8, 16, 21} {
		seen := make(map[[2]int]int)
		for i := 0; i < n; i++ {
			waterNsqPartners(i, n, func(j int) { seen[[2]int{min(i, j), max(i, j)}]++ })
		}
		want := n * (n - 1) / 2
		if len(seen) != want {
			t.Fatalf("n=%d: %d distinct pairs, want %d", n, len(seen), want)
		}
		for p, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: pair %v enumerated %d times", n, p, c)
			}
		}
	}
}

// TestWaterSpHalfShellCoversAllNeighbours: self + 13 half-shell offsets
// must cover each unordered cell pair at most once and every adjacent pair
// exactly once (interior cells).
func TestWaterSpHalfShellCoversAllNeighbours(t *testing.T) {
	const nc = 4
	cidx := func(x, y, z int) int { return (x*nc+y)*nc + z }
	pairSeen := make(map[[2]int]int)
	for x := 0; x < nc; x++ {
		for y := 0; y < nc; y++ {
			for z := 0; z < nc; z++ {
				c := cidx(x, y, z)
				for _, off := range halfShell {
					nx, ny, nz := x+off[0], y+off[1], z+off[2]
					if nx < 0 || ny < 0 || nz < 0 || nx >= nc || ny >= nc || nz >= nc {
						continue
					}
					o := cidx(nx, ny, nz)
					a, b := c, o
					if a > b {
						a, b = b, a
					}
					pairSeen[[2]int{a, b}]++
				}
			}
		}
	}
	for p, c := range pairSeen {
		if c != 1 {
			t.Fatalf("cell pair %v enumerated %d times", p, c)
		}
	}
	// Every adjacent (Chebyshev distance 1) pair must appear.
	count := 0
	for x := 0; x < nc; x++ {
		for y := 0; y < nc; y++ {
			for z := 0; z < nc; z++ {
				for dx := -1; dx <= 1; dx++ {
					for dy := -1; dy <= 1; dy++ {
						for dz := -1; dz <= 1; dz++ {
							if dx == 0 && dy == 0 && dz == 0 {
								continue
							}
							nx, ny, nz := x+dx, y+dy, z+dz
							if nx < 0 || ny < 0 || nz < 0 || nx >= nc || ny >= nc || nz >= nc {
								continue
							}
							count++
						}
					}
				}
			}
		}
	}
	if len(pairSeen) != count/2 {
		t.Fatalf("covered %d pairs, want %d", len(pairSeen), count/2)
	}
}

// TestChunkPartition: chunk and threadChunkFor must partition exactly.
func TestChunkPartition(t *testing.T) {
	for _, n := range []int{1, 7, 64, 130, 1000} {
		for _, parts := range []int{1, 3, 8, 16} {
			covered := 0
			prevHi := 0
			for id := 0; id < parts; id++ {
				lo, hi := chunk(n, parts, id)
				if lo != prevHi {
					t.Fatalf("chunk(%d,%d): gap at worker %d", n, parts, id)
				}
				covered += hi - lo
				prevHi = hi
			}
			if covered != n {
				t.Fatalf("chunk(%d,%d) covered %d", n, parts, covered)
			}
		}
		for _, procs := range []int{2, 4} {
			for _, tpp := range []int{1, 2, 4} {
				covered := 0
				prevHi := 0
				for id := 0; id < procs*tpp; id++ {
					lo, hi := threadChunkFor(n, procs, tpp, id)
					if lo != prevHi {
						t.Fatalf("threadChunkFor(%d,%d,%d): gap at %d", n, procs, tpp, id)
					}
					covered += hi - lo
					prevHi = hi
				}
				if covered != n {
					t.Fatalf("threadChunkFor(%d,%d,%d) covered %d", n, procs, tpp, covered)
				}
			}
		}
	}
}

// TestThreadChunkProcBalance: adding threads must not unbalance processor
// loads (the regression behind the original chunk()).
func TestThreadChunkProcBalance(t *testing.T) {
	const n, procs = 130, 8
	for _, tpp := range []int{1, 2, 8} {
		per := make([]int, procs)
		for id := 0; id < procs*tpp; id++ {
			lo, hi := threadChunkFor(n, procs, tpp, id)
			per[id/tpp] += hi - lo
		}
		minP, maxP := per[0], per[0]
		for _, v := range per {
			minP = min(minP, v)
			maxP = max(maxP, v)
		}
		if maxP-minP > 1 {
			t.Fatalf("tpp=%d: processor loads %v unbalanced", tpp, per)
		}
	}
}
