package apps

import (
	"fmt"
	"math/rand"
	"slices"

	"godsm/dsm"
)

// RADIX: SPLASH-2 style parallel integer radix sort. Each pass over one
// digit: (1) every thread builds a private histogram of its key chunk,
// publishes it to a shared density array; (2) after a barrier, thread 0
// computes the global rank offsets (every thread's starting position per
// digit); (3) after another barrier, every thread permutes its keys into
// the destination array at those offsets. The permutation's scattered
// remote writes are the dominant communication, as in the paper.
//
// Prefetch insertion: the histogram read pass prefetches the source chunk
// sequentially (well-pipelined); the permutation prefetches each digit
// bucket's upcoming destination page when the write position crosses into
// it — which is inherently hard to do early, matching the paper's
// observation that RADIX has the largest fraction of late prefetches.

type radixParams struct {
	n      int
	maxKey int64
	bits   int // bits per pass
}

// radixSizes are RADIX's inputs at each scale; the paper sorts 2^20 keys
// up to 2^21 with radix 1024.
var radixSizes = [3]radixParams{{n: 2048, maxKey: 1 << 12, bits: 6}, {n: 1 << 15, maxKey: 1 << 18, bits: 7},
	{n: 1 << 20, maxKey: 1 << 21, bits: 10}}

func radixInput(n int, maxKey int64) []int64 {
	rng := rand.New(rand.NewSource(19980204))
	keys := make([]int64, n)
	for i := range keys {
		keys[i] = rng.Int63n(maxKey)
	}
	return keys
}

// BuildRadix constructs the RADIX application.
func BuildRadix(sys *dsm.System, opt Options) *Instance {
	p := sized(opt.Scale, radixSizes)
	radix := 1 << p.bits
	passes := 0
	for maxv := p.maxKey - 1; maxv > 0; maxv >>= p.bits {
		passes++
	}
	input := sharedInput(inputKey{gen: "radix", n: p.n, m: int(p.maxKey)},
		func() []int64 { return radixInput(p.n, p.maxKey) })

	src := allocWords[int64](sys, p.n)
	dst := allocWords[int64](sys, p.n)
	T := sys.TotalThreads()
	density := allocWords[int64](sys, radix*T) // density[d*T + t]
	offsets := allocWords[int64](sys, radix*T) // rank offsets, same indexing
	chunkTot := allocWords[int64](sys, T)      // per-thread digit-chunk totals
	var box errBox

	run := func(e *dsm.Env) {
		me := e.ThreadID()
		nT := e.NumThreads()
		lo, hi := e.ThreadRange(p.n)

		if me == 0 {
			writeWords(e, src.at(0), input, 20)
		}
		e.Barrier(0)

		bar := 1
		a, bArr := src, dst
		for pass := 0; pass < passes; pass++ {
			shift := uint(pass * p.bits)
			mask := int64(radix - 1)

			// 1. Local histogram over the thread's chunk, with pipelined
			// sequential prefetch of the source region: a page of keys
			// ahead every pfEvery keys, so a run of keys read through one
			// view ends at the next prefetch.
			hist := make([]int64, radix)
			const pfAhead, pfEvery = 2 * dsm.PageSize, dsm.PageSize / 8
			stretch := hi - lo
			if e.Prefetching() {
				stretch = pfEvery
			}
			for i := lo; i < hi; i += stretch {
				if e.Prefetching() {
					e.PrefetchRange(a.at(i)+pfAhead, dsm.PageSize)
				}
				eachRun(e, [4]lane{{a: a.at(i)}}, min(stretch, hi-i), 1, 1, costRadixOp,
					func(v [4][]int64, _, q int) int {
						for _, k := range v[0] {
							hist[(k>>shift)&mask]++
						}
						return q
					},
					func(x int) { hist[(e.ReadI64(a.at(i+x))>>shift)&mask]++ })
			}
			writeWords(e, density.at(me*radix), hist, 0)
			e.Barrier(bar)
			bar++

			// 2. Global prefix, parallelized over digit ranges as in
			// SPLASH-2: each thread scans its own digit chunk and writes
			// relative offsets plus its chunk total; thread 0 prefixes the
			// chunk totals; each thread then adds its chunk base.
			dLo, dHi := e.ThreadRange(radix)
			var local int64
			for d := dLo; d < dHi; d++ {
				for t := 0; t < nT; t++ {
					e.WriteI64(offsets.at(t*radix+d), local)
					local += e.ReadI64(density.at(t*radix + d))
					e.Compute(costKeyOp)
				}
			}
			e.WriteI64(chunkTot.at(me), local)
			e.Barrier(bar)
			bar++
			if me == 0 {
				var run int64
				for t := 0; t < nT; t++ {
					v := e.ReadI64(chunkTot.at(t))
					e.WriteI64(chunkTot.at(t), run)
					run += v
					e.Compute(costKeyOp)
				}
			}
			e.Barrier(bar)
			bar++
			base := e.ReadI64(chunkTot.at(me))
			if base != 0 {
				for d := dLo; d < dHi; d++ {
					for t := 0; t < nT; t++ {
						a := offsets.at(t*radix + d)
						e.WriteI64(a, e.ReadI64(a)+base)
						e.Compute(costKeyOp)
					}
				}
			}
			e.Barrier(bar)
			bar++

			// 3. Permutation into the destination array. After the prefix
			// phase each thread knows exactly which destination ranges it
			// will write ([rank[d], rank[d]+hist[d]) per digit), so the
			// prefetching version issues all of them up front — maximal
			// lookahead, at the cost of compressing the fetch traffic into
			// a burst (the paper's RADIX network-contention effect).
			rank := make([]int64, radix)
			for d := 0; d < radix; d++ {
				rank[d] = e.ReadI64(offsets.at(me*radix + d))
			}
			if e.Prefetching() {
				for d := 0; d < radix; d++ {
					if hist[d] > 0 {
						e.PrefetchRange(bArr.at(int(rank[d])), 8*int(hist[d]))
					}
				}
			}
			// A view of the rest of the source page, and one of each
			// destination word while they hit.
			eachRun(e, [4]lane{{a: a.at(lo)}}, hi-lo, 1, 2, costRadixOp,
				func(v [4][]int64, _, q int) int {
					for x, k := range v[0] {
						d := (k >> shift) & mask
						to := e.ViewI64(bArr.at(int(rank[d])), 1, true)
						if to == nil {
							return x
						}
						to[0] = k
						rank[d]++
					}
					return q
				},
				func(x int) {
					k := e.ReadI64(a.at(lo + x))
					d := (k >> shift) & mask
					e.WriteI64(bArr.at(int(rank[d])), k)
					rank[d]++
				})
			e.Barrier(bar)
			bar++
			a, bArr = bArr, a
		}

		if me == 0 {
			e.EndMeasurement()
			if opt.Verify {
				box.set(radixVerify(e, a, input))
			}
		}
		e.Barrier(bar)
	}

	return &Instance{Name: "RADIX", Run: run, Err: box.get}
}

func radixVerify(e *dsm.Env, out i64s, input []int64) error {
	want := append([]int64(nil), input...)
	slices.Sort(want)
	if x, got := firstDiff(e, out.at(0), want); x >= 0 {
		return fmt.Errorf("RADIX: position %d = %d, want %d", x, got, want[x])
	}
	return nil
}
