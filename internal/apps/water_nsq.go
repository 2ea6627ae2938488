package apps

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"godsm/dsm"
)

// WATER-NSQ: O(n²) molecular dynamics over n molecules, preserving the
// sharing pattern the paper highlights: each thread evaluates the pairwise
// forces of its molecules against all later molecules into a private
// accumulator, then merges the contributions into the shared force arrays
// under per-block locks — the multiple-producer, multiple-consumer pattern
// whose lock-protected misses dominate WATER-NSQ. The chemistry is a
// simplified bounded pair potential (documented in DESIGN.md); the DSM sees
// the same access and synchronization structure as the SPLASH-2 original.
//
// Prefetch insertion (Section 3.2): non-binding prefetches are issued for
// the force pages of the *next* lock-protected block before acquiring the
// current block's lock — prefetching across locks is exactly what the
// non-binding property enables.
//
// Force contributions are quantized to fixed point per pair, so the merged
// totals are independent of merge order and thread count; every
// configuration is verified bitwise against the sequential golden run.

type waterNsqParams struct {
	n, steps int
}

// waterNsqSizes are WATER-NSQ's inputs at each scale; the paper runs 512
// molecules for 9 time steps.
var waterNsqSizes = [3]waterNsqParams{{n: 64, steps: 2}, {n: 216, steps: 4}, {n: 512, steps: 9}}

const (
	waterDt      = 0.002
	waterBox     = 10.0
	waterFPScale = 1 << 24 // fixed-point force scale

	// molStride is the per-molecule record size in 8-byte words. The
	// simplified dynamics use 3 components, but the record layout matches
	// the SPLASH-2 MOL struct scale (per-atom vectors and higher-order
	// terms), which determines how molecules map onto pages — and
	// therefore the paper's page-sharing and locking geometry.
	molStride = 9

	waterLockBase = 100 // lock id space for force blocks
	// waterNsqBlk: molecules per force lock block. Finer than a page so
	// that merges can proceed in parallel across locks (SPLASH-2 uses
	// fine-grained molecule locks).
	waterNsqBlk = 16
)

// waterInitPos returns deterministic initial positions in the box.
func waterInitPos(n int) [][3]float64 {
	rng := rand.New(rand.NewSource(512_9))
	pos := make([][3]float64, n)
	for i := range pos {
		for d := 0; d < 3; d++ {
			pos[i][d] = rng.Float64() * waterBox
		}
	}
	return pos
}

// waterPairForce evaluates the bounded pair potential between positions a
// and b and returns the force on a (negated for b). A smooth repulsive/
// attractive form with a softened core keeps the dynamics bounded.
func waterPairForce(a, b [3]float64) [3]float64 {
	var dr [3]float64
	r2 := 0.25 // softening
	for d := 0; d < 3; d++ {
		dr[d] = a[d] - b[d]
		r2 += dr[d] * dr[d]
	}
	inv2 := 1 / r2
	inv4 := inv2 * inv2
	mag := inv4 - 0.2*inv2 // repulsive core, weak attraction
	var f [3]float64
	for d := 0; d < 3; d++ {
		f[d] = mag * dr[d]
	}
	return f
}

// waterMols is what both WATERs keep per molecule — position, velocity and
// fixed-point force records, molStride words apart — and the force
// accumulator each processor's threads share (the paper's multithreading
// change for WATER-NSQ), in plain Go memory: processor-local storage, which
// the DSM does not manage. Its methods are the steps the two WATERs share.
type waterMols struct {
	n        int
	pos, vel f64s
	force    i64s
	procAcc  [][]int64
}

func newWaterMols(sys *dsm.System, n int) *waterMols {
	return &waterMols{n: n, pos: allocWords[float64](sys, molStride*n), vel: allocWords[float64](sys, molStride*n),
		force: allocWords[int64](sys, molStride*n), procAcc: make([][]int64, sys.Cfg.Procs)}
}

// start gives each processor its accumulator and has thread 0 write the
// initial positions and zero velocities.
func (w *waterMols) start(e *dsm.Env, init [][3]float64) {
	if e.LocalThread() == 0 {
		w.procAcc[e.ProcID()] = make([]int64, 3*w.n)
	}
	if e.ThreadID() == 0 {
		for i := range w.n {
			for d := range 3 {
				e.WriteF64(w.pos.at(molStride*i+d), init[i][d])
				e.WriteF64(w.vel.at(molStride*i+d), 0)
			}
			e.Compute(60)
		}
	}
}

// zero clears the force records of molecules [lo, hi) and, on a processor's
// thread 0, the processor's accumulator.
func (w *waterMols) zero(e *dsm.Env, lo, hi int) {
	for i := lo; i < hi; i++ {
		for d := range 3 {
			e.WriteI64(w.force.at(molStride*i+d), 0)
		}
	}
	if e.LocalThread() == 0 {
		clear(w.procAcc[e.ProcID()])
		e.Compute(dsm.Time(w.n) * 20)
	}
}

// block returns the molecules [first, last) of force lock block blk.
func (w *waterMols) block(blk int) (first, last int) {
	first = blk * waterNsqBlk
	return first, min(w.n, first+waterNsqBlk)
}

// pending reports whether acc holds a contribution for block blk.
func (w *waterMols) pending(acc []int64, blk int) bool {
	first, last := w.block(blk)
	return slices.ContainsFunc(acc[3*first:3*last], func(v int64) bool { return v != 0 })
}

// merge adds acc's contributions for block blk to the shared force records
// under the block's lock.
func (w *waterMols) merge(e *dsm.Env, acc []int64, blk int) {
	first, last := w.block(blk)
	e.Lock(waterLockBase + blk)
	for m := first; m < last; m++ {
		for d := range 3 {
			if v := acc[3*m+d]; v != 0 {
				a := w.force.at(molStride*m + d)
				e.WriteI64(a, e.ReadI64(a)+v)
				e.Compute(costKeyOp)
			}
		}
	}
	e.Unlock(waterLockBase + blk)
}

func quantize(v float64) int64 { return int64(math.Round(v * waterFPScale)) }

// addForce quantizes the force f of pair (i, j) on i and adds it to i's
// entries in acc and subtracts it from j's.
func addForce(acc []int64, i, j int, f [3]float64) {
	for d := range 3 {
		q := quantize(f[d])
		acc[3*i+d] += q
		acc[3*j+d] -= q
	}
}

// readPos reads molecule i's position: one view of three words, or three
// reads where the view is not there.
func (w *waterMols) readPos(e *dsm.Env, i int) [3]float64 {
	a := w.pos.at(molStride * i)
	if v := e.View(a, 3, false); v != nil {
		e.Accessed(3)
		return [3]float64(v)
	}
	return [3]float64{e.ReadF64(a), e.ReadF64(a + 8), e.ReadF64(a + 16)}
}

// integrate advances molecule i one time step under its merged force, with
// reflective walls: three views of three words (force, velocity, position)
// when all hit, else each dimension's five accesses through the accessors.
func (w *waterMols) integrate(e *dsm.Env, i int) {
	fa, va, pa := w.force.at(molStride*i), w.vel.at(molStride*i), w.pos.at(molStride*i)
	if fs := e.ViewI64(fa, 3, false); fs != nil {
		if vs := e.View(va, 3, true); vs != nil {
			if ps := e.View(pa, 3, true); ps != nil {
				for d := range 3 {
					vs[d], ps[d] = waterStep(fs[d], vs[d], ps[d])
				}
				e.Accessed(15)
				e.Compute(costIntegrate)
				return
			}
		}
	}
	for d := range 3 {
		o := dsm.Addr(8 * d)
		f := e.ReadI64(fa + o)
		v, x := waterStep(f, e.ReadF64(va+o), e.ReadF64(pa+o))
		e.WriteF64(va+o, v)
		e.WriteF64(pa+o, x)
	}
	e.Compute(costIntegrate)
}

// waterStep integrates one dimension: the new velocity and position from the
// fixed-point force f and the old velocity v and position x.
func waterStep(f int64, v, x float64) (float64, float64) {
	v += float64(f) / waterFPScale * waterDt
	x += v * waterDt
	if x < 0 {
		x, v = -x, -v
	}
	if x > waterBox {
		x, v = 2*waterBox-x, -v
	}
	return v, x
}

// verify replays steps of the dynamics from init sequentially — forces adds
// one step's quantized pair forces at positions ps to acc — and compares the
// shared positions and velocities with the replay's bitwise.
func (w *waterMols) verify(e *dsm.Env, name string, init [][3]float64, steps int, forces func(ps [][3]float64, acc []int64)) error {
	ps, vs := slices.Clone(init), make([][3]float64, w.n)
	for range steps {
		acc := make([]int64, 3*w.n)
		forces(ps, acc)
		for i := range ps {
			for d := range 3 {
				vs[i][d], ps[i][d] = waterStep(acc[3*i+d], vs[i][d], ps[i][d])
			}
		}
	}
	for i := range w.n {
		for d := range 3 {
			gp, gv := e.ReadF64(w.pos.at(molStride*i+d)), e.ReadF64(w.vel.at(molStride*i+d))
			if gp != ps[i][d] || gv != vs[i][d] {
				return fmt.Errorf("%s: molecule %d dim %d pos/vel = %v/%v, want %v/%v",
					name, i, d, gp, gv, ps[i][d], vs[i][d])
			}
		}
	}
	return nil
}

// waterNsqPartners calls f for each molecule j that molecule i is paired
// with: SPLASH-2's pairing for load balance, the n/2 molecules that follow i
// cyclically, so every thread evaluates the same number of pairs; the
// diametral pair is owned by min(i, j).
func waterNsqPartners(i, n int, f func(j int)) {
	for k := 1; k <= n/2; k++ {
		if j := (i + k) % n; 2*k != n || i < j {
			f(j)
		}
	}
}

// BuildWaterNsq constructs the WATER-NSQ application.
func BuildWaterNsq(sys *dsm.System, opt Options) *Instance {
	p := sized(opt.Scale, waterNsqSizes)
	n := p.n
	w := newWaterMols(sys, n)
	init := sharedInput(inputKey{gen: "water", n: n}, func() [][3]float64 { return waterInitPos(n) })
	var box errBox

	nBlocks := (n + waterNsqBlk - 1) / waterNsqBlk

	run := func(e *dsm.Env) {
		tpp := e.NumThreads() / e.NumProcs()
		lo, hi := e.ThreadRange(n)
		w.start(e, init)
		e.Barrier(0)

		bar := 1
		for step := 0; step < p.steps; step++ {
			w.zero(e, lo, hi)
			e.Barrier(bar)
			bar++

			// All positions are read during the pair phase; prefetch the
			// whole position array up front (it was scattered across owners
			// by the previous integration step).
			if e.Prefetching() {
				e.PrefetchRange(w.pos.at(0), 8*molStride*n)
			}

			// Pairwise forces into the processor's accumulator.
			acc := w.procAcc[e.ProcID()]
			for i := lo; i < hi; i++ {
				pi := w.readPos(e, i)
				waterNsqPartners(i, n, func(j int) {
					addForce(acc, i, j, waterPairForce(pi, w.readPos(e, j)))
					e.Compute(costPairForce)
				})
			}

			// All siblings must finish their pairs before the shared
			// accumulator is merged.
			e.Barrier(bar)
			bar++

			// Merge under per-block locks: the processor's threads split
			// the blocks among themselves (overlapping lock-transfer
			// latency under multithreading), starting at the processor's
			// own region (staggered, as SPLASH-2 does, to avoid a lock
			// convoy) and prefetching the next block's force pages before
			// taking the current block's lock.
			start := e.ProcID() * nBlocks / e.NumProcs()
			pfBlockPages := func(t int) {
				if t < nBlocks {
					first, last := w.block((start + t) % nBlocks)
					e.PrefetchRange(w.force.at(molStride*first), 8*molStride*(last-first))
				}
			}
			if e.Prefetching() {
				pfBlockPages(e.LocalThread())
			}
			for t := e.LocalThread(); t < nBlocks; t += tpp {
				if e.Prefetching() {
					pfBlockPages(t + tpp)
				}
				if blk := (start + t) % nBlocks; w.pending(acc, blk) {
					w.merge(e, acc, blk)
				}
			}
			e.Barrier(bar)
			bar++

			// Integrate owned molecules with reflective walls. The owned
			// force range was last written by other processors' merges.
			if e.Prefetching() {
				e.PrefetchRange(w.force.at(molStride*lo), 8*molStride*(hi-lo))
			}
			for i := lo; i < hi; i++ {
				w.integrate(e, i)
			}
			e.Barrier(bar)
			bar++
		}

		if e.ThreadID() == 0 {
			e.EndMeasurement()
			if opt.Verify {
				// The sequential replay, with the same per-pair
				// quantization.
				box.set(w.verify(e, "WATER-NSQ", init, p.steps, func(ps [][3]float64, acc []int64) {
					for i := range ps {
						waterNsqPartners(i, n, func(j int) { addForce(acc, i, j, waterPairForce(ps[i], ps[j])) })
					}
				}))
			}
		}
		e.Barrier(bar)
	}

	return &Instance{Name: "WATER-NSQ", Run: run, Err: box.get}
}
