package apps

import (
	"fmt"
	"math"
	"math/rand"

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

func waterNsqSizes(sc Scale) waterNsqParams {
	switch sc {
	case Unit:
		return waterNsqParams{n: 64, steps: 2}
	case Small:
		return waterNsqParams{n: 216, steps: 4}
	default: // paper: 512 molecules, 9 time steps
		return waterNsqParams{n: 512, steps: 9}
	}
}

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

func quantize(v float64) int64 { return int64(math.Round(v * waterFPScale)) }

// readPos reads molecule i's position: one view of three words, or three
// reads where the view is not there.
func readPos(e *dsm.Env, pos f64s, i int) [3]float64 {
	a := pos.at(molStride * i)
	if v := e.View(a, 3, false); v != nil {
		e.Accessed(3)
		return [3]float64(v)
	}
	return [3]float64{e.ReadF64(a), e.ReadF64(a + 8), e.ReadF64(a + 16)}
}

// integrate advances molecule i one time step under its merged force, with
// reflective walls: three views of three words (force, velocity, position)
// when all hit, else each dimension's five accesses through the accessors.
func integrate(e *dsm.Env, pos, vel f64s, force i64s, i int) {
	fa, va, pa := force.at(molStride*i), vel.at(molStride*i), pos.at(molStride*i)
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

// BuildWaterNsq constructs the WATER-NSQ application.
func BuildWaterNsq(sys *dsm.System, opt Options) *Instance {
	p := waterNsqSizes(opt.Scale)
	n := p.n
	pos := allocF64s(sys, molStride*n)
	vel := allocF64s(sys, molStride*n)
	force := allocI64s(sys, molStride*n) // fixed-point accumulators
	init := waterInitPos(n)
	var box errBox

	nBlocks := (n + waterNsqBlk - 1) / waterNsqBlk

	// Per-processor force accumulator, shared by the processor's threads —
	// the paper's WATER-NSQ modification for multithreading ("keep a single
	// shared copy of the data structure per processor"). Plain Go memory:
	// it models processor-local storage, which the DSM does not manage.
	procAcc := make([][]int64, sys.Cfg.Procs)

	run := func(e *dsm.Env) {
		me := e.ThreadID()
		nT := e.NumThreads()
		tpp := nT / e.NumProcs()
		lo, hi := e.ThreadRange(n)
		if e.LocalThread() == 0 {
			procAcc[e.ProcID()] = make([]int64, 3*n)
		}

		if me == 0 {
			for i := 0; i < n; i++ {
				for d := 0; d < 3; d++ {
					e.WriteF64(pos.at(molStride*i+d), init[i][d])
					e.WriteF64(vel.at(molStride*i+d), 0)
				}
				e.Compute(60)
			}
		}
		e.Barrier(0)

		bar := 1
		for step := 0; step < p.steps; step++ {
			// Zero the owned force range and (local thread 0) the
			// processor's shared accumulator.
			for i := lo; i < hi; i++ {
				for d := 0; d < 3; d++ {
					e.WriteI64(force.at(molStride*i+d), 0)
				}
			}
			if e.LocalThread() == 0 {
				acc := procAcc[e.ProcID()]
				for i := range acc {
					acc[i] = 0
				}
				e.Compute(dsm.Time(n) * 20)
			}
			e.Barrier(bar)
			bar++

			// All positions are read during the pair phase; prefetch the
			// whole position array up front (it was scattered across owners
			// by the previous integration step).
			if e.Prefetching() {
				e.PrefetchRange(pos.at(0), 8*molStride*n)
			}

			// Pairwise forces into a private accumulator. SPLASH-2 pairing
			// for load balance: molecule i interacts with the n/2
			// molecules that follow it cyclically, so every thread
			// evaluates the same number of pairs.
			acc := procAcc[e.ProcID()]
			for i := lo; i < hi; i++ {
				pi := readPos(e, pos, i)
				for k := 1; k <= n/2; k++ {
					j := (i + k) % n
					if 2*k == n && i > j {
						continue // the diametral pair is owned by min(i,j)
					}
					pj := readPos(e, pos, j)
					f := waterPairForce(pi, pj)
					for d := 0; d < 3; d++ {
						q := quantize(f[d])
						acc[3*i+d] += q
						acc[3*j+d] -= q
					}
					e.Compute(costPairForce)
				}
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
				blk := (start + t) % nBlocks
				if t >= nBlocks {
					return
				}
				first := blk * waterNsqBlk
				last := min(n, first+waterNsqBlk)
				e.PrefetchRange(force.at(molStride*first), 8*molStride*(last-first))
			}
			if e.Prefetching() {
				pfBlockPages(e.LocalThread())
			}
			for t := e.LocalThread(); t < nBlocks; t += tpp {
				if e.Prefetching() {
					pfBlockPages(t + tpp)
				}
				blk := (start + t) % nBlocks
				first := blk * waterNsqBlk
				last := min(n, first+waterNsqBlk)
				hasWork := false
				for i := 3 * first; i < 3*last && !hasWork; i++ {
					hasWork = acc[i] != 0
				}
				if !hasWork {
					continue
				}
				e.Lock(waterLockBase + blk)
				for m := first; m < last; m++ {
					for d := 0; d < 3; d++ {
						if v := acc[3*m+d]; v != 0 {
							a := force.at(molStride*m + d)
							e.WriteI64(a, e.ReadI64(a)+v)
							e.Compute(costKeyOp)
						}
					}
				}
				e.Unlock(waterLockBase + blk)
			}
			e.Barrier(bar)
			bar++

			// Integrate owned molecules with reflective walls. The owned
			// force range was last written by other processors' merges.
			if e.Prefetching() {
				e.PrefetchRange(force.at(molStride*lo), 8*molStride*(hi-lo))
			}
			for i := lo; i < hi; i++ {
				integrate(e, pos, vel, force, i)
			}
			e.Barrier(bar)
			bar++
		}

		if me == 0 {
			e.EndMeasurement()
			if opt.Verify {
				box.set(waterNsqVerify(e, pos, vel, init, p))
			}
		}
		e.Barrier(bar)
	}

	return &Instance{Name: "WATER-NSQ", Run: run, Err: box.get}
}

// waterNsqVerify replays the dynamics sequentially with the same per-pair
// quantization; positions and velocities must match bitwise.
func waterNsqVerify(e *dsm.Env, pos, vel f64s, init [][3]float64, p waterNsqParams) error {
	n := p.n
	ps := make([][3]float64, n)
	vs := make([][3]float64, n)
	copy(ps, init)
	for step := 0; step < p.steps; step++ {
		acc := make([]int64, 3*n)
		for i := 0; i < n; i++ {
			for k := 1; k <= n/2; k++ {
				j := (i + k) % n
				if 2*k == n && i > j {
					continue
				}
				f := waterPairForce(ps[i], ps[j])
				for d := 0; d < 3; d++ {
					q := quantize(f[d])
					acc[3*i+d] += q
					acc[3*j+d] -= q
				}
			}
		}
		for i := 0; i < n; i++ {
			for d := 0; d < 3; d++ {
				vs[i][d], ps[i][d] = waterStep(acc[3*i+d], vs[i][d], ps[i][d])
			}
		}
	}
	for i := 0; i < n; i++ {
		for d := 0; d < 3; d++ {
			gp := e.ReadF64(pos.at(molStride*i + d))
			gv := e.ReadF64(vel.at(molStride*i + d))
			if gp != ps[i][d] || gv != vs[i][d] {
				return fmt.Errorf("WATER-NSQ: molecule %d dim %d pos/vel = %v/%v, want %v/%v",
					i, d, gp, gv, ps[i][d], vs[i][d])
			}
		}
	}
	return nil
}
