package apps

import (
	"fmt"
	"sort"

	"godsm/dsm"
)

// WATER-SP: the O(n) spatial variant of the water simulation. Molecules are
// binned into a 3D cell grid whose lists (head/next) live in shared memory:
// traversing them is the pointer-chasing access pattern the paper singles
// out. Threads own cell ranges and evaluate forces between each owned cell
// and its half-shell of neighbour cells, with the same fixed-point
// order-independent force accumulation as WATER-NSQ.
//
// Prefetch insertion follows the paper's history scheme (Luk & Mowry):
// since the lists do not change within a step, each thread first records
// its traversal order into a private index array and then, during the force
// pass, prefetches position pages several molecules ahead by dereferencing
// the recorded array — circumventing the pointer-chasing problem.

type waterSpParams struct {
	n, steps, ncell int
}

func waterSpSizes(sc Scale) waterSpParams {
	switch sc {
	case Unit:
		return waterSpParams{n: 125, steps: 2, ncell: 3}
	case Small:
		return waterSpParams{n: 512, steps: 4, ncell: 4}
	default: // paper: 4096 molecules, 9 steps
		return waterSpParams{n: 4096, steps: 9, ncell: 6}
	}
}

// waterSpInsBase is the base of the per-cell insertion lock id space. One
// lock per cell: with spatially-sorted molecule ownership, insertions are
// almost always into the owner's own cells, so the token stays cached
// locally and the acquire is free — boundary cells produce the remote lock
// traffic, as in SPLASH-2.
const waterSpInsBase = 1000

// halfShell lists the 13 lexicographically-positive neighbour offsets plus
// implicit self handling by the caller.
var halfShell = [13][3]int{
	{1, 0, 0}, {0, 1, 0}, {0, 0, 1},
	{1, 1, 0}, {1, 0, 1}, {0, 1, 1},
	{1, -1, 0}, {1, 0, -1}, {0, 1, -1},
	{1, 1, 1}, {1, 1, -1}, {1, -1, 1}, {-1, 1, 1},
}

// waterSpPairForce is the cutoff form of the pair potential; the cutoff is
// the cell edge length so only neighbouring cells interact.
func waterSpPairForce(a, b [3]float64, cut2 float64) ([3]float64, bool) {
	var dr [3]float64
	raw := 0.0
	for d := 0; d < 3; d++ {
		dr[d] = a[d] - b[d]
		raw += dr[d] * dr[d]
	}
	if raw >= cut2 {
		return [3]float64{}, false
	}
	r2 := raw + 0.25
	inv2 := 1 / r2
	inv4 := inv2 * inv2
	mag := inv4 - 0.2*inv2
	var f [3]float64
	for d := 0; d < 3; d++ {
		f[d] = mag * dr[d]
	}
	return f, true
}

func cellOf(p [3]float64, ncell int) (int, int, int) {
	cl := waterBox / float64(ncell)
	cx, cy, cz := int(p[0]/cl), int(p[1]/cl), int(p[2]/cl)
	clampi := func(v int) int {
		if v < 0 {
			return 0
		}
		if v >= ncell {
			return ncell - 1
		}
		return v
	}
	return clampi(cx), clampi(cy), clampi(cz)
}

// BuildWaterSp constructs the WATER-SP application.
func BuildWaterSp(sys *dsm.System, opt Options) *Instance {
	p := waterSpSizes(opt.Scale)
	n, nc := p.n, p.ncell
	ncells := nc * nc * nc
	cl := waterBox / float64(nc)
	cut2 := cl * cl

	pos := allocF64s(sys, molStride*n)
	vel := allocF64s(sys, molStride*n)
	force := allocI64s(sys, molStride*n)
	head := allocI64s(sys, ncells)
	next := allocI64s(sys, n)
	init := waterInitPosSorted(n, nc)
	var box errBox

	cidx := func(x, y, z int) int { return (x*nc+y)*nc + z }
	nBlocks := (n + waterNsqBlk - 1) / waterNsqBlk

	// Per-processor force accumulator shared by sibling threads (the same
	// per-processor optimization as WATER-NSQ).
	procAcc := make([][]int64, sys.Cfg.Procs)

	// listOf reads cell c's molecule list through the shared pointers.
	listOf := func(e *dsm.Env, c int) []int {
		var out []int
		for i := e.ReadI64(head.at(c)); i >= 0; i = e.ReadI64(next.at(int(i))) {
			out = append(out, int(i))
			e.Compute(costKeyOp)
		}
		return out
	}

	run := func(e *dsm.Env) {
		nT := e.NumThreads()
		tpp := nT / e.NumProcs()
		mlo, mhi := e.ThreadRange(n)      // owned molecules
		clo, chi := e.ThreadRange(ncells) // owned cells
		if e.LocalThread() == 0 {
			procAcc[e.ProcID()] = make([]int64, 3*n)
		}

		if e.ThreadID() == 0 {
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
		// prevRecord is the paper's history array: the molecule traversal
		// order recorded in the previous step. The cell structure changes
		// little between steps, so dereferencing it prefetches the pointer
		// chain's data well ahead of the pointer-chasing traversal.
		var prevRecord []int
		for step := 0; step < p.steps; step++ {
			// Rebuild cell lists: reset owned heads, zero owned forces and
			// (local thread 0) the processor's shared accumulator.
			for c := clo; c < chi; c++ {
				e.WriteI64(head.at(c), -1)
			}
			for i := mlo; i < mhi; i++ {
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

			// Insert owned molecules under per-cell-group locks.
			for i := mlo; i < mhi; i++ {
				cx, cy, cz := cellOf(readPos(e, pos, i), nc)
				c := cidx(cx, cy, cz)
				lk := waterSpInsBase + c
				e.Lock(lk)
				e.WriteI64(next.at(i), e.ReadI64(head.at(c)))
				e.WriteI64(head.at(c), int64(i))
				e.Unlock(lk)
				e.Compute(costKeyOp)
			}
			e.Barrier(bar)
			bar++

			// History-based prefetching (Luk & Mowry, as in the paper):
			// before any pointer chasing, dereference the previous step's
			// traversal record to prefetch the cell-list pages and the
			// position pages this thread is about to walk.
			if e.Prefetching() {
				e.PrefetchRange(head.at(0), 8*ncells)
				for _, i := range prevRecord {
					e.Prefetch(next.at(i))
					e.Prefetch(pos.at(molStride * i))
				}
			}

			// Traversal pass: record the order of every list this thread
			// walks (own cells + their half shells).
			var record []int
			lists := make(map[int][]int)
			cellList := func(c int) []int {
				l, ok := lists[c]
				if !ok {
					l = listOf(e, c)
					lists[c] = l
					record = append(record, l...)
				}
				return l
			}

			acc := procAcc[e.ProcID()]
			pair := func(i, j int) {
				pi, pj := readPos(e, pos, i), readPos(e, pos, j)
				f, in := waterSpPairForce(pi, pj, cut2)
				e.Compute(costPairForce)
				if !in {
					return
				}
				for d := 0; d < 3; d++ {
					q := quantize(f[d])
					acc[3*i+d] += q
					acc[3*j+d] -= q
				}
			}
			for c := clo; c < chi; c++ {
				cz := c % nc
				cy := (c / nc) % nc
				cx := c / (nc * nc)
				own := cellList(c)
				for a := 0; a < len(own); a++ {
					for b := a + 1; b < len(own); b++ {
						i, j := own[a], own[b]
						if i > j {
							i, j = j, i
						}
						pair(i, j)
					}
				}
				for _, off := range halfShell {
					nx, ny, nz := cx+off[0], cy+off[1], cz+off[2]
					if nx < 0 || ny < 0 || nz < 0 || nx >= nc || ny >= nc || nz >= nc {
						continue
					}
					other := cellList(cidx(nx, ny, nz))
					for _, i := range own {
						for _, j := range other {
							pair(i, j)
						}
					}
				}
			}
			prevRecord = record

			// All siblings must finish their pairs before merging the
			// shared accumulator.
			e.Barrier(bar)
			bar++

			// Merge forces under block locks (as in WATER-NSQ): the
			// processor's threads split the blocks, staggered across
			// processors to avoid a lock convoy.
			mstart := e.ProcID() * nBlocks / e.NumProcs()
			for t := e.LocalThread(); t < nBlocks; t += tpp {
				blk := (mstart + t) % nBlocks
				first := blk * waterNsqBlk
				last := min(n, first+waterNsqBlk)
				hasWork := false
				for i := 3 * first; i < 3*last && !hasWork; i++ {
					hasWork = acc[i] != 0
				}
				if !hasWork {
					continue
				}
				if e.Prefetching() {
					nf := ((mstart + t + tpp) % nBlocks) * waterNsqBlk
					if molStride*(nf+waterNsqBlk) <= molStride*n {
						e.PrefetchRange(force.at(molStride*nf), 8*molStride*waterNsqBlk)
					}
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

			// Integrate owned molecules.
			for i := mlo; i < mhi; i++ {
				integrate(e, pos, vel, force, i)
			}
			e.Barrier(bar)
			bar++
		}

		if e.ThreadID() == 0 {
			e.EndMeasurement()
			if opt.Verify {
				box.set(waterSpVerify(e, pos, vel, init, p, cut2))
			}
		}
		e.Barrier(bar)
	}

	return &Instance{Name: "WATER-SP", Run: run, Err: box.get}
}

// waterSpVerify replays the dynamics sequentially: the pair set is defined
// by cell membership (identical), and quantized contributions make the sum
// order-independent, so positions and velocities must match bitwise.
func waterSpVerify(e *dsm.Env, pos, vel f64s, init [][3]float64, p waterSpParams, cut2 float64) error {
	n, nc := p.n, p.ncell
	cidx := func(x, y, z int) int { return (x*nc+y)*nc + z }
	ps := make([][3]float64, n)
	vs := make([][3]float64, n)
	copy(ps, init)
	for step := 0; step < p.steps; step++ {
		// Sequential cell lists.
		cells := make([][]int, nc*nc*nc)
		for i := 0; i < n; i++ {
			cx, cy, cz := cellOf(ps[i], nc)
			cells[cidx(cx, cy, cz)] = append(cells[cidx(cx, cy, cz)], i)
		}
		acc := make([]int64, 3*n)
		addPair := func(i, j int) {
			f, in := waterSpPairForce(ps[i], ps[j], cut2)
			if !in {
				return
			}
			for d := 0; d < 3; d++ {
				q := quantize(f[d])
				acc[3*i+d] += q
				acc[3*j+d] -= q
			}
		}
		for c := 0; c < nc*nc*nc; c++ {
			cz := c % nc
			cy := (c / nc) % nc
			cx := c / (nc * nc)
			own := cells[c]
			for a := 0; a < len(own); a++ {
				for b := a + 1; b < len(own); b++ {
					i, j := own[a], own[b]
					if i > j {
						i, j = j, i
					}
					addPair(i, j)
				}
			}
			for _, off := range halfShell {
				nx, ny, nz := cx+off[0], cy+off[1], cz+off[2]
				if nx < 0 || ny < 0 || nz < 0 || nx >= nc || ny >= nc || nz >= nc {
					continue
				}
				for _, i := range own {
					for _, j := range cells[cidx(nx, ny, nz)] {
						addPair(i, j)
					}
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
				return fmt.Errorf("WATER-SP: molecule %d dim %d pos/vel = %v/%v, want %v/%v",
					i, d, gp, gv, ps[i][d], vs[i][d])
			}
		}
	}
	return nil
}

// waterInitPosSorted returns the deterministic initial positions sorted by
// cell index, so that index-chunked molecule ownership is spatially
// coherent — as in SPLASH-2, where each processor's molecules occupy its
// region of the cell grid and list insertion is mostly processor-local.
func waterInitPosSorted(n, nc int) [][3]float64 {
	pos := waterInitPos(n)
	sort.SliceStable(pos, func(a, b int) bool {
		ax, ay, az := cellOf(pos[a], nc)
		bx, by, bz := cellOf(pos[b], nc)
		ca := (ax*nc+ay)*nc + az
		cb := (bx*nc+by)*nc + bz
		return ca < cb
	})
	return pos
}
