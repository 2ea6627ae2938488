package apps

import "godsm/dsm"

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

// waterSpSizes are WATER-SP's inputs at each scale; the paper runs 4096
// molecules for 9 steps.
var waterSpSizes = [3]waterSpParams{{n: 125, steps: 2, ncell: 3}, {n: 512, steps: 4, ncell: 4},
	{n: 4096, steps: 9, ncell: 6}}

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

// cellOf returns the index of the cell of an nc³ grid over the box that
// holds position p.
func cellOf(p [3]float64, nc int) int {
	cl := waterBox / float64(nc)
	var c int
	for d := range 3 {
		c = c*nc + min(max(int(p[d]/cl), 0), nc-1)
	}
	return c
}

// waterSpPairs calls pair for every two molecules of cell c, then for every
// molecule of c with every molecule of each of c's half-shell neighbours;
// list returns a cell's molecules, and is asked for c and then for each
// neighbour in turn.
func waterSpPairs(c, nc int, list func(c int) []int, pair func(i, j int)) {
	cz, cy, cx := c%nc, (c/nc)%nc, c/(nc*nc)
	own := list(c)
	for a := 0; a < len(own); a++ {
		for b := a + 1; b < len(own); b++ {
			pair(min(own[a], own[b]), max(own[a], own[b]))
		}
	}
	for _, off := range halfShell {
		nx, ny, nz := cx+off[0], cy+off[1], cz+off[2]
		if nx < 0 || ny < 0 || nz < 0 || nx >= nc || ny >= nc || nz >= nc {
			continue
		}
		other := list((nx*nc+ny)*nc + nz)
		for _, i := range own {
			for _, j := range other {
				pair(i, j)
			}
		}
	}
}

// BuildWaterSp constructs the WATER-SP application.
func BuildWaterSp(sys *dsm.System, opt Options) *Instance {
	p := sized(opt.Scale, waterSpSizes)
	n, nc := p.n, p.ncell
	ncells := nc * nc * nc
	cl := waterBox / float64(nc)
	cut2 := cl * cl

	w := newWaterMols(sys, n)
	head := allocWords[int64](sys, ncells)
	next := allocWords[int64](sys, n)
	init := sharedInput(inputKey{gen: "water-sp", n: n, m: nc}, func() [][3]float64 { return waterInitPosSorted(n, nc) })
	var box errBox

	nBlocks := (n + waterNsqBlk - 1) / waterNsqBlk

	// listOf reads cell c's molecule list through the shared pointers,
	// appends it to record and returns record and the list: the stretch of
	// record it fills, capped so that later appends never write into it.
	listOf := func(e *dsm.Env, c int, record []int) ([]int, []int) {
		start := len(record)
		for i := e.ReadI64(head.at(c)); i >= 0; i = e.ReadI64(next.at(int(i))) {
			record = append(record, int(i))
			e.Compute(costKeyOp)
		}
		return record, record[start:len(record):len(record)]
	}

	run := func(e *dsm.Env) {
		tpp := e.NumThreads() / e.NumProcs()
		mlo, mhi := e.ThreadRange(n)      // owned molecules
		clo, chi := e.ThreadRange(ncells) // owned cells
		w.start(e, init)
		e.Barrier(0)

		bar := 1
		// prevRecord is the paper's history array: the molecule traversal
		// order recorded in the previous step. The cell structure changes
		// little between steps, so dereferencing it prefetches the pointer
		// chain's data well ahead of the pointer-chasing traversal. record
		// is this step's, built in the array of the step before last, and
		// lists maps each cell walked this step to its stretch of record.
		var record, prevRecord []int
		lists := make(map[int][]int)
		for step := 0; step < p.steps; step++ {
			// Rebuild cell lists: reset owned heads, then zero owned forces
			// and the processor's accumulator.
			for c := clo; c < chi; c++ {
				e.WriteI64(head.at(c), -1)
			}
			w.zero(e, mlo, mhi)
			e.Barrier(bar)
			bar++

			// Insert owned molecules under per-cell-group locks.
			for i := mlo; i < mhi; i++ {
				c := cellOf(w.readPos(e, i), nc)
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
					e.Prefetch(w.pos.at(molStride * i))
				}
			}

			// Traversal pass: record the order of every list this thread
			// walks (own cells + their half shells).
			record = record[:0]
			clear(lists)
			cellList := func(c int) []int {
				l, ok := lists[c]
				if !ok {
					record, l = listOf(e, c, record)
					lists[c] = l
				}
				return l
			}
			acc := w.procAcc[e.ProcID()]
			for c := clo; c < chi; c++ {
				waterSpPairs(c, nc, cellList, func(i, j int) {
					f, in := waterSpPairForce(w.readPos(e, i), w.readPos(e, j), cut2)
					e.Compute(costPairForce)
					if in {
						addForce(acc, i, j, f)
					}
				})
			}
			record, prevRecord = prevRecord, record

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
				if !w.pending(acc, blk) {
					continue
				}
				if e.Prefetching() {
					nf := ((mstart + t + tpp) % nBlocks) * waterNsqBlk
					if molStride*(nf+waterNsqBlk) <= molStride*n {
						e.PrefetchRange(w.force.at(molStride*nf), 8*molStride*waterNsqBlk)
					}
				}
				w.merge(e, acc, blk)
			}
			e.Barrier(bar)
			bar++

			// Integrate owned molecules.
			for i := mlo; i < mhi; i++ {
				w.integrate(e, i)
			}
			e.Barrier(bar)
			bar++
		}

		if e.ThreadID() == 0 {
			e.EndMeasurement()
			if opt.Verify {
				// The sequential replay: the pair set is defined by cell
				// membership (identical), and quantized contributions make
				// the sum order-independent.
				box.set(w.verify(e, "WATER-SP", init, p.steps, func(ps [][3]float64, acc []int64) {
					cells := make([][]int, ncells)
					for i, pos := range ps {
						c := cellOf(pos, nc)
						cells[c] = append(cells[c], i)
					}
					for c := range cells {
						waterSpPairs(c, nc, func(c int) []int { return cells[c] }, func(i, j int) {
							if f, in := waterSpPairForce(ps[i], ps[j], cut2); in {
								addForce(acc, i, j, f)
							}
						})
					}
				}))
			}
		}
		e.Barrier(bar)
	}

	return &Instance{Name: "WATER-SP", Run: run, Err: box.get}
}

// waterInitPosSorted returns the deterministic initial positions sorted by
// cell index, so that index-chunked molecule ownership is spatially
// coherent — as in SPLASH-2, where each processor's molecules occupy its
// region of the cell grid and list insertion is mostly processor-local. A
// counting sort by cell keeps the molecules of one cell in their generated
// order.
func waterInitPosSorted(n, nc int) [][3]float64 {
	pos := waterInitPos(n)
	cell := make([]int, n)
	// next[c+1] counts cell c's molecules; after the prefix sum, next[c] is
	// the slot of cell c's next molecule.
	next := make([]int, nc*nc*nc+1)
	for i, p := range pos {
		cell[i] = cellOf(p, nc)
		next[cell[i]+1]++
	}
	for c := 1; c < len(next); c++ {
		next[c] += next[c-1]
	}
	sorted := make([][3]float64, n)
	for i, p := range pos {
		sorted[next[cell[i]]] = p
		next[cell[i]]++
	}
	return sorted
}
