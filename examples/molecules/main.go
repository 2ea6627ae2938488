// Molecules: a small molecular-dynamics step loop demonstrating user-level
// multithreading (Section 4 of the paper): threads switch on remote misses
// and synchronization stalls, overlapping communication with computation.
//
// The force merge is protected by per-block locks — exactly the
// multiple-producer pattern where multithreading hides lock-transfer
// latency. The program sweeps 1, 2 and 4 threads per processor.
//
// Run with: go run ./examples/molecules
package main

import (
	"fmt"

	"godsm/dsm"
)

const (
	nMol  = 128
	steps = 3
	blk   = 16
)

func run(threads int) *dsm.Report {
	cfg := dsm.DefaultConfig()
	cfg.Procs = 4
	cfg.ThreadsPerProc = threads
	cfg.SwitchOnMiss = threads > 1
	sys := dsm.NewSystem(cfg)

	pos := sys.Alloc.Alloc(8*3*nMol, dsm.PageSize)
	force := sys.Alloc.Alloc(8*3*nMol, dsm.PageSize)
	nBlocks := (nMol + blk - 1) / blk

	// Per-processor accumulator shared by the processor's threads — the
	// paper's "single shared copy per processor" optimization, which keeps
	// the lock-protected merge work constant as threads are added.
	procAcc := make([][]float64, cfg.Procs)

	return sys.Run(func(e *dsm.Env) {
		me := e.ThreadID()
		tpp := e.NumThreads() / e.NumProcs()
		per := nMol / e.NumThreads()
		lo := me * per
		hi := lo + per
		if e.LocalThread() == 0 {
			procAcc[e.ProcID()] = make([]float64, 3*nMol)
		}
		if me == 0 {
			for i := 0; i < 3*nMol; i++ {
				e.WriteF64(pos+dsm.Addr(8*i), float64(i%17))
			}
		}
		e.Barrier(0)

		bar := 1
		for s := 0; s < steps; s++ {
			// Zero own forces and (local thread 0) the shared accumulator.
			for i := 3 * lo; i < 3*hi; i++ {
				e.WriteF64(force+dsm.Addr(8*i), 0)
			}
			if e.LocalThread() == 0 {
				a := procAcc[e.ProcID()]
				for i := range a {
					a[i] = 0
				}
			}
			e.Barrier(bar)
			bar++

			// Pairwise interactions of owned molecules with the rest,
			// accumulated into the processor-local array.
			acc := procAcc[e.ProcID()]
			for i := lo; i < hi; i++ {
				xi := e.ReadF64(pos + dsm.Addr(8*3*i))
				for j := i + 1; j < nMol; j++ {
					xj := e.ReadF64(pos + dsm.Addr(8*3*j))
					f := 1 / (1 + (xi-xj)*(xi-xj))
					acc[3*i] += f
					acc[3*j] -= f
					e.Compute(800)
				}
			}

			// Siblings must finish their pairs before the merge.
			e.Barrier(bar)
			bar++

			// Merge under per-block locks; the processor's threads split
			// the blocks, so multithreading overlaps the lock-transfer
			// latency across blocks.
			for b := e.LocalThread(); b < nBlocks; b += tpp {
				blk := (b + e.ProcID()*nBlocks/e.NumProcs()) % nBlocks
				first, last := blk*16, min(nMol, (blk+1)*16)
				e.Lock(10 + blk)
				for i := 3 * first; i < 3*last; i++ {
					if acc[i] != 0 {
						a := force + dsm.Addr(8*i)
						e.WriteF64(a, e.ReadF64(a)+acc[i])
					}
				}
				e.Unlock(10 + blk)
			}
			e.Barrier(bar)
			bar++

			// Nudge positions from forces.
			for i := lo; i < hi; i++ {
				a := pos + dsm.Addr(8*3*i)
				e.WriteF64(a, e.ReadF64(a)+0.001*e.ReadF64(force+dsm.Addr(8*3*i)))
				e.Compute(500)
			}
			e.Barrier(bar)
			bar++
		}
		if me == 0 {
			e.EndMeasurement()
		}
		e.Barrier(bar)
	})
}

func main() {
	fmt.Println("threads/proc   elapsed     ctx-switches   avg stall")
	var base dsm.Time
	for _, t := range []int{1, 2, 4} {
		rep := run(t)
		if t == 1 {
			base = rep.Elapsed
		}
		n := rep.Sum()
		fmt.Printf("    %d        %7d µs   %6d         %5d µs   (%.2fx)\n",
			t, rep.Elapsed/dsm.Microsecond, n.CtxSwitches,
			rep.AvgStall()/dsm.Microsecond, float64(base)/float64(rep.Elapsed))
	}
}
