package core

import (
	"testing"

	"godsm/internal/pagemem"
	"godsm/internal/sim"
)

// Scheduler-level tests: switch-on-miss vs spin, run-length accounting,
// local lock hand-off, and measurement snapshotting.

// TestSpinVsSwitchOnMiss: in combined mode (switch on sync only), a miss
// must NOT yield the processor — sibling threads stay descheduled.
func TestSpinVsSwitchOnMiss(t *testing.T) {
	run := func(switchOnMiss bool) int64 {
		cfg := smallConfig(2, 2)
		cfg.SwitchOnMiss = switchOnMiss
		sys := NewSystem(cfg)
		arr := sys.Alloc.AllocPages(8)
		rep := sys.Run(func(e *Env) {
			if e.ThreadID() == 0 {
				for p := 0; p < 8; p++ {
					e.WriteF64(arr+Addr(p*pagemem.PageSize), 1)
				}
			}
			e.Barrier(0)
			if e.ProcID() == 1 {
				for p := e.LocalThread(); p < 8; p += 2 {
					_ = e.ReadF64(arr + Addr(p*pagemem.PageSize))
					e.Compute(20 * sim.Microsecond)
				}
			}
			e.Barrier(1)
		})
		return rep.Sum().CtxSwitches
	}
	spin := run(false)
	sw := run(true)
	if sw <= spin {
		t.Fatalf("switch-on-miss produced %d switches vs %d when spinning", sw, spin)
	}
}

// TestRunLengthAccounting: run lengths must reflect compute between stalls.
func TestRunLengthAccounting(t *testing.T) {
	cfg := smallConfig(2, 1)
	sys := NewSystem(cfg)
	arr := sys.Alloc.AllocPages(4)
	rep := sys.Run(func(e *Env) {
		if e.ThreadID() == 0 {
			for p := 0; p < 4; p++ {
				e.WriteF64(arr+Addr(p*pagemem.PageSize), 1)
			}
		}
		e.Barrier(0)
		if e.ProcID() == 1 {
			for p := 0; p < 4; p++ {
				e.Compute(500 * sim.Microsecond)
				_ = e.ReadF64(arr + Addr(p*pagemem.PageSize))
			}
		}
		e.Barrier(1)
	})
	if got := rep.AvgRunLength(); got < 100*sim.Microsecond {
		t.Fatalf("avg run length = %d µs, expected hundreds", got/sim.Microsecond)
	}
	if rep.Sum().Runs == 0 || rep.Sum().Blocks == 0 {
		t.Fatal("no run/block statistics recorded")
	}
}

// TestLocalLockHandOff: threads on one processor passing a lock must not
// generate remote acquires beyond the first.
func TestLocalLockHandOff(t *testing.T) {
	cfg := smallConfig(2, 4)
	sys := NewSystem(cfg)
	cell := sys.Alloc.Alloc(8, 8)
	rep := sys.Run(func(e *Env) {
		// Lock 1's manager is proc 1; all of proc 0's threads contend, so
		// after the first remote acquire the lock passes locally.
		if e.ProcID() == 0 {
			for i := 0; i < 3; i++ {
				e.Lock(1)
				e.WriteI64(cell, e.ReadI64(cell)+1)
				e.Compute(5 * sim.Microsecond)
				e.Unlock(1)
			}
		}
		e.Barrier(0)
	})
	n := rep.Sum()
	if n.LocalLockAcqs == 0 {
		t.Fatal("no local lock hand-offs recorded")
	}
	if n.RemoteLockAcqs > 2 {
		t.Fatalf("remote acquires = %d; local combining should cover most", n.RemoteLockAcqs)
	}
}

// TestEndMeasurementFreezesMetrics: traffic after EndMeasurement must not
// appear in the report.
func TestEndMeasurementFreezesMetrics(t *testing.T) {
	cfg := smallConfig(2, 1)
	sys := NewSystem(cfg)
	arr := sys.Alloc.AllocPages(4)
	rep := sys.Run(func(e *Env) {
		if e.ThreadID() == 0 {
			e.WriteF64(arr, 42)
		}
		e.Barrier(0)
		if e.ThreadID() == 0 {
			e.EndMeasurement()
			// Post-measurement verification traffic: proc 0 writes more
			// pages, proc 1 reads them after barrier 1.
			for p := 1; p < 4; p++ {
				e.WriteF64(arr+Addr(p*pagemem.PageSize), 1)
			}
		}
		e.Barrier(1)
		if e.ProcID() == 1 {
			for p := 1; p < 4; p++ {
				_ = e.ReadF64(arr + Addr(p*pagemem.PageSize))
			}
		}
		e.Barrier(2)
	})
	// Only the pre-measurement barrier traffic should be counted: no
	// page-diff requests had happened yet.
	if rep.TotalMisses() != 0 {
		t.Fatalf("post-measurement misses leaked into the report: %d", rep.TotalMisses())
	}
	end := sys.K.Now()
	if rep.Elapsed >= end {
		t.Fatalf("elapsed %d not frozen before simulation end %d", rep.Elapsed, end)
	}
}

// TestIdleAttributionCategories: a memory-bound phase must charge memory
// idle; a barrier-wait phase must charge sync idle.
func TestIdleAttributionCategories(t *testing.T) {
	cfg := smallConfig(2, 1)
	sys := NewSystem(cfg)
	arr := sys.Alloc.AllocPages(16)
	rep := sys.Run(func(e *Env) {
		if e.ThreadID() == 0 {
			for p := 0; p < 16; p++ {
				e.WriteF64(arr+Addr(p*pagemem.PageSize), 1)
			}
		}
		e.Barrier(0)
		if e.ProcID() == 1 {
			for p := 0; p < 16; p++ {
				_ = e.ReadF64(arr + Addr(p*pagemem.PageSize))
			}
		} else {
			e.Compute(1 * sim.Millisecond)
		}
		e.Barrier(1)
	})
	b1 := rep.PerProc[1]
	if b1.Cat[sim.CatMemIdle] == 0 {
		t.Fatal("proc 1 recorded no memory idle despite 16 misses")
	}
	b0 := rep.PerProc[0]
	if b0.Cat[sim.CatSyncIdle] == 0 {
		t.Fatal("proc 0 recorded no sync idle despite waiting at the barrier")
	}
}

// TestPrefetchLoop: the software-pipelined loop must visit every iteration
// in order and, when prefetching, hide most of the miss latency of a
// strided remote scan.
func TestPrefetchLoop(t *testing.T) {
	const pages = 12
	exec := func(prefetch bool) ([]int, int64, int64) {
		cfg := smallConfig(2, 1)
		cfg.Prefetch = prefetch
		sys := NewSystem(cfg)
		arr := sys.Alloc.AllocPages(pages)
		var order []int
		rep := sys.Run(func(e *Env) {
			if e.ThreadID() == 0 {
				for p := 0; p < pages; p++ {
					e.WriteF64(arr+Addr(p*pagemem.PageSize), float64(p))
				}
			}
			e.Barrier(0)
			if e.ProcID() == 1 {
				e.PrefetchLoop(pages, 3,
					func(i int) (Addr, int) { return arr + Addr(i*pagemem.PageSize), 8 },
					func(i int) {
						order = append(order, i)
						if got := e.ReadF64(arr + Addr(i*pagemem.PageSize)); got != float64(i) {
							panic("wrong data in PrefetchLoop")
						}
						e.Compute(800 * sim.Microsecond)
					})
			}
			e.Barrier(1)
		})
		n := rep.Sum()
		return order, n.FaultPfHit, n.Misses
	}
	orderO, hitsO, _ := exec(false)
	orderP, hitsP, missesP := exec(true)
	for i := 0; i < pages; i++ {
		if orderO[i] != i || orderP[i] != i {
			t.Fatalf("iteration order broken: %v / %v", orderO, orderP)
		}
	}
	if hitsO != 0 {
		t.Fatalf("baseline had %d pf hits", hitsO)
	}
	if hitsP < pages/2 {
		t.Fatalf("pipelined prefetch hit only %d of %d pages (misses %d)",
			hitsP, pages, missesP)
	}
}

// park and wake: a wait that completes before the thread parks costs no
// yield (its sibling would run, and the clock move), no block and no
// simulated time, and a thread can be woken once.
func TestWakeBeforeParkDoesNotYield(t *testing.T) {
	sys := NewSystem(smallConfig(1, 2))
	var doubleWake any
	rep := sys.Run(func(e *Env) {
		if e.LocalThread() != 0 {
			return
		}
		e.Compute(sim.Microsecond)
		e.flushBusy()
		at := e.Now()
		e.t.wake() // the operation completed synchronously
		e.t.park(sim.CatSyncIdle, waitFor{"lock", 7})
		if e.t.state != tRunning || e.Now() != at {
			t.Errorf("after a wake before the park: state %v at %d ns, want running at %d", e.t.state, e.Now(), at)
		}
		defer func() { doubleWake = recover() }()
		e.t.wake()
		e.t.wake()
	})
	if n := rep.Sum(); n.Blocks != 0 {
		t.Errorf("a wait completed before the park was counted as %d blocks, want none", n.Blocks)
	}
	if doubleWake == nil {
		t.Error("waking a thread twice for one wait did not panic")
	}
}

// The three ways a thread stalls allocate nothing in this package, whether
// the stalled thread spins (one thread a processor) or yields (two). The
// node's side of each stall is a kernel timer, so what is counted is core's:
// park, resume, the ready queue and dispatch, the barrier's local gathering
// and its release.
func TestStallsAllocateNothingInCore(t *testing.T) {
	const runs = 50
	for _, threads := range []int{1, 2} {
		var miss, lock, barrier float64
		NewSystem(smallConfig(1, threads)).Run(func(e *Env) {
			th, pr, k := e.t, e.t.proc, e.t.proc.sys.K
			stall := func(cause sim.Category) { // node.Fault(p, th.wake), node.AcquireLock(id, th.wake)
				k.At(k.Now()+10*sim.Microsecond, th.wake)
				th.park(cause, waitFor{"page", 1})
			}
			gather := func() { // Env.Barrier, with pr.node.Barrier(id, pr.barRelease) as a timer
				pr.barQueue = append(pr.barQueue, th)
				if len(pr.barQueue) == pr.live {
					k.At(k.Now()+10*sim.Microsecond, pr.barRelease)
				}
				th.park(sim.CatSyncIdle, waitFor{"barrier", 0})
			}
			if th.local != 0 {
				for i := 0; i < runs+1; i++ { // AllocsPerRun's warm-up call and its runs
					gather()
				}
				return
			}
			miss = testing.AllocsPerRun(runs, func() { stall(sim.CatMemIdle) })
			lock = testing.AllocsPerRun(runs, func() { stall(sim.CatSyncIdle) })
			barrier = testing.AllocsPerRun(runs, gather)
		})
		if miss != 0 || lock != 0 || barrier != 0 {
			t.Errorf("%d thread(s) a processor: %v allocations a miss, %v a remote lock, %v a barrier; want 0",
				threads, miss, lock, barrier)
		}
	}
}
