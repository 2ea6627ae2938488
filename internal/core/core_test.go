package core

import (
	"testing"

	"godsm/internal/pagemem"
	"godsm/internal/sim"
)

func smallConfig(procs, threads int) Config {
	cfg := DefaultConfig()
	cfg.Procs = procs
	cfg.ThreadsPerProc = threads
	if threads > 1 {
		cfg.SwitchOnMiss = true
	}
	cfg.Limit = 1000 * sim.Second
	return cfg
}

// TestSharedCounterWithLock runs the canonical mutual-exclusion check: all
// threads increment one shared counter under a lock; the final value must
// equal the number of increments.
func TestSharedCounterWithLock(t *testing.T) {
	for _, tc := range []struct{ procs, threads, iters int }{
		{1, 1, 10},
		{2, 1, 10},
		{4, 1, 25},
		{4, 2, 10},
		{2, 4, 20},
	} {
		cfg := smallConfig(tc.procs, tc.threads)
		sys := NewSystem(cfg)
		ctr := sys.Alloc.Alloc(8, 8)
		var final int64 = -1
		sys.Run(func(e *Env) {
			for i := 0; i < tc.iters; i++ {
				e.Lock(1)
				e.WriteI64(ctr, e.ReadI64(ctr)+1)
				e.Unlock(1)
			}
			e.Barrier(0)
			if e.ThreadID() == 0 {
				e.EndMeasurement()
				final = e.ReadI64(ctr)
			}
		})
		want := int64(tc.procs * tc.threads * tc.iters)
		if final != want {
			t.Errorf("procs=%d threads=%d: counter = %d, want %d",
				tc.procs, tc.threads, final, want)
		}
	}
}

// TestProducerConsumerVisibility: proc 0 writes a vector, everyone reads it
// after a barrier and sums it. Checks write-notice propagation, faulting,
// and diff application across the whole stack.
func TestProducerConsumerVisibility(t *testing.T) {
	const n = 4096 // 4 pages of float64
	cfg := smallConfig(4, 1)
	sys := NewSystem(cfg)
	arr := sys.Alloc.Alloc(n*8, pagemem.PageSize)
	sums := make([]float64, 4)
	sys.Run(func(e *Env) {
		if e.ThreadID() == 0 {
			for i := 0; i < n; i++ {
				e.WriteF64(arr+Addr(i*8), float64(i))
			}
		}
		e.Barrier(0)
		var s float64
		for i := 0; i < n; i++ {
			s += e.ReadF64(arr + Addr(i*8))
		}
		sums[e.ProcID()] = s
		e.Barrier(1)
	})
	want := float64(n) * float64(n-1) / 2
	for p, s := range sums {
		if s != want {
			t.Errorf("proc %d sum = %v, want %v", p, s, want)
		}
	}
}

// TestMultipleWriterFalseSharing: two procs write disjoint halves of the
// same page between barriers; both halves must survive the merge.
func TestMultipleWriterFalseSharing(t *testing.T) {
	cfg := smallConfig(2, 1)
	sys := NewSystem(cfg)
	page := sys.Alloc.Alloc(pagemem.PageSize, pagemem.PageSize)
	var got [512]float64
	sys.Run(func(e *Env) {
		half := 256
		base := e.ProcID() * half
		for i := 0; i < half; i++ {
			e.WriteF64(page+Addr((base+i)*8), float64(100*e.ProcID()+i))
		}
		e.Barrier(0)
		if e.ThreadID() == 0 {
			e.EndMeasurement()
			for i := 0; i < 512; i++ {
				got[i] = e.ReadF64(page + Addr(i*8))
			}
		}
		e.Barrier(1)
	})
	for i := 0; i < 256; i++ {
		if got[i] != float64(i) {
			t.Fatalf("proc0 half at %d = %v, want %v", i, got[i], float64(i))
		}
		if got[256+i] != float64(100+i) {
			t.Fatalf("proc1 half at %d = %v, want %v", 256+i, got[256+i], float64(100+i))
		}
	}
}

// TestLockProtectedChain passes updates through a lock in a ring so each
// acquire must observe the previous holder's writes (LRC correctness).
func TestLockProtectedChain(t *testing.T) {
	cfg := smallConfig(4, 1)
	sys := NewSystem(cfg)
	cell := sys.Alloc.Alloc(8, 8)
	const rounds = 20
	var final int64
	sys.Run(func(e *Env) {
		for r := 0; r < rounds; r++ {
			e.Lock(3)
			v := e.ReadI64(cell)
			e.Compute(1 * sim.Microsecond)
			e.WriteI64(cell, v+1)
			e.Unlock(3)
		}
		e.Barrier(0)
		if e.ThreadID() == 0 {
			final = e.ReadI64(cell)
		}
	})
	if want := int64(4 * rounds); final != want {
		t.Fatalf("chain counter = %d, want %d", final, want)
	}
}

// TestDeterminism: identical configurations must produce identical elapsed
// times, breakdowns, and traffic.
func TestDeterminism(t *testing.T) {
	run := func() (sim.Time, int64, int64) {
		cfg := smallConfig(4, 2)
		sys := NewSystem(cfg)
		arr := sys.Alloc.Alloc(8*1024, pagemem.PageSize)
		rep := sys.Run(func(e *Env) {
			if e.ThreadID() == 0 {
				for i := 0; i < 1024; i++ {
					e.WriteF64(arr+Addr(i*8), float64(i))
				}
			}
			e.Barrier(0)
			var s float64
			for i := e.ThreadID(); i < 1024; i += e.NumThreads() {
				s += e.ReadF64(arr + Addr(i*8))
			}
			e.Compute(sim.Time(s/1e6) + 10*sim.Microsecond)
			e.Lock(0)
			e.WriteF64(arr, e.ReadF64(arr)+s)
			e.Unlock(0)
			e.Barrier(1)
		})
		return rep.Elapsed, rep.MsgsTotal, rep.BytesTotal
	}
	e1, m1, b1 := run()
	e2, m2, b2 := run()
	if e1 != e2 || m1 != m2 || b1 != b2 {
		t.Fatalf("nondeterministic: (%d,%d,%d) vs (%d,%d,%d)", e1, m1, b1, e2, m2, b2)
	}
}

// TestBreakdownConservation: per-processor category times must sum to the
// elapsed time.
func TestBreakdownConservation(t *testing.T) {
	cfg := smallConfig(4, 1)
	sys := NewSystem(cfg)
	arr := sys.Alloc.Alloc(8*2048, pagemem.PageSize)
	rep := sys.Run(func(e *Env) {
		if e.ThreadID() == 0 {
			for i := 0; i < 2048; i++ {
				e.WriteF64(arr+Addr(i*8), 1)
			}
		}
		e.Barrier(0)
		var s float64
		for i := 0; i < 2048; i++ {
			s += e.ReadF64(arr + Addr(i*8))
		}
		e.Compute(100 * sim.Microsecond)
		e.Barrier(1)
	})
	for p, b := range rep.PerProc {
		if got := b.Total(); got != rep.Elapsed {
			t.Errorf("proc %d: breakdown sums to %d, elapsed %d", p, got, rep.Elapsed)
		}
	}
	if rep.Elapsed <= 0 {
		t.Fatal("zero elapsed time")
	}
}

// TestPrefetchHidesLatency: with prefetches issued well before the access,
// the faults should hit the prefetch cache and miss stall should drop.
func TestPrefetchHidesLatency(t *testing.T) {
	const pages = 16
	build := func(prefetch bool) (*System, Addr) {
		cfg := smallConfig(2, 1)
		cfg.Prefetch = prefetch
		sys := NewSystem(cfg)
		arr := sys.Alloc.AllocPages(pages)
		return sys, arr
	}
	run := func(prefetch bool) (elapsed sim.Time, hits, misses int64) {
		sys, arr := build(prefetch)
		rep := sys.Run(func(e *Env) {
			if e.ThreadID() == 0 {
				for p := 0; p < pages; p++ {
					for o := 0; o < pagemem.PageSize; o += 8 {
						e.WriteF64(arr+Addr(p*pagemem.PageSize+o), 1)
					}
				}
			}
			e.Barrier(0)
			if e.ProcID() == 1 {
				// Prefetch everything, then compute long enough for all
				// replies to arrive, then read.
				for p := 0; p < pages; p++ {
					e.Prefetch(arr + Addr(p*pagemem.PageSize))
				}
				e.Compute(50 * sim.Millisecond)
				var s float64
				for p := 0; p < pages; p++ {
					for o := 0; o < pagemem.PageSize; o += 8 {
						s += e.ReadF64(arr + Addr(p*pagemem.PageSize+o))
					}
				}
				if s != float64(pages*pagemem.PageSize/8) {
					panic("wrong data through prefetch path")
				}
			} else {
				e.Compute(50 * sim.Millisecond)
			}
			e.Barrier(1)
		})
		n := rep.Sum()
		return rep.Elapsed, n.FaultPfHit, n.Misses
	}
	_, hits0, misses0 := run(false)
	_, hits1, misses1 := run(true)
	if hits0 != 0 {
		t.Fatalf("baseline run recorded %d pf hits", hits0)
	}
	if misses0 != pages {
		t.Fatalf("baseline misses = %d, want %d", misses0, pages)
	}
	if hits1 != pages {
		t.Fatalf("prefetch run pf hits = %d, want %d (misses %d)", hits1, pages, misses1)
	}
	if misses1 != 0 {
		t.Fatalf("prefetch run still had %d remote misses", misses1)
	}
}

// TestMultithreadingOverlapsLatency: with 4 threads and switch-on-miss,
// misses on different pages overlap, so elapsed time should be much lower
// than single-threaded.
func TestMultithreadingOverlapsLatency(t *testing.T) {
	const pages = 32
	run := func(threads int) sim.Time {
		cfg := smallConfig(2, threads)
		cfg.SwitchOnMiss = true
		sys := NewSystem(cfg)
		arr := sys.Alloc.AllocPages(pages)
		rep := sys.Run(func(e *Env) {
			if e.ThreadID() == 0 {
				for p := 0; p < pages; p++ {
					e.WriteF64(arr+Addr(p*pagemem.PageSize), float64(p))
				}
			}
			e.Barrier(0)
			if e.ProcID() == 1 {
				tpp := e.NumThreads() / e.NumProcs()
				for p := e.LocalThread(); p < pages; p += tpp {
					v := e.ReadF64(arr + Addr(p*pagemem.PageSize))
					if v != float64(p) {
						panic("bad value")
					}
					e.Compute(10 * sim.Microsecond)
				}
			}
			e.Barrier(1)
		})
		return rep.Elapsed
	}
	st := run(1)
	mt := run(4)
	if mt >= st {
		t.Fatalf("multithreading did not help: 1T=%dµs 4T=%dµs",
			st/sim.Microsecond, mt/sim.Microsecond)
	}
	if float64(mt) > 0.6*float64(st) {
		t.Errorf("expected substantial overlap: 1T=%dµs 4T=%dµs",
			st/sim.Microsecond, mt/sim.Microsecond)
	}
}
