package dsm_test

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"godsm/dsm"
)

// TestPublicAPISurface exercises the whole public API through the facade:
// allocation, typed accessors, locks, barriers, prefetch, compute,
// measurement, and the report accessors.
func TestPublicAPISurface(t *testing.T) {
	cfg := dsm.DefaultConfig()
	cfg.Procs = 4
	cfg.Prefetch = true
	sys := dsm.NewSystem(cfg)

	arr := sys.Alloc.Alloc(8*512, dsm.PageSize)
	sum := sys.Alloc.Alloc(8, 8)
	flag := sys.Alloc.Alloc(4, 4)

	rep := sys.Run(func(e *dsm.Env) {
		if e.ThreadID() == 0 {
			for i := 0; i < 512; i++ {
				e.WriteF64(arr+dsm.Addr(8*i), float64(i))
			}
			e.WriteU32(flag, 7)
			e.WriteI64(sum, 0)
		}
		e.Barrier(0)

		e.PrefetchRange(arr, 8*512)
		e.Compute(50 * dsm.Microsecond)

		var s float64
		for i := e.ThreadID(); i < 512; i += e.NumThreads() {
			s += e.ReadF64(arr + dsm.Addr(8*i))
		}
		e.Lock(3)
		e.WriteI64(sum, e.ReadI64(sum)+int64(s))
		e.Unlock(3)
		e.Barrier(1)

		if e.ThreadID() == 0 {
			e.EndMeasurement()
			if got := e.ReadI64(sum); got != 511*512/2 {
				panic(fmt.Sprintf("sum = %d", got))
			}
			if e.ReadU32(flag) != 7 {
				panic("flag lost")
			}
			// A hit in bulk: after one access through the accessors the
			// page's own words, then the charge for reading one of them.
			e.ReadF64(arr)
			v := e.View(arr, 512, false)
			if len(v) != 512 || v[511] != 511 {
				panic("no view of a page just read, or not the page's words")
			}
			if w := e.ViewI64(arr, 512, false); len(w) != 512 || w[511] != int64(math.Float64bits(511)) {
				panic("the int64 view is not the same words")
			}
			e.Accessed(2)
		}
		e.Barrier(2)
	})

	if rep.Procs != 4 || rep.Threads != 1 {
		t.Fatalf("report geometry %d/%d", rep.Procs, rep.Threads)
	}
	if rep.Elapsed <= 0 {
		t.Fatal("no elapsed time")
	}
	if rep.MsgsTotal == 0 || rep.BytesTotal == 0 {
		t.Fatal("no traffic recorded")
	}
	// Per-processor breakdowns partition time exactly; the averaged
	// breakdown may round down by up to one unit per category.
	for p, b := range rep.PerProc {
		if got := b.Total(); got != rep.Elapsed {
			t.Fatalf("proc %d breakdown sums to %d, elapsed %d", p, got, rep.Elapsed)
		}
	}
	if got := rep.Breakdown.Total(); got > rep.Elapsed || got < rep.Elapsed-dsm.Time(dsm.NumCategories) {
		t.Fatalf("average breakdown sums to %d, elapsed %d", got, rep.Elapsed)
	}
	if rep.Sum().PfCalls == 0 {
		t.Fatal("prefetch calls not recorded")
	}
	// The structured failures RunChecked returns are part of the surface.
	_ = []error{(*dsm.RaceError)(nil), (*dsm.AddrError)(nil), (*dsm.StallError)(nil), (*dsm.InvariantError)(nil)}
}

// TestConfigKnobs: every public knob must be accepted.
func TestConfigKnobs(t *testing.T) {
	cfg := dsm.DefaultConfig()
	cfg.Procs = 2
	cfg.ThreadsPerProc = 2
	cfg.SwitchOnMiss = true
	cfg.Prefetch = true
	cfg.ThrottlePf = 2
	cfg.GCThreshold = 1 << 20
	cfg.AccessNs = 25
	cfg.Net = dsm.DefaultNetConfig()
	cfg.Costs = dsm.DefaultCosts()
	sys := dsm.NewSystem(cfg)
	c := sys.Alloc.Alloc(8, 8)
	rep := sys.Run(func(e *dsm.Env) {
		e.Lock(0)
		e.WriteI64(c, e.ReadI64(c)+1)
		e.Unlock(0)
		e.Barrier(0)
	})
	if rep.Threads != 2 {
		t.Fatal("threads not applied")
	}
}

// ExampleNewSystem demonstrates the minimal godsm program.
func ExampleNewSystem() {
	cfg := dsm.DefaultConfig()
	cfg.Procs = 2
	sys := dsm.NewSystem(cfg)
	counter := sys.Alloc.Alloc(8, 8)
	var final int64
	sys.Run(func(e *dsm.Env) {
		e.Lock(0)
		e.WriteI64(counter, e.ReadI64(counter)+1)
		e.Unlock(0)
		e.Barrier(0)
		if e.ThreadID() == 0 {
			final = e.ReadI64(counter)
		}
	})
	fmt.Println(final)
	// Output: 2
}

// TestThreadRange checks the public work-splitting helper partitions
// exactly and balances processors.
func TestThreadRange(t *testing.T) {
	cfg := dsm.DefaultConfig()
	cfg.Procs = 4
	cfg.ThreadsPerProc = 2
	sys := dsm.NewSystem(cfg)
	covered := make([]bool, 130)
	sys.Run(func(e *dsm.Env) {
		lo, hi := e.ThreadRange(len(covered))
		for i := lo; i < hi; i++ {
			if covered[i] {
				panic("overlapping ranges")
			}
			covered[i] = true
		}
		e.Barrier(0)
	})
	for i, c := range covered {
		if !c {
			t.Fatalf("item %d uncovered", i)
		}
	}
}

// TestHLRCLastPartialPage exercises the home-based backend's page→home
// mapping on the shared heap's tail: a non-power-of-two cluster, an
// allocation that ends mid-page, and a second allocation that lands in the
// same final page (cross-allocation sharing of one partially used page).
func TestHLRCLastPartialPage(t *testing.T) {
	cfg := dsm.DefaultConfig()
	cfg.Procs = 3
	cfg.Protocol = "hlrc"
	sys := dsm.NewSystem(cfg)

	// 2 pages + one value: the array's last element is the only array byte
	// on its page, and the counter allocated right behind it shares it.
	const n = 2*dsm.PageSize/8 + 1
	arr := sys.Alloc.Alloc(8*n, dsm.PageSize)
	counter := sys.Alloc.Alloc(8, 8)

	rep := sys.Run(func(e *dsm.Env) {
		for i := e.ThreadID(); i < n; i += e.NumThreads() {
			e.WriteF64(arr+dsm.Addr(8*i), float64(i)+0.5)
		}
		e.Lock(0)
		e.WriteI64(counter, e.ReadI64(counter)+1)
		e.Unlock(0)
		e.Barrier(0)

		for i := 0; i < n; i++ {
			if got := e.ReadF64(arr + dsm.Addr(8*i)); got != float64(i)+0.5 {
				panic(fmt.Sprintf("thread %d: element %d = %v", e.ThreadID(), i, got))
			}
		}
		if got := e.ReadI64(counter); got != int64(e.NumThreads()) {
			panic(fmt.Sprintf("counter = %d, want %d", got, e.NumThreads()))
		}
		e.Barrier(1)
	})
	if rep.Sum().HomeFlushes == 0 {
		t.Fatal("no home flushes: the home-based backend did not run")
	}
}

// TestRunCheckedReturnsApplicationFaults: a stray address (like a race) is
// the application's bug and comes back from RunChecked as an error carrying
// the structured report, and so does a protocol invariant the engine catches
// itself breaking; any other panic still propagates.
func TestRunCheckedReturnsApplicationFaults(t *testing.T) {
	_, err := dsm.RunChecked(dsm.NewSystem(dsm.DefaultConfig()), func(e *dsm.Env) { e.ReadU64(0) })
	var ae *dsm.AddrError
	if !errors.As(err, &ae) || ae.Addr != 0 {
		t.Fatalf("want a *dsm.AddrError for address 0, got %T: %v", err, err)
	}
	sys := dsm.NewSystem(dsm.DefaultConfig())
	rep, err := dsm.RunChecked(sys, func(e *dsm.Env) { sys.Nodes[0].Fault(1, func() {}) })
	var ie *dsm.InvariantError
	if rep != nil || !errors.As(err, &ie) || ie.Node != 0 || ie.Page != 1 {
		t.Fatalf("want a *dsm.InvariantError for node 0, page 1 and no report, got %v and %T: %v", rep, err, err)
	}
	defer func() {
		if r := recover(); r != "not the application's fault" {
			t.Fatalf("RunChecked swallowed or changed a foreign panic: %v", r)
		}
	}()
	dsm.RunChecked(dsm.NewSystem(dsm.DefaultConfig()), func(e *dsm.Env) { panic("not the application's fault") })
}

// TestRunCheckedReturnsStallError: a run that ends with threads unfinished
// comes back as a *dsm.StallError saying whether the machine deadlocked or
// the limit cut it short and naming who waits for what — the same bytes
// every time, with every simulated thread's goroutine gone.
func TestRunCheckedReturnsStallError(t *testing.T) {
	deadlock := func(e *dsm.Env) {
		if e.ThreadID() != 0 {
			e.Barrier(0) // thread 0 never arrives
		}
	}
	slow := func(e *dsm.Env) {
		e.Compute(10 * dsm.Millisecond)
		e.Barrier(0)
	}
	for _, tc := range []struct {
		name    string
		limit   dsm.Time
		body    func(*dsm.Env)
		threads []int
		want    []string
	}{
		{"deadlock", 0, deadlock, []int{1, 2, 3},
			[]string{"deadlocked", "queue drained", "3 threads never finished",
				"thread 1 (p1.t0, proc 1): spinning, Synchronization Idle on barrier 0",
				"thread 2 (p2.t0, proc 2)", "thread 3 (p3.t0, proc 3)", "last "}},
		{"limit", dsm.Millisecond, slow, []int{0, 1, 2, 3},
			[]string{"time limit (1000000ns)", "events pending", "4 threads never finished",
				"thread 0 (p0.t0, proc 0): running"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			run := func() *dsm.StallError {
				cfg := dsm.DefaultConfig()
				cfg.Procs = 4
				cfg.Limit = tc.limit
				rep, err := dsm.RunChecked(dsm.NewSystem(cfg), tc.body)
				var se *dsm.StallError
				if rep != nil || !errors.As(err, &se) {
					t.Fatalf("want a *dsm.StallError and no report, got %v and %T: %v", rep, err, err)
				}
				return se
			}
			se, again := run(), run()
			if se.Error() != again.Error() {
				t.Errorf("two runs rendered differently:\n%s\n---\n%s", se, again)
			}
			if (se.Pending > 0) != (tc.limit > 0) {
				t.Errorf("Pending = %d with Limit %d", se.Pending, tc.limit)
			}
			var ids []int
			for _, th := range se.Threads {
				ids = append(ids, th.Thread)
			}
			if !slices.Equal(ids, tc.threads) {
				t.Errorf("unfinished threads %v, want %v", ids, tc.threads)
			}
			for _, want := range tc.want {
				if !strings.Contains(se.Error(), want) {
					t.Errorf("report is missing %q:\n%s", want, se)
				}
			}
			if n := runtime.NumGoroutine(); n > base {
				t.Errorf("%d goroutines after the runs, %d before", n, base)
			}
		})
	}
}
