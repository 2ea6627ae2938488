package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// runRecovered runs k and returns the panic value Run raised, if any.
func runRecovered(k *Kernel) (r any) {
	defer func() { r = recover() }()
	k.Run()
	return nil
}

// TestNoGoroutineOutlivesRun: a process is a coroutine of the event loop,
// and every way a run can end — drained, cut by the limit, or panicking
// with processes parked — takes all of them down before Run returns.
func TestNoGoroutineOutlivesRun(t *testing.T) {
	sleeper := func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(100)
		}
	}
	stuck := func(p *Proc) { p.Park() }
	for _, tc := range []struct {
		name  string
		limit Time
		procs []func(*Proc)
		want  any // panic value out of Run
	}{
		{"drained", 0, []func(*Proc){sleeper, sleeper, stuck}, nil},
		{"limit", 150, []func(*Proc){sleeper, sleeper, stuck}, nil},
		{"panic", 0, []func(*Proc){stuck, sleeper, func(p *Proc) { p.Sleep(50); panic("boom") }}, "boom"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			k := NewKernel()
			k.SetLimit(tc.limit)
			for _, fn := range tc.procs {
				k.Spawn("p", fn)
			}
			if got := runRecovered(k); got != tc.want {
				t.Fatalf("Run panicked with %v, want %v", got, tc.want)
			}
			if n := runtime.NumGoroutine(); n > base {
				t.Errorf("%d goroutines after Run, %d before", n, base)
			}
			if len(k.procs) != 0 {
				t.Errorf("%d procs still registered after Run", len(k.procs))
			}
		})
	}
}

// TestUnstartedProcNeverRuns: when an earlier event panics, a process whose
// start event is still queued is dropped without its body ever running.
func TestUnstartedProcNeverRuns(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	k.At(0, func() { panic("early") })
	ran := false
	p := k.Spawn("late", func(*Proc) { ran = true })
	if got := runRecovered(k); got != "early" {
		t.Fatalf("Run panicked with %v, want %q", got, "early")
	}
	if ran {
		t.Error("the body of a never-started process ran during shutdown")
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines after Run, %d before", n, base)
	}
	p.transfer() // a wake that arrives after the unwinding is a no-op
	if ran {
		t.Error("waking an unwound process ran its body")
	}
}

// TestFinishedProcReleasesBody: whatever the body's closure captured (an
// application's input matrix, say) is collectable as soon as the body
// returns, not when the Kernel and its Procs go away.
func TestFinishedProcReleasesBody(t *testing.T) {
	k := NewKernel()
	var freed atomic.Bool
	var p *Proc
	func() {
		captured := new([1 << 16]byte)
		runtime.SetFinalizer(captured, func(*[1 << 16]byte) { freed.Store(true) })
		p = k.Spawn("p", func(p *Proc) {
			p.Sleep(10)
			captured[0]++
		})
	}()
	k.Run()
	for i := 0; i < 100 && !freed.Load(); i++ {
		runtime.GC() // the finalizer runs on its own goroutine after a cycle
		runtime.Gosched()
	}
	if !freed.Load() {
		t.Error("a finished process keeps its body's closure reachable")
	}
	p.Wake() // waking a finished process stays a no-op
	k.Run()
	runtime.KeepAlive(k)
}

// TestSleepDoesNotAllocate: a steady-state Sleep — schedule the resume,
// switch to the kernel, dispatch, switch back — allocates nothing beyond
// the heap push TestEventSchedulingAllocs covers.
func TestSleepDoesNotAllocate(t *testing.T) {
	k := NewKernel()
	got := -1.0
	k.Spawn("p", func(p *Proc) {
		p.Sleep(1)
		got = testing.AllocsPerRun(1000, func() { p.Sleep(1) })
	})
	k.Run()
	if got != 0 {
		t.Errorf("Sleep round trip allocates %.1f times, want 0", got)
	}
}

// TestGoexitInBodyUnwindsTheRest: runtime.Goexit in a body (a test's
// t.Fatal) ends the goroutine that called Run, and on the way out Run still
// unwinds every other process.
func TestGoexitInBodyUnwindsTheRest(t *testing.T) {
	base := runtime.NumGoroutine()
	k := NewKernel()
	unwound := false
	k.Spawn("bystander", func(p *Proc) {
		defer func() { unwound = true }()
		p.Park()
	})
	k.Spawn("quitter", func(p *Proc) {
		p.Sleep(10)
		runtime.Goexit()
	})
	returned := false
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		k.Run()
		returned = true
	}()
	wg.Wait()
	if returned {
		t.Error("Run returned normally although a body called Goexit")
	}
	if !unwound {
		t.Error("the parked bystander was not unwound")
	}
	n := runtime.NumGoroutine()
	for i := 0; i < 1000 && n > base; i++ {
		runtime.Gosched() // the Run goroutine is past wg.Done but may not be gone yet
		n = runtime.NumGoroutine()
	}
	if n > base {
		t.Errorf("%d goroutines after Run, %d before", n, base)
	}
}

// BenchmarkProcSwitch is one Sleep: kernel→process→kernel, the rig behind
// bench's sim.proc_switch_ns.
func BenchmarkProcSwitch(b *testing.B) {
	k := NewKernel()
	k.Spawn("p", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Sleep(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	k.Run()
}

// BenchmarkSpawn is a machine's worth of threads created, started, parked
// and unwound at shutdown.
func BenchmarkSpawn(b *testing.B) {
	b.ReportAllocs()
	for b.Loop() {
		k := NewKernel()
		for i := 0; i < 32; i++ {
			k.Spawn("p", func(p *Proc) { p.Park() })
		}
		k.Run()
	}
}
