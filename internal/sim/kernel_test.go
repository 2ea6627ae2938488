package sim

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"unsafe"

	"godsm/internal/event"
)

// TestEventHeapAgainstSortedReference feeds the hand-rolled heap a large
// random schedule (with many timestamp collisions) and checks that events
// pop in exactly (time, sequence) order.
func TestEventHeapAgainstSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var h eventHeap
	type key struct {
		at  Time
		seq uint64
	}
	var want []key
	for i := 0; i < 5000; i++ {
		e := schedEvent{at: Time(rng.Intn(64)), seq: uint64(i)}
		h.pushEvent(e)
		want = append(want, key{e.at, e.seq})
		// Interleave pops so the heap shrinks and regrows.
		if rng.Intn(4) == 0 && len(h) > 0 {
			h.popEvent()
		}
	}
	var got []key
	for len(h) > 0 {
		e := h.popEvent()
		got = append(got, key{e.at, e.seq})
	}
	// The reference order of whatever remains is the sorted suffix of the
	// schedule minus the interleaved pops; rebuild it by re-running the
	// same pop decisions against a sorted multiset.
	sort.Slice(want, func(i, j int) bool {
		if want[i].at != want[j].at {
			return want[i].at < want[j].at
		}
		return want[i].seq < want[j].seq
	})
	// got must be a sorted subsequence of want and itself sorted.
	for i := 1; i < len(got); i++ {
		a, b := got[i-1], got[i]
		if a.at > b.at || (a.at == b.at && a.seq > b.seq) {
			t.Fatalf("pop order violated at %d: %v before %v", i, a, b)
		}
	}
}

// TestEventSchedulingAllocs: pushing and popping events must not allocate
// once the heap's backing slice has grown (no interface boxing), whether an
// event is a plain func (At) or a bound call with a pointer argument
// (AtArg), and an event must stay small enough to sift cheaply.
func TestEventSchedulingAllocs(t *testing.T) {
	if sz := unsafe.Sizeof(schedEvent{}); sz > 48 {
		t.Errorf("schedEvent is %d bytes, want at most 48", sz)
	}
	k := NewKernel()
	fn := func() {}
	var hits int
	call := func(a any) { *a.(*int)++ }
	// Grow the backing array first.
	for i := 0; i < 64; i++ {
		k.At(Time(i), fn)
	}
	for len(k.events) > 0 {
		k.events.popEvent()
	}
	for _, tc := range []struct {
		name string
		push func(at Time)
	}{
		{"At", func(at Time) { k.At(at, fn) }},
		{"AtArg", func(at Time) { k.AtArg(at, call, &hits) }},
	} {
		got := testing.AllocsPerRun(100, func() {
			for i := 0; i < 32; i++ {
				tc.push(Time(i))
			}
			for len(k.events) > 0 {
				k.events.popEvent()
			}
		})
		if got != 0 {
			t.Errorf("%s: event push/pop allocates %.1f times per run, want 0", tc.name, got)
		}
	}
}

// TestAtArgRunsInSequenceWithAt: AtArg events take their sequence number
// from the same counter as At, so same-time events of both kinds run in
// scheduling order, and each call gets its own argument.
func TestAtArgRunsInSequenceWithAt(t *testing.T) {
	k := NewKernel()
	var got []int
	call := func(a any) { got = append(got, *a.(*int)) }
	one, three := 1, 3
	k.At(5, func() { got = append(got, 0) })
	k.AtArg(5, call, &one)
	k.At(5, func() { got = append(got, 2) })
	k.AtArg(5, call, &three)
	k.AtArg(1, call, &three)
	k.Run()
	if want := []int{3, 0, 1, 2, 3}; !slices.Equal(got, want) {
		t.Fatalf("order %v, want %v", got, want)
	}
}

// TestTimerArmAllocs: once warm, arming, stopping, re-arming and firing a
// timer allocates nothing — a firing is the timer itself as an event
// argument, not a closure and a cancellation flag.
func TestTimerArmAllocs(t *testing.T) {
	k := NewKernel()
	fired := 0
	tm := k.NewTimer(func() { fired++ })
	round := func() {
		tm.Arm(10)
		tm.Stop()
		tm.Arm(20)
		tm.Arm(30)
		k.Run()
	}
	round() // grow the event heap
	if got := testing.AllocsPerRun(100, round); got != 0 {
		t.Errorf("timer arm/stop/re-arm/fire allocates %.1f times per round, want 0", got)
	}
	if fired != 102 {
		t.Errorf("timer fired %d times over 102 rounds, want once a round", fired)
	}
}

// TestTimerSkipsStaleFirings: only the firing whose sequence number is the
// timer's pending one runs. A stopped or re-armed timer's earlier firings
// are dropped without a Dispatch and without moving the clock, and a
// callback may re-arm its own timer.
func TestTimerSkipsStaleFirings(t *testing.T) {
	k := NewKernel()
	var dispatched []uint64
	k.Bus().Subscribe(sinkFunc(func(e event.Event) {
		if e.Kind == event.KindDispatch {
			dispatched = append(dispatched, e.Seq)
		}
	}))
	var fires []Time
	var tm *Timer
	tm = k.NewTimer(func() {
		fires = append(fires, k.Now())
		if len(fires) == 1 {
			tm.Arm(5) // re-armed from its own callback
		}
	})
	stopped := k.NewTimer(func() { t.Error("a stopped timer fired") })
	k.At(0, func() {
		tm.Arm(100)
		tm.Arm(40) // replaces the firing at 100
		stopped.Arm(200)
		stopped.Stop()
		if !tm.Active() || stopped.Active() {
			t.Error("Active disagrees with Arm/Stop")
		}
	})
	if end := k.Run(); end != 45 {
		t.Errorf("run ended at %d, want 45: a stale firing moved the clock", end)
	}
	if !slices.Equal(fires, []Time{40, 45}) {
		t.Errorf("fired at %v, want [40 45]", fires)
	}
	if tm.Active() {
		t.Error("a fired timer is still active")
	}
	// The At at 0, the live firing at 40 and the re-armed one at 45.
	if len(dispatched) != 3 {
		t.Errorf("%d dispatches %v, want 3: stale firings must not dispatch", len(dispatched), dispatched)
	}
}

type sinkFunc func(event.Event)

func (f sinkFunc) Event(e event.Event) { f(e) }

func TestEventOrdering(t *testing.T) {
	k := NewKernel()
	var got []int
	k.At(30, func() { got = append(got, 3) })
	k.At(10, func() { got = append(got, 1) })
	k.At(20, func() { got = append(got, 2) })
	end := k.Run()
	if end != 30 {
		t.Fatalf("end time = %d, want 30", end)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestSameTimeFIFO(t *testing.T) {
	k := NewKernel()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		k.At(5, func() { got = append(got, i) })
	}
	k.Run()
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-time events not FIFO: %v", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	k := NewKernel()
	var fired []Time
	k.At(10, func() {
		fired = append(fired, k.Now())
		k.After(5, func() { fired = append(fired, k.Now()) })
		k.At(k.Now(), func() { fired = append(fired, k.Now()) })
	})
	k.Run()
	if len(fired) != 3 || fired[0] != 10 || fired[1] != 10 || fired[2] != 15 {
		t.Fatalf("fired = %v, want [10 10 15]", fired)
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	k := NewKernel()
	k.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		k.At(5, func() {})
	})
	k.Run()
}

func TestLimitStopsRun(t *testing.T) {
	k := NewKernel()
	ran := 0
	k.At(10, func() { ran++ })
	k.At(100, func() { ran++ })
	k.SetLimit(50)
	end := k.Run()
	if ran != 1 {
		t.Fatalf("ran %d events, want 1", ran)
	}
	if end != 10 {
		t.Fatalf("end = %d, want 10", end)
	}
}

func TestProcSleep(t *testing.T) {
	k := NewKernel()
	var trace []Time
	k.Spawn("a", func(p *Proc) {
		trace = append(trace, k.Now())
		p.Sleep(100)
		trace = append(trace, k.Now())
		p.Sleep(50)
		trace = append(trace, k.Now())
	})
	k.Run()
	want := []Time{0, 100, 150}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
}

func TestProcParkWake(t *testing.T) {
	k := NewKernel()
	var woke Time = -1
	var p *Proc
	p = k.Spawn("sleeper", func(p *Proc) {
		p.Park()
		woke = k.Now()
	})
	k.At(77, func() { p.Wake() })
	k.Run()
	if woke != 77 {
		t.Fatalf("woke at %d, want 77", woke)
	}
}

func TestProcInterleaving(t *testing.T) {
	k := NewKernel()
	var order []string
	k.Spawn("a", func(p *Proc) {
		order = append(order, "a0")
		p.Sleep(10)
		order = append(order, "a10")
		p.Sleep(20)
		order = append(order, "a30")
	})
	k.Spawn("b", func(p *Proc) {
		order = append(order, "b0")
		p.Sleep(15)
		order = append(order, "b15")
	})
	k.Run()
	want := []string{"a0", "b0", "a10", "b15", "a30"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestShutdownUnwindsParkedProcs(t *testing.T) {
	k := NewKernel()
	cleaned := false
	k.Spawn("stuck", func(p *Proc) {
		defer func() {
			// The shutdown panic must pass through so the kernel can
			// reclaim the goroutine; it is recovered inside the kernel.
			cleaned = true
			if r := recover(); r != nil {
				panic(r)
			}
		}()
		p.Park() // never woken
	})
	k.Run()
	if !cleaned {
		t.Fatal("parked process was not unwound at shutdown")
	}
}

func TestProcPanicPropagatesToRunCaller(t *testing.T) {
	k := NewKernel()
	k.Spawn("bystander", func(p *Proc) {
		p.Park() // never woken; must be unwound despite the crash below
	})
	k.Spawn("crasher", func(p *Proc) {
		p.Sleep(10)
		panic("boom")
	})
	var got any
	func() {
		defer func() { got = recover() }()
		k.Run()
	}()
	if got != "boom" {
		t.Fatalf("recover() = %v, want %q", got, "boom")
	}
	if len(k.procs) != 0 {
		t.Fatalf("%d procs still registered after panic unwound Run", len(k.procs))
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		k := NewKernel()
		var trace []Time
		for i := 0; i < 5; i++ {
			d := Time(10 * (i + 1))
			k.Spawn("p", func(p *Proc) {
				for j := 0; j < 3; j++ {
					p.Sleep(d)
					trace = append(trace, k.Now())
				}
			})
		}
		k.Run()
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("nondeterministic lengths: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic trace at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestCPUServiceQueuing(t *testing.T) {
	k := NewKernel()
	c := NewCPU(k)
	var done1, done2 Time
	k.At(100, func() {
		done1 = c.Service(50, CatDSM)
		done2 = c.Service(30, CatDSM)
	})
	k.Run()
	if done1 != 150 {
		t.Errorf("done1 = %d, want 150", done1)
	}
	if done2 != 180 {
		t.Errorf("done2 = %d, want 180 (queued behind first)", done2)
	}
	if c.Account(CatDSM) != 80 {
		t.Errorf("DSM account = %d, want 80", c.Account(CatDSM))
	}
}

func TestCPUComputeWithInterrupt(t *testing.T) {
	k := NewKernel()
	c := NewCPU(k)
	var finished Time
	k.Spawn("worker", func(p *Proc) {
		c.ThreadCompute(p, 1000, CatBusy)
		finished = k.Now()
	})
	// Interrupt arrives mid-compute and steals 200 ns.
	k.At(400, func() { c.Service(200, CatDSM) })
	k.Run()
	if finished != 1200 {
		t.Errorf("compute finished at %d, want 1200 (1000 + 200 debt)", finished)
	}
	if c.Account(CatBusy) != 1000 || c.Account(CatDSM) != 200 {
		t.Errorf("accounts busy=%d dsm=%d, want 1000/200",
			c.Account(CatBusy), c.Account(CatDSM))
	}
}

func TestCPUComputeWaitsForService(t *testing.T) {
	k := NewKernel()
	c := NewCPU(k)
	var finished Time
	k.At(0, func() { c.Service(300, CatDSM) })
	k.Spawn("worker", func(p *Proc) {
		p.Sleep(100) // arrive while service is still running
		c.ThreadCompute(p, 100, CatBusy)
		finished = k.Now()
	})
	k.Run()
	if finished != 400 {
		t.Errorf("compute finished at %d, want 400 (waits for service until 300)", finished)
	}
}

func TestCPUMultipleInterrupts(t *testing.T) {
	k := NewKernel()
	c := NewCPU(k)
	var finished Time
	k.Spawn("worker", func(p *Proc) {
		c.ThreadCompute(p, 1000, CatBusy)
		finished = k.Now()
	})
	k.At(100, func() { c.Service(50, CatDSM) })
	k.At(200, func() { c.Service(70, CatDSM) })
	k.At(1100, func() { c.Service(30, CatDSM) }) // lands inside the debt extension
	k.Run()
	if finished != 1150 {
		t.Errorf("finished at %d, want 1150", finished)
	}
}

func TestCategoryString(t *testing.T) {
	names := map[Category]string{
		CatBusy:       "Busy",
		CatDSM:        "DSM Overhead",
		CatMemIdle:    "Memory Miss Idle",
		CatSyncIdle:   "Synchronization Idle",
		CatPrefetchOv: "Prefetch Overhead",
		CatMTOv:       "Multithreading Overhead",
	}
	for c, want := range names {
		if c.String() != want {
			t.Errorf("Category(%d).String() = %q, want %q", c, c.String(), want)
		}
	}
}

// BenchmarkEvents is the bench's sim.event_ns rig: 64 self-rescheduling
// chains keep the heap at a realistic depth, as plain At events and as
// AtArg calls.
func BenchmarkEvents(b *testing.B) {
	const chains = 64
	b.Run("At", func(b *testing.B) {
		k := NewKernel()
		left := b.N
		for c := 0; c < chains; c++ {
			var fn func()
			fn = func() {
				if left--; left > 0 {
					k.After(Time(1+c), fn)
				}
			}
			k.After(Time(c), fn)
		}
		b.ReportAllocs()
		b.ResetTimer()
		k.Run()
	})
	b.Run("AtArg", func(b *testing.B) {
		k := NewKernel()
		left := b.N
		var call func(any)
		call = func(a any) {
			if left--; left > 0 {
				k.AtArg(k.now+*a.(*Time), call, a)
			}
		}
		for c := 0; c < chains; c++ {
			gap := Time(1 + c)
			k.AtArg(Time(c), call, &gap)
		}
		b.ReportAllocs()
		b.ResetTimer()
		k.Run()
	})
}
