// Package sim provides the deterministic discrete-event simulation kernel
// that the DSM model runs on: a virtual clock, an event queue, coroutine
// processes (used for simulated application threads), and a simulated CPU
// with category-based time accounting.
//
// The kernel is strictly single-threaded from the simulation's point of
// view: events execute one at a time in (time, sequence) order, and a
// process runs only while the kernel has switched to it and until it parks.
// Given identical inputs, a simulation therefore always produces identical
// results.
package sim

import (
	"fmt"

	"godsm/internal/event"
)

// Time is virtual time in nanoseconds since the start of the simulation.
type Time = int64

// Common virtual-time units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * 1000
	Second      Time = 1000 * 1000 * 1000
)

type schedEvent struct {
	at  Time
	seq uint64
	fn  func()
	// dead, when non-nil and set, marks a cancelled event: the run loop
	// skips it without executing fn or advancing the clock. Only Timer
	// uses this; plain At events leave it nil.
	dead *bool
}

// eventHeap is a hand-rolled binary min-heap ordered by (at, seq). It
// deliberately does not implement container/heap: every Push/Pop through
// that interface boxes the event into an interface value, which allocates
// on the simulator's hottest path (one push and one pop per event). Events
// also stay in a reusable flat slice whose capacity persists across pops.
type eventHeap []schedEvent

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h eventHeap) peek() schedEvent { return h[0] }

func (h *eventHeap) pushEvent(e schedEvent) {
	hs := append(*h, e)
	// Sift up.
	for i := len(hs) - 1; i > 0; {
		parent := (i - 1) / 2
		if !hs.less(i, parent) {
			break
		}
		hs[i], hs[parent] = hs[parent], hs[i]
		i = parent
	}
	*h = hs
}

func (h *eventHeap) popEvent() schedEvent {
	hs := *h
	top := hs[0]
	n := len(hs) - 1
	hs[0] = hs[n]
	hs[n] = schedEvent{} // release the closure so finished events can be GC'd
	hs = hs[:n]
	// Sift down.
	for i := 0; ; {
		kid := 2*i + 1
		if kid >= n {
			break
		}
		if r := kid + 1; r < n && hs.less(r, kid) {
			kid = r
		}
		if !hs.less(kid, i) {
			break
		}
		hs[i], hs[kid] = hs[kid], hs[i]
		i = kid
	}
	*h = hs
	return top
}

// EventTraceAttacher is implemented by panic values (such as the protocol
// layer's invariant errors) that want the bus's recent event history
// attached when they unwind through the run loop.
type EventTraceAttacher interface {
	AttachEventTrace([]event.Event)
}

// Kernel is a discrete-event simulation engine. The zero value is not
// usable; construct with NewKernel.
type Kernel struct {
	now     Time
	events  eventHeap
	seq     uint64
	procs   []*Proc // every process spawned since the last shutdown, in spawn order
	running bool
	limit   Time // if > 0, Run stops once the clock would pass this

	bus *event.Bus // per-kernel event bus; every layer emits through it
}

// NewKernel returns an empty kernel at time zero.
func NewKernel() *Kernel {
	k := &Kernel{}
	k.bus = event.NewBus(func() int64 { return k.now })
	return k
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Bus returns the kernel's event bus. All layers of a simulation share it:
// they emit at the point an occurrence happens, and sinks (stats
// collectors, trace writers) derive everything else from the emissions.
func (k *Kernel) Bus() *event.Bus { return k.bus }

// Pending reports the number of scheduled events.
func (k *Kernel) Pending() int { return len(k.events) }

// At schedules fn to run at absolute virtual time t. Events scheduled for
// the same time run in scheduling order. Scheduling in the past panics:
// it always indicates a model bug.
func (k *Kernel) At(t Time, fn func()) {
	if t < k.now {
		panic(fmt.Sprintf("sim: event scheduled at %d ns, before now (%d ns)", t, k.now))
	}
	k.seq++
	k.events.pushEvent(schedEvent{at: t, seq: k.seq, fn: fn})
}

// After schedules fn to run d nanoseconds from now.
func (k *Kernel) After(d Time, fn func()) { k.At(k.now+d, fn) }

// atCancelable schedules fn with a cancellation flag: if *dead is true when
// the event reaches the head of the queue, the run loop discards it without
// executing fn or advancing the clock.
func (k *Kernel) atCancelable(t Time, fn func(), dead *bool) {
	if t < k.now {
		panic(fmt.Sprintf("sim: event scheduled at %d ns, before now (%d ns)", t, k.now))
	}
	k.seq++
	k.events.pushEvent(schedEvent{at: t, seq: k.seq, fn: fn, dead: dead})
}

// Timer is a cancelable, reschedulable one-shot virtual-time timer, used by
// protocol machinery that needs to take back a scheduled action (retransmit
// timeouts, delayed acks). Arm schedules the callback; re-arming or stopping
// cancels any pending firing. Cancelled firings are skipped by the run loop
// without advancing the virtual clock, so stale timers never stretch a
// simulation. A Timer is owned by its kernel's event loop and must only be
// manipulated from kernel context.
type Timer struct {
	k    *Kernel
	fn   func()
	dead *bool // cancellation flag of the pending firing; nil when idle
}

// NewTimer creates an idle timer that runs fn when it fires.
func (k *Kernel) NewTimer(fn func()) *Timer { return &Timer{k: k, fn: fn} }

// Arm schedules the timer to fire d nanoseconds from now, replacing any
// pending firing.
func (t *Timer) Arm(d Time) {
	t.Stop()
	dead := new(bool)
	t.dead = dead
	at := t.k.now + d
	t.k.bus.Emit(event.TimerArm(at, t.fn))
	t.k.atCancelable(at, func() {
		t.dead = nil
		t.fn()
	}, dead)
}

// Stop cancels the pending firing, if any.
func (t *Timer) Stop() {
	if t.dead != nil {
		*t.dead = true
		t.dead = nil
		t.k.bus.Emit(event.TimerStop(t.fn))
	}
}

// Active reports whether a firing is pending.
func (t *Timer) Active() bool { return t.dead != nil }

// SetLimit makes Run stop (without error) before executing any event whose
// time exceeds t. Zero means no limit.
func (k *Kernel) SetLimit(t Time) { k.limit = t }

// Run executes events until the queue is empty (or the limit is reached),
// then unwinds any process that has not finished. It returns the final
// virtual time.
//
// If an event panics with a value implementing EventTraceAttacher, Run
// attaches the last few dispatched events to it before re-raising, turning
// protocol invariant failures into actionable dumps.
func (k *Kernel) Run() Time {
	if k.running {
		panic("sim: Kernel.Run called reentrantly")
	}
	k.running = true
	// Deferred, so that processes are unwound however the loop ends: queue
	// drained, limit reached, a panic out of an event or a process body
	// (callers that recover it — race fixtures, chaos tests — must not be
	// left a parked coroutine per simulated thread), or a runtime.Goexit
	// passing through from a body (a test's t.Fatal).
	defer func() {
		r := recover()
		if a, ok := r.(EventTraceAttacher); ok {
			a.AttachEventTrace(k.bus.Recent())
		}
		k.running = false
		k.shutdown()
		if r != nil {
			panic(r)
		}
	}()
	for len(k.events) > 0 {
		if k.limit > 0 && k.events.peek().at > k.limit {
			break
		}
		e := k.events.popEvent()
		if e.dead != nil && *e.dead {
			continue // cancelled timer firing: no clock advance
		}
		k.now = e.at
		k.bus.Emit(event.Dispatch(e.seq, e.fn))
		e.fn()
	}
	return k.now
}

// shutdown unwinds every unfinished process, in spawn order: a parked body
// panics out of its park, and one whose start event never ran is dropped
// without running.
func (k *Kernel) shutdown() {
	for _, p := range k.procs {
		if p.stop != nil {
			p.stop()
			p.release()
		}
	}
	k.procs = nil
}
