package core

import (
	"fmt"

	"godsm/internal/event"
	"godsm/internal/pagemem"
	"godsm/internal/sim"
)

// Addr is re-exported for application code.
type Addr = pagemem.Addr

// Env is a thread's handle on the shared-memory system: typed accessors
// over the shared address space, synchronization, prefetch, and explicit
// computation charging. It corresponds to the programming interface the
// paper's applications use (TreadMarks API plus prefetch calls).
//
// Busy time accumulates lazily and is flushed to the simulated CPU at every
// protocol interaction, so the virtual-time order of computation and
// communication is preserved without a kernel round-trip per access.
//
// Besides the typed accessors there is a bulk form of a hit: View hands out
// a page's own words when every access to them would hit, and Accessed
// charges the accesses made through them. The kernel is single-threaded, so
// a page can only be taken from a thread that yields: a view is dead at the
// thread's next yield — any Read*/Write* that misses, Lock, Unlock, Barrier,
// Prefetch*, EndMeasurement — and must be re-taken after any of those calls.
type Env struct {
	t    *Thread
	busy sim.Time // accumulated unflushed busy time

	runSince sim.Time // busy accumulated since the last stall (run length)
}

func newEnv(t *Thread) *Env { return &Env{t: t} }

// ProcID returns the processor this thread runs on.
func (e *Env) ProcID() int { return e.t.proc.id }

// ThreadID returns the globally unique thread id (0..TotalThreads-1); the
// applications decompose their work by thread id, SPLASH-2 style.
func (e *Env) ThreadID() int { return e.t.id }

// LocalThread returns the thread's index within its processor.
func (e *Env) LocalThread() int { return e.t.local }

// NumProcs returns the number of processors.
func (e *Env) NumProcs() int { return e.t.proc.sys.Cfg.Procs }

// NumThreads returns the total number of worker threads.
func (e *Env) NumThreads() int { return e.t.proc.sys.TotalThreads() }

// Prefetching reports whether this run executes inserted prefetches; the
// applications guard their prefetch code with it.
func (e *Env) Prefetching() bool { return e.t.proc.sys.Cfg.Prefetch }

// Now returns the current virtual time (diagnostics).
func (e *Env) Now() sim.Time { return e.t.proc.sys.K.Now() }

// EndMeasurement freezes the run's reported metrics at the current virtual
// time. Applications call it once (any thread, conventionally thread 0)
// right after their final barrier, so verification reads that follow do
// not pollute the measurements. Idempotent.
func (e *Env) EndMeasurement() {
	e.flushBusy()
	e.t.proc.sys.snapshot()
}

// Compute charges d nanoseconds of useful computation.
func (e *Env) Compute(d sim.Time) {
	e.busy += d
	e.runSince += d
}

// flushBusy converts accumulated busy time into simulated CPU occupancy.
// Must be called from the thread's goroutine while it is current.
func (e *Env) flushBusy() {
	if e.busy <= 0 {
		return
	}
	d := e.busy
	e.busy = 0
	e.t.proc.cpu.ThreadCompute(e.t.p, d, sim.CatBusy)
}

// noteBlock records run-length statistics at a stall.
func (e *Env) noteBlock() {
	e.t.proc.bus.Emit(event.ThreadBlock(e.t.proc.id, e.t.id, e.runSince))
	e.runSince = 0
}

// access returns the local frame of the page holding a, ready for the read
// or write. The per-access busy cost accumulates; a hit — the page is
// valid (and twinned, for writes) — is one page-table lookup, as free of
// protocol work as the MMU check it stands in for.
func (e *Env) access(a Addr, write bool) []byte {
	if d := e.t.proc.race; d != nil {
		// Synchronous happens-before check: charges no simulated time and
		// emits no events, so a clean checked run is byte-identical to an
		// unchecked one. The shadow memory is sized by the addresses it is
		// handed, so a stray one is rejected here, not at the miss.
		e.checkAddr(a, write)
		d.Access(e.t.id, uint64(a), write)
	}
	e.busy += e.t.proc.sys.Cfg.AccessNs
	e.runSince += e.t.proc.sys.Cfg.AccessNs
	p := pagemem.PageOf(a)
	if f := e.t.proc.node.Hit(p, write); f != nil {
		return f
	}
	return e.miss(a, p, write)
}

// View returns the n float64s of shared memory at a — the local frame
// itself, the words ReadF64 and WriteF64 would read and write — iff a is
// 8-aligned, [a, a+8n) lies in one page of the heap and, right now, every
// read (write, if write is set) of it would hit: the page is valid, and
// twinned for a write. Otherwise it returns nil and changes nothing; the
// caller makes its next access through Read*/Write*, which faults, twins and
// charges as always, and asks again. It is always nil when the race detector
// is on, so a checked run sees every access.
//
// A run of hits is atomic — nothing else runs until this thread yields —
// so reading and writing through the view and then charging the accesses
// with Accessed is indistinguishable from making them one by one.
func (e *Env) View(a Addr, n int, write bool) []float64 {
	if e.t.proc.race != nil {
		return nil
	}
	return pagemem.Words[float64](e.view(a, n, write))
}

// ViewI64 is View for int64s: the same words, as ReadI64 and WriteI64 see
// them.
func (e *Env) ViewI64(a Addr, n int, write bool) []int64 {
	if e.t.proc.race != nil {
		return nil
	}
	return pagemem.Words[int64](e.view(a, n, write))
}

// view returns the frame's bytes under the n words at a, or nil: View with
// the detector off, out of line so that View's own branch inlines into the
// application's loop.
func (e *Env) view(a Addr, n int, write bool) []byte {
	off, brk := pagemem.OffsetOf(a), e.t.proc.sys.Alloc.Brk()
	if n <= 0 || n > (pagemem.PageSize-off)/8 || a < pagemem.PageSize || a >= brk || Addr(8*n) > brk-a {
		return nil
	}
	f := e.t.proc.node.Hit(pagemem.PageOf(a), write)
	if f == nil {
		return nil
	}
	return f[off : off+8*n : off+8*n]
}

// Accessed charges n shared accesses made through views: what n hits
// through Read*/Write* would have accumulated.
func (e *Env) Accessed(n int) { e.Compute(sim.Time(n) * e.t.proc.sys.Cfg.AccessNs) }

// checkAddr panics with an *AddrError unless a is inside the shared heap.
func (e *Env) checkAddr(a Addr, write bool) {
	if brk := e.t.proc.sys.Alloc.Brk(); a < pagemem.PageSize || a >= brk {
		panic(&AddrError{Addr: a, Write: write, Thread: e.t.id, Proc: e.t.proc.id,
			At: e.Now(), HeapLo: pagemem.PageSize, HeapHi: brk})
	}
}

// miss is access's slow path, what a fault handler would do: reject an
// unmapped address, then fault until p is valid (and twinned, for writes).
// Faults flush busy time and block the thread.
func (e *Env) miss(a Addr, p pagemem.PageID, write bool) []byte {
	e.checkAddr(a, write)
	node := e.t.proc.node
	for {
		for !node.PageValid(p) {
			// flushBusy may yield the CPU; the page can become valid while
			// we sleep (a sibling thread's fetch completing), so re-check.
			e.flushBusy()
			if node.PageValid(p) {
				break
			}
			e.t.proc.touch(p)
			node.Fault(p, e.t.wake)
			e.t.park(sim.CatMemIdle, waitFor{"page", int(p)})
		}
		if !write || node.PageWritable(p) {
			break
		}
		e.flushBusy()
		if !node.PageValid(p) {
			continue // invalidated while flushing: fault again
		}
		node.EnsureWritable(p)
		e.t.proc.touch(p)
		break
	}
	return node.Frame(p)
}

// ReadF64 reads the float64 at address a.
func (e *Env) ReadF64(a Addr) float64 {
	return pagemem.GetF64(e.access(a, false), pagemem.OffsetOf(a))
}

// WriteF64 writes v to address a.
func (e *Env) WriteF64(a Addr, v float64) {
	pagemem.PutF64(e.access(a, true), pagemem.OffsetOf(a), v)
}

// ReadU64 reads the uint64 at address a.
func (e *Env) ReadU64(a Addr) uint64 {
	return pagemem.GetU64(e.access(a, false), pagemem.OffsetOf(a))
}

// WriteU64 writes v to address a.
func (e *Env) WriteU64(a Addr, v uint64) {
	pagemem.PutU64(e.access(a, true), pagemem.OffsetOf(a), v)
}

// ReadI64 reads the int64 at address a.
func (e *Env) ReadI64(a Addr) int64 { return int64(e.ReadU64(a)) }

// WriteI64 writes v to address a.
func (e *Env) WriteI64(a Addr, v int64) { e.WriteU64(a, uint64(v)) }

// ReadU32 reads the uint32 at address a.
func (e *Env) ReadU32(a Addr) uint32 {
	return pagemem.GetU32(e.access(a, false), pagemem.OffsetOf(a))
}

// WriteU32 writes v to address a.
func (e *Env) WriteU32(a Addr, v uint32) {
	pagemem.PutU32(e.access(a, true), pagemem.OffsetOf(a), v)
}

// Prefetch issues a non-binding prefetch for the page containing a, if this
// run prefetches. Guarded by the processor-local redundancy flags so that
// threads sharing a working set do not issue duplicate prefetches
// (Section 5.1).
func (e *Env) Prefetch(a Addr) {
	if !e.Prefetching() {
		return
	}
	p := pagemem.PageOf(a)
	pr := e.t.proc
	if pr.sys.Cfg.ThreadsPerProc > 1 && !pr.sys.Cfg.NoPfSuppress && pr.pfFlags[uint64(p)] {
		return // a sibling thread already fetched or prefetched this page
	}
	e.flushBusy()
	pr.node.Prefetch(p)
	if pr.sys.Cfg.ThreadsPerProc > 1 {
		pr.pfFlags[uint64(p)] = true
	}
}

// PrefetchRange prefetches every page overlapping [a, a+len).
func (e *Env) PrefetchRange(a Addr, length int) {
	if !e.Prefetching() || length <= 0 {
		return
	}
	first := pagemem.PageOf(a)
	last := pagemem.PageOf(a + Addr(length) - 1)
	for p := first; p <= last; p++ {
		e.Prefetch(p.Base())
	}
}

// Lock acquires global lock id, combining locally when another thread on
// this processor already holds or has requested it.
func (e *Env) Lock(id int) {
	e.lockAcquire(id)
	if d := e.t.proc.race; d != nil {
		// The acquire edge: join the previous releaser's clock. After
		// lockAcquire returns on every path (immediate grant, remote
		// grant, local hand-off), so the edge covers them all.
		d.Acquire(e.t.id, id)
	}
}

func (e *Env) lockAcquire(id int) {
	e.flushBusy()
	pr := e.t.proc
	ll := pr.llock(id)
	if ll.holder != nil {
		// Local hand-off queue (Section 4.1).
		ll.queue = append(ll.queue, e.t)
		e.t.park(sim.CatSyncIdle, waitFor{"lock", id})
		if ll.holder != e.t {
			panic("core: woken from lock queue without holding the lock")
		}
		return
	}
	ll.holder = e.t // reserve before any yield so siblings queue locally
	if !pr.node.AcquireLock(id, e.t.wake) {
		e.t.park(sim.CatSyncIdle, waitFor{"lock", id})
	}
}

// Unlock releases lock id, passing it to a locally queued thread first.
func (e *Env) Unlock(id int) {
	if d := e.t.proc.race; d != nil {
		// The release edge: publish this thread's clock to the lock before
		// any successor (local hand-off or remote grant) can acquire it.
		d.Release(e.t.id, id)
	}
	e.flushBusy()
	pr := e.t.proc
	ll := pr.llock(id)
	if ll.holder != e.t {
		panic(fmt.Sprintf("core: thread %d unlocking lock %d it does not hold", e.t.id, id))
	}
	if len(ll.queue) > 0 {
		next := ll.queue[0]
		ll.queue = ll.queue[1:]
		ll.holder = next
		pr.bus.Emit(event.LockLocal(pr.id, id))
		done := pr.cpu.Service(pr.sys.Cfg.LocalLockPass, sim.CatDSM)
		pr.sys.K.At(done, next.wake)
		return
	}
	ll.holder = nil
	pr.node.ReleaseLock(id)
}

// Barrier waits until every thread in the system reaches barrier id. Local
// threads gather first; only the last local arrival sends a message
// (Section 4.1).
func (e *Env) Barrier(id int) {
	if d := e.t.proc.race; d != nil {
		// The episode cut: arrivals join into the barrier clock, and the
		// last live arrival redistributes the join to every thread. The
		// hook runs strictly before the simulated barrier releases anyone,
		// so post-barrier accesses always see the cut.
		d.BarrierArrive(e.t.id)
	}
	e.flushBusy()
	pr := e.t.proc
	pr.barQueue = append(pr.barQueue, e.t)
	if len(pr.barQueue) == pr.live {
		// Last local arrival: perform the global barrier arrival.
		pr.node.Barrier(id, pr.barRelease)
	}
	e.t.park(sim.CatSyncIdle, waitFor{"barrier", id})
}

// RaceExempt runs body with race reporting suppressed for every granule
// body touches: the exemption sticks to the granule, so the un-annotated
// other side of an audited benign race stays quiet too. reason must be
// non-empty — it is the audit trail for why the race is benign (it is not
// recorded anywhere; it exists to force the call site to say). A plain
// body() call when race checking is off.
func (e *Env) RaceExempt(reason string, body func()) {
	d := e.t.proc.race
	if d == nil {
		body()
		return
	}
	if reason == "" {
		panic("core: RaceExempt requires a non-empty audit reason")
	}
	d.ExemptPush(e.t.id)
	defer d.ExemptPop(e.t.id)
	body()
}

// ThreadRange splits n work items over all threads and returns this
// thread's [lo, hi) range. Items are chunked over processors first, so
// processor loads stay balanced at any thread count, and a thread's range
// is contiguous with its siblings' (good locality under multithreading).
func (e *Env) ThreadRange(n int) (lo, hi int) {
	tpp := e.NumThreads() / e.NumProcs()
	pLo, pHi := splitRange(n, e.NumProcs(), e.ProcID())
	tLo, tHi := splitRange(pHi-pLo, tpp, e.LocalThread())
	return pLo + tLo, pLo + tHi
}

// splitRange gives worker id's share of n items split over parts workers.
func splitRange(n, parts, id int) (lo, hi int) {
	base := n / parts
	rem := n % parts
	lo = id*base + min(id, rem)
	hi = lo + base
	if id < rem {
		hi++
	}
	return lo, hi
}
