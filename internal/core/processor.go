package core

import (
	"fmt"

	"godsm/internal/event"
	"godsm/internal/pagemem"
	"godsm/internal/proto"
	"godsm/internal/race"
	"godsm/internal/sim"
)

type threadState uint8

const (
	tRunning threadState = iota
	tReady
	tBlocked
	tSpinning // blocked but keeping the CPU (no thread switch for this stall)
	tDone
	tWoken // running, and the wait it is about to park on has completed
)

func (s threadState) String() string {
	return [...]string{"running", "ready", "blocked", "spinning", "done", "woken"}[s]
}

// Thread is one simulated user-level thread.
type Thread struct {
	proc  *Processor
	p     *sim.Proc
	local int // index within the processor
	id    int // global thread id
	state threadState
	cause sim.Category // what a blocked thread's wait is charged to
	wait  waitFor      // the page, lock or barrier it blocked on
	env   *Env

	// wake is t.resume, bound once: the completion callback of whatever the
	// thread parks on next, so handing it out allocates nothing.
	wake func()
}

// Processor schedules the user-level threads of one simulated processor and
// performs the thread-level request combining of Section 4.1: joining
// in-flight page fetches, local lock hand-off, and local barrier gathering.
type Processor struct {
	sys  *System
	id   int
	node *proto.Node
	cpu  *sim.CPU
	bus  *event.Bus

	threads []*Thread
	current *Thread
	ready   []*Thread
	live    int

	// Idle accounting.
	idle      bool
	idleStart sim.Time
	idleSvc   sim.Time // cpu.ServiceTotal() at idle entry
	everRan   bool     // first dispatch charges no context switch

	// Local lock queues: lock id -> state.
	llocks map[int]*localLock

	// Local barrier gathering: the locally arrived threads, in arrival
	// order; the pr.live-th arrival triggers the global arrival, whose
	// release is barRelease (pr.releaseBarrier, bound once).
	barQueue   []*Thread
	barRelease func()

	// Redundant-prefetch suppression flags (Section 5.1): pages already
	// touched/prefetched by some local thread this phase.
	pfFlags map[uint64]bool

	// race is the machine-wide happens-before detector, shared by every
	// processor; nil unless Config.RaceCheck is set — the nil check at
	// each hook is the feature's entire cost on the default path.
	race *race.Detector
}

type localLock struct {
	holder *Thread
	queue  []*Thread
}

// llock returns the local hand-off state for lock id.
func (pr *Processor) llock(id int) *localLock {
	ll, ok := pr.llocks[id]
	if !ok {
		ll = &localLock{}
		pr.llocks[id] = ll
	}
	return ll
}

// touch marks a page as fetched (or being fetched) by some local thread so
// sibling threads suppress redundant prefetches of it.
func (pr *Processor) touch(p pagemem.PageID) {
	if pr.sys.Cfg.ThreadsPerProc > 1 {
		pr.pfFlags[uint64(p)] = true
	}
}

func newProcessor(s *System, id int, node *proto.Node, cpu *sim.CPU) *Processor {
	pr := &Processor{
		sys:     s,
		id:      id,
		node:    node,
		cpu:     cpu,
		bus:     s.K.Bus(),
		llocks:  make(map[int]*localLock),
		pfFlags: make(map[uint64]bool),
	}
	pr.barRelease = pr.releaseBarrier
	return pr
}

func (pr *Processor) spawnThreads(app func(*Env)) {
	tpp := pr.sys.Cfg.ThreadsPerProc
	for i := 0; i < tpp; i++ {
		t := &Thread{
			proc:  pr,
			local: i,
			id:    pr.id*tpp + i,
			state: tReady,
		}
		t.env = newEnv(t)
		t.wake = t.resume
		pr.threads = append(pr.threads, t)
		pr.live++
		t.p = pr.sys.K.Spawn(fmt.Sprintf("p%d.t%d", pr.id, i), func(p *sim.Proc) {
			// Park until dispatched; only one thread runs per processor.
			p.Park()
			app(t.env)
			t.env.flushBusy()
			if d := pr.race; d != nil {
				d.ThreadExit(t.id)
			}
			t.state = tDone
			pr.live--
			pr.current = nil
			pr.dispatchNext()
		})
		pr.ready = append(pr.ready, t)
	}
	// All spawn-start events run first (each thread parks immediately);
	// then this event dispatches the first thread.
	pr.sys.K.At(pr.sys.K.Now(), pr.dispatchNext)
}

// shouldSwitch decides whether a stall of the given cause yields the CPU.
func (pr *Processor) shouldSwitch(cause sim.Category) bool {
	if pr.sys.Cfg.ThreadsPerProc == 1 {
		return false
	}
	return cause != sim.CatMemIdle || pr.sys.Cfg.SwitchOnMiss
}

// park suspends the current thread, waiting on w, until t.wake runs: the
// caller has just handed t.wake to the asynchronous operation it waits for.
// If the operation completed synchronously (t.wake ran before park), park
// returns without yielding. Must be called from the thread's own goroutine
// with busy time flushed.
func (t *Thread) park(cause sim.Category, w waitFor) {
	pr := t.proc
	if pr.current != t {
		panic("core: park by a non-current thread")
	}
	if t.state == tWoken {
		t.state = tRunning
		return
	}
	t.env.noteBlock()
	t.cause, t.wait = cause, w
	if pr.shouldSwitch(cause) {
		t.state = tBlocked
		pr.current = nil
		pr.dispatchNext()
	} else {
		// Keep the CPU: the processor spins until this stall resolves.
		t.state = tSpinning
		pr.enterIdle()
	}
	t.p.Park()
}

// resume is t.wake: called (in kernel context, or by the thread itself
// before it parks) when the wait of a thread completes. A thread that waits
// for nothing — ready, done, or woken already — cannot be woken.
func (t *Thread) resume() {
	pr := t.proc
	switch t.state {
	case tRunning:
		t.state = tWoken // completed before parking: park will not yield
	case tSpinning:
		// The spinning thread resumes immediately; the wait was idle time.
		pr.exitIdle(t.cause)
		t.state = tRunning
		t.p.Wake()
	case tBlocked:
		pr.bus.Emit(event.ThreadResume(pr.id, t.id))
		t.state = tReady
		pr.ready = append(pr.ready, t)
		if pr.current == nil {
			pr.exitIdle(t.cause)
			pr.dispatchNext()
		}
	default:
		panic(fmt.Sprintf("core: wake of thread %d, which is %v and waits for nothing", t.id, t.state))
	}
}

// releaseBarrier is the global barrier's release: every local thread has
// arrived and resumes, in arrival order.
func (pr *Processor) releaseBarrier() {
	// A new phase begins: reset the redundant-prefetch flags.
	clear(pr.pfFlags)
	for _, t := range pr.barQueue {
		t.resume()
	}
	pr.barQueue = pr.barQueue[:0]
}

// dispatchNext runs the next ready thread, charging the context-switch cost
// in multithreaded configurations. Called in kernel context when the CPU
// has no current thread (or the current thread just exited).
func (pr *Processor) dispatchNext() {
	if pr.current != nil && pr.current.state != tDone {
		panic("core: dispatch while a thread is current")
	}
	pr.current = nil
	if len(pr.ready) == 0 {
		if pr.live > 0 && !pr.idle {
			pr.enterIdle()
		}
		return
	}
	t := pr.ready[0]
	pr.ready = append(pr.ready[:0], pr.ready[1:]...) // shift down: the queue keeps its array
	t.state = tRunning
	pr.current = t
	if pr.sys.Cfg.ThreadsPerProc > 1 && pr.everRan {
		pr.bus.Emit(event.ThreadSwitch(pr.id, t.id))
		done := pr.cpu.Service(pr.sys.Cfg.Costs.CtxSwitch, sim.CatMTOv)
		t.p.WakeAt(done)
	} else {
		t.p.Wake()
	}
	pr.everRan = true
}

// enterIdle marks the CPU idle (all threads blocked).
func (pr *Processor) enterIdle() {
	if pr.idle {
		return
	}
	pr.idle = true
	pr.idleStart = pr.sys.K.Now()
	pr.idleSvc = pr.cpu.ServiceTotal()
}

// exitIdle charges the elapsed idle time (minus protocol service that ran
// meanwhile) to the category of the event that ended it.
func (pr *Processor) exitIdle(cause sim.Category) {
	if !pr.idle {
		return
	}
	pr.idle = false
	d := pr.sys.K.Now() - pr.idleStart
	d -= pr.cpu.ServiceTotal() - pr.idleSvc
	if d > 0 {
		pr.cpu.Charge(cause, d)
	}
}
