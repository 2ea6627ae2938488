package sim

import "iter"

// Proc is a coroutine process: a body whose execution is interleaved with
// the event loop such that exactly one of (kernel, some process) runs at
// any moment. Simulated application threads are built on Proc.
//
// The coroutine is the runtime's own (iter.Pull): resuming a process and
// parking it are direct goroutine-to-goroutine switches that never enter
// the Go scheduler. Three of its contracts are relied on here: a panic (or
// runtime.Goexit) in the body surfaces at the resume, in kernel context;
// stop unwinds a parked body and never runs an unstarted one; and a
// finished process holds no reference to its body.
type Proc struct {
	k      *Kernel
	name   string
	resume func() // p.transfer, bound once: scheduling a switch allocates nothing

	// The coroutine's handles; all nil once the body has returned or been
	// unwound, which releases the body's closure.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// procShutdown is the panic value used to unwind a parked process when the
// kernel shuts down.
type procShutdown struct{}

// Spawn creates a process and schedules it to start running at the current
// virtual time. fn runs as a coroutine of the event loop, only while the
// kernel is switched to it; fn must interact with the simulation only
// through p (Sleep/Park) and through kernel callbacks.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name}
	p.resume = p.transfer
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		defer func() {
			if r := recover(); r != nil && r != (procShutdown{}) {
				panic(r) // a real failure: iter.Pull re-raises it at the resume
			}
		}()
		p.yield = yield
		fn(p)
	})
	k.procs = append(k.procs, p)
	k.At(k.now, p.resume)
	return p
}

// Name returns the process's diagnostic name.
func (p *Proc) Name() string { return p.name }

// transfer switches to the process and returns when it parks or finishes.
// It must be called from kernel context, i.e. from inside an event
// callback. A panic in the body propagates out of here, unwrapped, through
// Kernel.Run (which attaches the event trace and unwinds the remaining
// processes) to the simulation's caller.
func (p *Proc) transfer() {
	if p.next == nil {
		return // finished: a late wake is a no-op
	}
	if _, alive := p.next(); !alive {
		p.release()
	}
}

// release drops the coroutine, and with it the body's closure and whatever
// the application captured in it.
func (p *Proc) release() { p.next, p.stop, p.yield = nil, nil, nil }

// park suspends the process until something calls transfer again.
func (p *Proc) park() {
	if !p.yield(struct{}{}) {
		panic(procShutdown{}) // the kernel is shutting down: unwind the body
	}
}

// Sleep suspends the process for d nanoseconds of virtual time.
func (p *Proc) Sleep(d Time) {
	p.k.At(p.k.now+d, p.resume)
	p.park()
}

// Park suspends the process indefinitely; some event must later call Wake.
func (p *Proc) Park() { p.park() }

// Wake schedules the process to resume at the current virtual time. It must
// be called from kernel context while the process is parked via Park.
func (p *Proc) Wake() { p.k.At(p.k.now, p.resume) }

// WakeAt schedules the process to resume at absolute time t.
func (p *Proc) WakeAt(t Time) { p.k.At(t, p.resume) }
