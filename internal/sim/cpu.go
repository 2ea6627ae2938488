package sim

import "fmt"

// Category classifies where a processor's time goes. The categories mirror
// the execution-time breakdowns in the paper's figures (Busy, DSM overhead,
// memory-miss idle, synchronization idle, prefetch overhead, multithreading
// overhead).
type Category uint8

// Processor time categories.
const (
	CatBusy       Category = iota // useful application computation
	CatDSM                        // DSM system software (protocol, diffs, messages)
	CatMemIdle                    // stalled waiting on a remote memory miss
	CatSyncIdle                   // stalled waiting on synchronization
	CatPrefetchOv                 // overhead of issuing prefetches
	CatMTOv                       // thread context-switch overhead
	NumCategories
)

// String returns the paper's label for the category.
func (c Category) String() string {
	switch c {
	case CatBusy:
		return "Busy"
	case CatDSM:
		return "DSM Overhead"
	case CatMemIdle:
		return "Memory Miss Idle"
	case CatSyncIdle:
		return "Synchronization Idle"
	case CatPrefetchOv:
		return "Prefetch Overhead"
	case CatMTOv:
		return "Multithreading Overhead"
	default:
		return fmt.Sprintf("Category(%d)", uint8(c))
	}
}

// CPU models one processor's single CPU. Application thread computation and
// protocol message service share it under an interrupt model: service work
// preempts a computing thread and pushes the thread's completion time back
// (the "interrupt debt"), matching the paper's observation that message
// handling appears as DSM overhead stealing time from the application.
type CPU struct {
	k *Kernel

	svcUntil Time // completion time of the last queued service work
	svcTotal Time // cumulative service time ever charged

	inCompute bool // an application thread is mid-computation
	debt      Time // service time accumulated during the current computation

	acct [NumCategories]Time
}

// NewCPU returns a CPU bound to kernel k.
func NewCPU(k *Kernel) *CPU { return &CPU{k: k} }

// Account returns the accumulated time in category c.
func (c *CPU) Account(cat Category) Time { return c.acct[cat] }

// Accounts returns a copy of all category accumulators.
func (c *CPU) Accounts() [NumCategories]Time { return c.acct }

// Charge adds d to category cat without consuming CPU time in the model.
// It is used for idle-time attribution, which is computed by the scheduler.
func (c *CPU) Charge(cat Category, d Time) { c.acct[cat] += d }

// Service charges d nanoseconds of protocol work to category cat and
// returns the virtual time at which that work completes (e.g. when a reply
// message may be sent). Service work preempts thread computation.
func (c *CPU) Service(d Time, cat Category) (done Time) {
	c.acct[cat] += d
	c.svcTotal += d
	start := c.k.now
	if c.svcUntil > start {
		start = c.svcUntil
	}
	c.svcUntil = start + d
	if c.inCompute {
		c.debt += d
	}
	return c.svcUntil
}

// ServiceTotal returns cumulative service time; the scheduler uses deltas of
// it to keep idle-time attribution from double-counting service intervals.
func (c *CPU) ServiceTotal() Time { return c.svcTotal }

// ThreadCompute runs d nanoseconds of application computation on behalf of
// process p, charging it to cat. It blocks p (in virtual time) until the
// computation completes, including any service work that preempted it and
// any service work that was already occupying the CPU.
func (c *CPU) ThreadCompute(p *Proc, d Time, cat Category) {
	if c.inCompute {
		panic("sim: overlapping ThreadCompute on one CPU")
	}
	// Wait for in-progress service work to drain before starting.
	for c.svcUntil > c.k.now {
		p.Sleep(c.svcUntil - c.k.now)
	}
	c.acct[cat] += d
	c.inCompute = true
	c.debt = 0
	remaining := d
	for {
		p.Sleep(remaining)
		if c.debt == 0 {
			break
		}
		remaining, c.debt = c.debt, 0 // preempted: run the stolen time again
	}
	c.inCompute = false
}
