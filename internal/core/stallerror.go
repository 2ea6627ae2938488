package core

import (
	"fmt"
	"strings"

	"godsm/internal/event"
	"godsm/internal/sim"
)

// StallError is the panic value System.Run raises when the simulation ends
// with threads unfinished: either the event queue drained while they were
// still waiting (Pending == 0: a deadlock in the application or the model)
// or Config.Limit cut the run short (Pending > 0). Like AddrError it
// belongs to the program under test, renders deterministically, and carries
// the bus's recent event history.
type StallError struct {
	At      sim.Time // virtual time the run stopped at
	Pending int      // events still queued; nonzero only when Limit stopped the run
	Limit   sim.Time // Config.Limit
	Threads []StalledThread
	Events  []event.Event
}

// StalledThread describes one unfinished thread.
type StalledThread struct {
	Thread, Proc int
	Name         string       // the thread's sim.Proc name
	State        string       // scheduler state: running, ready, blocked or spinning
	Cause        sim.Category // what a blocked or spinning thread's wait is charged to
	Wait         string       // what it waits for: "page 12", "lock 3", "barrier 0"
}

// waitFor names the resource a thread blocks on; Thread.block's callers set
// it so a StallError can say who waits for what.
type waitFor struct {
	what string // "page", "lock" or "barrier"
	id   int
}

// stalledThreads lists every unfinished thread in id order.
func (s *System) stalledThreads() []StalledThread {
	var out []StalledThread
	for _, pr := range s.Procs {
		for _, t := range pr.threads {
			if t.state == tDone {
				continue
			}
			st := StalledThread{Thread: t.id, Proc: pr.id, Name: t.p.Name(), State: t.state.String()}
			if t.state == tBlocked || t.state == tSpinning {
				st.Cause, st.Wait = t.cause, fmt.Sprintf("%s %d", t.wait.what, t.wait.id)
			}
			out = append(out, st)
		}
	}
	return out
}

// Error renders why the run stopped, each unfinished thread, and the
// event-trace context.
func (e *StallError) Error() string {
	var b strings.Builder
	if e.Pending > 0 {
		fmt.Fprintf(&b, "simulation hit its time limit (%dns) at t=%dns with %d events pending", e.Limit, e.At, e.Pending)
	} else {
		fmt.Fprintf(&b, "simulation deadlocked at t=%dns: the event queue drained", e.At)
	}
	fmt.Fprintf(&b, "; %d threads never finished:", len(e.Threads))
	for _, t := range e.Threads {
		fmt.Fprintf(&b, "\n  thread %d (%s, proc %d): %s", t.Thread, t.Name, t.Proc, t.State)
		if t.Wait != "" {
			fmt.Fprintf(&b, ", %s on %s", t.Cause, t.Wait)
		}
	}
	writeEvents(&b, e.Events)
	return b.String()
}

// writeEvents appends an error's event-trace context, if it has any.
func writeEvents(b *strings.Builder, evs []event.Event) {
	if len(evs) > 0 {
		fmt.Fprintf(b, "\n  last %d events:", len(evs))
		for _, ev := range evs {
			fmt.Fprintf(b, "\n    %s", ev.String())
		}
	}
}
