package proto

import (
	"fmt"
	"slices"
	"strings"

	"godsm/internal/event"
	"godsm/internal/lrc"
	"godsm/internal/pagemem"
	"godsm/internal/sim"
)

// InvariantError is the panic value raised when a protocol invariant is
// violated. It carries the failing node's identity and consistency state at
// the moment of failure, and — once it unwinds through the simulation
// kernel's run loop — the bus's recent event history (the kernel recognizes
// it via sim.EventTraceAttacher), turning a chaos-test failure into an
// actionable dump rather than a bare stack trace.
//
// Every field is rendered deterministically: map-derived state (in-flight
// fetches, outstanding prefetches) is sorted at capture time, so the same
// failure always produces a byte-identical dump.
type InvariantError struct {
	Node int
	Page int64 // page involved, or -1 when the failure is not page-related
	VC   lrc.VC
	Time sim.Time
	Msg  string

	// InFlight and Prefetching are the pages with an outstanding demand
	// fetch / prefetch at the failing node, sorted ascending.
	InFlight    []int64
	Prefetching []int64

	// Events is the bus's recent event history, oldest first, attached by
	// the kernel's run loop as the panic unwinds.
	Events []event.Event
}

// Error renders the failure with its state and event-trace context.
func (e *InvariantError) Error() string {
	var b strings.Builder
	fmt.Fprintf(&b, "proto invariant violated: %s\n", e.Msg)
	fmt.Fprintf(&b, "  node=%d time=%dns vc=%v", e.Node, e.Time, e.VC)
	if e.Page >= 0 {
		fmt.Fprintf(&b, " page=%d", e.Page)
	}
	if len(e.InFlight) > 0 {
		fmt.Fprintf(&b, "\n  in-flight fetches: %v", e.InFlight)
	}
	if len(e.Prefetching) > 0 {
		fmt.Fprintf(&b, "\n  outstanding prefetches: %v", e.Prefetching)
	}
	if len(e.Events) > 0 {
		fmt.Fprintf(&b, "\n  last %d events:", len(e.Events))
		for _, ev := range e.Events {
			fmt.Fprintf(&b, "\n    %s", ev.String())
		}
	}
	return b.String()
}

// AttachEventTrace implements sim.EventTraceAttacher.
func (e *InvariantError) AttachEventTrace(evs []event.Event) {
	if e.Events == nil {
		e.Events = evs
	}
}

// sortedPages returns the keys of a page-keyed map, sorted, as int64s —
// failure dumps must render map state deterministically.
func sortedPages[V any](m map[pagemem.PageID]V) []int64 {
	var out []int64
	for p := range m {
		out = append(out, int64(p))
	}
	slices.Sort(out)
	return out
}

func (n *Node) newInvariantError(page int64, format string, args ...any) *InvariantError {
	return &InvariantError{
		Node:        n.ID,
		Page:        page,
		VC:          n.vc.Clone(),
		Time:        n.K.Now(),
		Msg:         fmt.Sprintf(format, args...),
		InFlight:    sortedPages(n.fetches),
		Prefetching: sortedPages(n.pf),
	}
}

// configInvariantf panics with a structured InvariantError for a
// construction-time failure (a bad Spec or kind); there is no node
// state or event history to attach yet.
func configInvariantf(format string, args ...any) {
	panic(&InvariantError{Node: -1, Page: -1, Msg: fmt.Sprintf(format, args...)})
}

// invariantf panics with a structured InvariantError for a failure that is
// not tied to a particular page.
func (n *Node) invariantf(format string, args ...any) {
	panic(n.newInvariantError(-1, format, args...))
}

// pageInvariantf is invariantf with the involved page recorded.
func (n *Node) pageInvariantf(p pagemem.PageID, format string, args ...any) {
	panic(n.newInvariantError(int64(p), format, args...))
}
