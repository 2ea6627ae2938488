package core

import (
	"fmt"
	"strings"

	"godsm/internal/event"
	"godsm/internal/sim"
)

// AddrError is the panic value raised when a thread accesses an address
// outside the shared heap [HeapLo, HeapHi): address 0 and the rest of the
// unmapped first page, or anything at or past the allocator's break. Like
// race.RaceError it is the application's bug, renders deterministically,
// and has the bus's recent event history attached as it unwinds through
// the kernel's run loop.
//
// The check is the fault handler's, so it runs only when an access misses
// the page table: a stray address inside a resident page (the tail of the
// heap's last page, or one beyond 2^44 that truncates onto a resident page
// id) reads that page, as a real MMU would let it. Under Config.RaceCheck
// the check runs on every access, before the race detector sees the
// address, so the debugging mode is stricter than the MMU: the same stray
// address that hits when unchecked is an AddrError when checked.
type AddrError struct {
	Addr   Addr
	Write  bool
	Thread int
	Proc   int
	At     sim.Time
	HeapLo Addr
	HeapHi Addr

	// Events is the bus's recent event history, oldest first, attached by
	// the kernel's run loop as the panic unwinds.
	Events []event.Event
}

// Error renders the access, the heap bounds and the event-trace context.
func (e *AddrError) Error() string {
	kind := "read"
	if e.Write {
		kind = "write"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "unmapped shared address: %s of 0x%x by thread %d (proc %d) at t=%dns\n",
		kind, uint64(e.Addr), e.Thread, e.Proc, e.At)
	fmt.Fprintf(&b, "  the shared heap is [0x%x, 0x%x)", uint64(e.HeapLo), uint64(e.HeapHi))
	writeEvents(&b, e.Events)
	return b.String()
}

// AttachEventTrace implements sim.EventTraceAttacher.
func (e *AddrError) AttachEventTrace(evs []event.Event) {
	if e.Events == nil {
		e.Events = evs
	}
}
