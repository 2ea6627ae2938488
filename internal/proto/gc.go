package proto

import (
	"godsm/internal/event"
	"godsm/internal/netsim"
	"godsm/internal/pagemem"
	"godsm/internal/sim"
)

// Diff garbage collection. TreadMarks's consistency records (intervals,
// write notices, diffs, twins) grow without bound between synchronization
// points; when storage exceeds a threshold the system performs a global
// collection at the next barrier: every processor validates all of its
// invalid pages (forcing every outstanding diff to be created and applied
// everywhere), after which all records can be discarded. The paper notes
// GC costs in two places: prefetching shortens GC by validating pages
// sooner, and the separate prefetch diff heap relieves storage pressure —
// both effects hold here because the prefetch cache is accounted
// separately and prefetched pages validate without network traffic.
//
// Protocol: barrier arrivals report each node's diff-storage size. If any
// exceeds the threshold, the release message carries a GC flag. Each node
// then fetches and applies every pending diff (normal fault machinery) and
// sends GC-DONE to the manager; when all N are done the manager broadcasts
// GC-FLUSH, nodes discard diffs/records below the current vector time, and
// only then do the barrier's waiters resume.

// lrcGC is the diff garbage collector, driven from the barrier code:
// arrivals report storage, the root decides whether a collection runs before
// the release completes. Every node has one; with threshold 0 (the default,
// and always under hlrc and adp, whose homes apply diffs eagerly so storage
// never accumulates) it reports raw diff bytes and never triggers.
type lrcGC struct {
	n            *Node
	threshold    int64    // trigger a collection above this many bytes (0 = off)
	sharedPfHeap bool     // count the prefetch cache toward the trigger
	resume       func()   // stashed barrier release during a collection
	start        sim.Time // when the current collection began
	doneCount    int      // manager-side: nodes that completed validation
}

// ReportBytes returns the storage figure the barrier manager reports for
// itself. Remote arrivals ship raw diff bytes; only the manager's local
// report folds in the prefetch heap when the separate-heap relief is
// disabled (footnote 6's ablation measures the manager-triggered effect).
func (g *lrcGC) ReportBytes() int64 {
	report := g.n.diffBytes
	if g.sharedPfHeap {
		report += g.n.pfHeap
	}
	return report
}

// Exceeds reports whether a barrier arrival's storage figure should trigger
// a collection at the release.
func (g *lrcGC) Exceeds(reported int64) bool {
	return g.threshold > 0 && reported > g.threshold
}

// Handle dispatches the collection messages.
func (g *lrcGC) Handle(m *netsim.Message) bool {
	switch pl := m.Payload.(type) {
	case *msgGCDone:
		g.gcDoneAtManager(pl.From)
	case *msgGCFlush:
		g.handleGCFlush()
	default:
		return false
	}
	return true
}

// gcValidate fetches and applies every pending diff at this node, then
// reports completion. onDone runs (in kernel context) when local
// validation finishes.
func (g *lrcGC) gcValidate(onDone func()) {
	n := g.n
	// Waves: fetching can itself surface new pending notices (interval
	// splits while serving, eager-RC broadcasts), so re-scan until clean.
	var wave func()
	wave = func() {
		var pages []pagemem.PageID // ascending: Each walks in page order
		for p, ps := range n.pages.Each {
			if len(ps.pending) > 0 {
				pages = append(pages, p)
			}
		}
		if len(pages) == 0 {
			onDone()
			return
		}
		remaining := len(pages)
		for _, p := range pages {
			n.Fault(p, func() {
				remaining--
				if remaining == 0 {
					wave()
				}
			})
		}
	}
	wave()
}

// gcFlush discards all diffs, the prefetch cache, and interval records
// covered by the current vector time. Records at or below gcBase are gone —
// rec masks them, though the machine's log keeps them; the protocol
// invariant (contiguity above gcBase) is maintained because every node's VC
// covers gcBase after the collection.
func (g *lrcGC) gcFlush() {
	n := g.n
	n.diffBytes = 0
	n.pfHeap = 0
	n.pf = make(map[pagemem.PageID]*pfState)
	copy(n.gcBase, n.vc) // from here on rec masks the collected records
	// Drop every page's diffs. Sanity on the way: validation must have
	// drained every pending list and created every outstanding own diff
	// (each notice was pending somewhere). Each walks in page order, so a
	// violation deterministically reports the lowest offending page — the
	// chaos soak's failure dumps must reproduce byte-identically.
	for p, ps := range n.pages.Each {
		ps.diffs = nil
		if len(ps.pending) != 0 {
			n.pageInvariantf(p, "gcFlush with pending diffs on page %d", p)
		}
		if n.N > 1 && ps.hasUndiffed {
			n.pageInvariantf(p, "gcFlush with undiffed notice on page %d", p)
		}
	}
	n.bus.Emit(event.GCFlush(n.ID))
}

// gcSendDone reports local validation completion to the barrier manager.
func (g *lrcGC) gcSendDone() {
	n := g.n
	if n.ID == 0 {
		g.gcDoneAtManager(0)
		return
	}
	n.post(0, n.msg(0, KindGCDone, &msgGCDone{From: n.ID}))
}

// gcDoneAtManager counts completions; the N-th broadcasts the flush.
func (g *lrcGC) gcDoneAtManager(from int) {
	n := g.n
	g.doneCount++
	if g.doneCount < n.N {
		return
	}
	g.doneCount = 0
	for q := 1; q < n.N; q++ {
		n.post(0, n.msg(q, KindGCFlush, &msgGCFlush{}))
	}
	g.handleGCFlush()
}

// handleGCFlush finishes the collection locally and releases the barrier.
func (g *lrcGC) handleGCFlush() {
	n := g.n
	g.gcFlush()
	n.bus.Emit(event.GCDone(n.ID, n.K.Now()-g.start))
	cb := g.resume
	g.resume = nil
	if cb == nil {
		n.invariantf("GC flush without a pending barrier release")
	}
	done := n.CPU.Service(n.C.IntervalOp, sim.CatDSM)
	n.K.At(done, cb)
}

// Begin starts the validation phase after a GC-flagged barrier release;
// resume runs once the global collection completes.
func (g *lrcGC) Begin(resume func()) {
	n := g.n
	if g.threshold == 0 {
		n.invariantf("node %d: GC begin with no collector configured", n.ID)
	}
	n.bus.Emit(event.GCBegin(n.ID))
	g.resume = resume
	g.start = n.K.Now()
	g.gcValidate(func() { g.gcSendDone() })
}
