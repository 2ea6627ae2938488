package proto

import (
	"godsm/internal/event"
	"godsm/internal/lrc"
	"godsm/internal/netsim"
	"godsm/internal/pagemem"
	"godsm/internal/sim"
)

// The requester side of the "hlrc" backend: faults, page requests and the
// replies that feed a fetch's base (see hlrc.go for the protocol overview).

// Fault resolves an access to an invalid page. A page homed here waits
// (message-free) for the covering flushes; a remote page fetches a
// whole-page copy from the home, after flushing any local writes so the
// copy cannot clobber them. Every interval is on the fetch's base side.
func (c *hlrcCoherence) Fault(p pagemem.PageID, onValid func()) {
	n := c.n
	ps := n.page(p)
	outcome := n.takePf(p, ps.pending)
	if c.track {
		c.acc.cell(p).faults++
	}

	if c.home(p) == n.ID {
		// The frame is already the most complete copy: either every pending
		// interval has been flushed in (validate locally, no traffic), or
		// the fault waits for the missing flushes, completing at the done
		// of the one that covers it.
		uncovered := 0
		for _, id := range ps.pending {
			if !c.covered(p, id) {
				uncovered++
			}
		}
		if uncovered == 0 {
			ps.pending = ps.pending[:0]
			n.bus.Emit(event.FaultLocal(n.ID, int64(p), event.OutcomeNoPf))
			n.K.At(n.CPU.Service(n.C.FaultEntry, sim.CatDSM), onValid)
			return
		}
		n.bus.Emit(event.FaultRemote(n.ID, int64(p), event.OutcomeNoPf, uncovered))
		f := n.newFetch(p, onValid)
		f.atFlush = true
		n.startFetch(f, n.C.FaultEntry)
		return
	}

	// Whole-page prefetch cache hit: the cached copy must cover every
	// pending interval AND the page must carry no unflushed local writes
	// (the stale copy would clobber them).
	if pg := c.takePfPage(p); pg != nil && !ps.twinned && !anyOutside(ps.pending, pg.covers) {
		n.bus.Emit(event.FaultLocal(n.ID, int64(p), event.OutcomePfHit))
		done := n.CPU.Service(n.C.FaultEntry+n.install(p, pg.data, -1, nil), sim.CatDSM)
		n.K.At(done, onValid)
		return
	}

	if ps.twinned {
		// Close the interval so our diff is flushed home ahead of the
		// request, which then names it as Own: the reply's page copy includes
		// our own writes, and the twin is gone before the copy overwrites
		// the frame.
		n.closeInterval()
	}
	n.bus.Emit(event.FaultRemote(n.ID, int64(p), outcome, len(ps.pending)))
	n.startFetch(n.newFetch(p, onValid), n.C.FaultEntry)
}

// onBase: every interval of a home-based fetch is on the base side.
func (c *hlrcCoherence) onBase(*fetch, lrc.IntervalID) bool { return true }

// pageReq builds the request asking p's home for a copy covering need and
// this node's own flushed writes: a demand request, or a prefetch datagram.
func (c *hlrcCoherence) pageReq(p pagemem.PageID, need []lrc.IntervalID, prefetch bool) *netsim.Message {
	kind := KindPageReq
	if prefetch {
		kind = KindPfReq
	}
	return msg(c.n, c.home(p), kind,
		msgPageReq{From: c.n.ID, Page: p, Own: c.n.page(p).flushed, Need: need, Prefetch: prefetch})
}

// handlePageReply caches a prefetch reply, or hands a demand reply's copy to
// the in-flight fetch as its base, which now covers the intervals asked.
func (c *hlrcCoherence) handlePageReply(rep *msgPageReply) {
	n := c.n
	if rep.Prefetch {
		c.cachePfReply(rep)
		return
	}
	f := n.fetches[rep.Page]
	if f == nil {
		return
	}
	f.base = rep.Data
	for _, id := range rep.Covers {
		f.needed.remove(id)
	}
	n.tryComplete(rep.Page, 0, 0)
}
