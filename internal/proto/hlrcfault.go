package proto

import (
	"godsm/internal/event"
	"godsm/internal/lrc"
	"godsm/internal/netsim"
	"godsm/internal/pagemem"
	"godsm/internal/sim"
)

// The requester side of the "hlrc" backend: resolving faults by fetching
// whole pages from the home, and the home node's own message-free parked
// faults (see hlrc.go for the protocol overview).

// Fault resolves an access to an invalid page: home pages wait (message-
// free) for the covering flushes; remote pages fetch a whole-page copy from
// the home, after flushing any local writes so the copy cannot clobber
// them. Concurrent faults join the in-flight fetch as under LRC.
func (c *hlrcCoherence) Fault(p pagemem.PageID, onValid func()) {
	n := c.n
	if f, ok := n.fetches[p]; ok {
		f.waiters = append(f.waiters, onValid)
		return
	}
	ps := n.page(p)
	outcome := n.takePf(p, ps.pending)
	if c.track {
		c.acc.cell(p).faults++
	}

	if c.home(p) == n.ID {
		c.homeFault(p, ps, onValid)
		return
	}

	// Whole-page prefetch cache hit: the cached copy must cover every
	// pending interval AND the page must carry no unflushed local writes
	// (the stale copy would clobber them).
	if pg := c.takePfPage(p); pg != nil && !ps.twinned && !anyOutside(ps.pending, pg.covers) {
		copy(n.Store.Frame(p), pg.data)
		ps.pending = ps.pending[:0]
		n.bus.Emit(event.FaultLocal(n.ID, int64(p), event.OutcomePfHit))
		cost := n.C.FaultEntry + n.C.DiffApply + sim.Time(n.C.ApplyNs*float64(pagemem.PageSize))
		done := n.CPU.Service(cost, sim.CatDSM)
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

	need := append([]lrc.IntervalID(nil), ps.pending...)
	n.bus.Emit(event.FaultRemote(n.ID, int64(p), outcome, len(need)))
	f := n.startFetch(p, need, onValid)
	f.asked = f.needed.clone()
	n.post(n.C.FaultEntry, c.pageReq(p, need, false))
}

// pageReq builds the request asking p's home for a copy covering need and
// this node's own flushed writes: a demand request, or a prefetch datagram.
func (c *hlrcCoherence) pageReq(p pagemem.PageID, need []lrc.IntervalID, prefetch bool) *netsim.Message {
	kind := KindPageReq
	if prefetch {
		kind = KindPfReq
	}
	return c.n.msg(c.home(p), kind,
		&msgPageReq{From: c.n.ID, Page: p, Own: c.n.page(p).flushed, Need: need, Prefetch: prefetch})
}

// homeFault handles a fault on a page homed at this node: the frame is
// already the most complete copy, so either every pending interval has been
// flushed in (validate locally, no traffic) or the fault parks until the
// missing flushes arrive.
func (c *hlrcCoherence) homeFault(p pagemem.PageID, ps *pageState, onValid func()) {
	n := c.n
	var uncovered []lrc.IntervalID
	for _, id := range ps.pending {
		if !c.covered(p, id) {
			uncovered = append(uncovered, id)
		}
	}
	if len(uncovered) == 0 {
		ps.pending = ps.pending[:0]
		n.bus.Emit(event.FaultLocal(n.ID, int64(p), event.OutcomeNoPf))
		done := n.CPU.Service(n.C.FaultEntry, sim.CatDSM)
		n.K.At(done, onValid)
		return
	}
	n.bus.Emit(event.FaultRemote(n.ID, int64(p), event.OutcomeNoPf, len(uncovered)))
	n.startFetch(p, uncovered, onValid)
	n.CPU.Service(n.C.FaultEntry, sim.CatDSM)
}

// handlePageReply completes (or extends) an in-flight whole-page fetch.
func (c *hlrcCoherence) handlePageReply(rep *msgPageReply) {
	n := c.n
	if rep.Prefetch {
		c.cachePfReply(rep)
		return
	}
	f, ok := n.fetches[rep.Page]
	if !ok {
		return
	}
	for _, id := range rep.Covers {
		f.needed.remove(id)
	}
	if len(f.needed) > 0 {
		return
	}
	// New notices may have been taken in while we waited; anything not yet
	// asked of the home needs another round trip (the reply predates it).
	ps := n.page(rep.Page)
	var fresh []lrc.IntervalID
	for _, id := range ps.pending {
		if !f.asked.has(id) {
			fresh = append(fresh, id)
		}
	}
	if len(fresh) > 0 {
		for _, id := range fresh {
			f.needed.add(id)
			f.asked.add(id)
		}
		n.post(0, c.pageReq(rep.Page, fresh, false))
		return
	}
	// Complete: the final reply's snapshot is the newest and the home frame
	// only grows, so it covers every earlier reply too; all pending
	// intervals were asked and covered, so the whole list clears.
	copy(n.Store.Frame(rep.Page), rep.Data)
	ps.pending = ps.pending[:0]
	cost := n.C.DiffApply + sim.Time(n.C.ApplyNs*float64(pagemem.PageSize))
	done := n.CPU.Service(cost, sim.CatDSM)
	n.bus.Emit(event.HomeFetch(n.ID, c.home(rep.Page), int64(rep.Page), pagemem.PageSize))
	n.finishFetch(f, done)
}
