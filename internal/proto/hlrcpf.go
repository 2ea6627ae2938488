package proto

import (
	"godsm/internal/event"
	"godsm/internal/lrc"
	"godsm/internal/netsim"
	"godsm/internal/pagemem"
	"godsm/internal/sim"
)

// hlrcPrefetcher is the whole-page prefetch policy of the home-based
// backend: a prefetch asks the page's home for a copy covering the pending
// intervals, and the reply lands in a per-page cache consumed at the real
// access (the same separate-heap accounting as LRC's diff cache, one page
// per entry).
type hlrcPrefetcher struct {
	n        *Node
	coh      *hlrcCoherence
	throttle int  // drop every throttle-th prefetch (0 = never)
	counter  int  // dynamic prefetch count for the throttle
	reliable bool // send prefetch traffic reliably

	cache map[pagemem.PageID]*pfPage
}

// pfPage is one cached whole-page prefetch reply.
type pfPage struct {
	data   []byte
	covers map[lrc.IntervalID]bool // intervals the snapshot is known to cover
}

// take removes and returns the cached copy of p, if any, releasing its
// prefetch-heap accounting. A fault always consumes the entry: either it
// hits, or the copy is stale and worthless.
func (pf *hlrcPrefetcher) take(p pagemem.PageID) *pfPage {
	pg, ok := pf.cache[p]
	if !ok {
		return nil
	}
	delete(pf.cache, p)
	pf.n.pfHeap -= pagemem.PageSize
	return pg
}

// drop discards any cached copy of p: a home move or mode switch makes the
// snapshot's covers untrustworthy for the new era.
func (pf *hlrcPrefetcher) drop(p pagemem.PageID) { pf.take(p) }

// cacheReply stores an arriving prefetch reply. Duplicates (the lossy path
// can retransmit nothing, but a fault plan can duplicate) merge into the
// existing entry without double-counting the heap.
func (pf *hlrcPrefetcher) cacheReply(rep *msgPageReply) {
	n := pf.n
	if st, ok := n.pf[rep.Page]; ok && st.inflight > 0 {
		st.inflight--
	}
	pg, ok := pf.cache[rep.Page]
	if !ok {
		pg = &pfPage{covers: make(map[lrc.IntervalID]bool)}
		pf.cache[rep.Page] = pg
		n.pfHeap += pagemem.PageSize
	}
	pg.data = append(pg.data[:0], rep.Data...)
	if pf.coh.dyn {
		// Under a dynamic home policy successive replies can come from
		// different servers (the home moved mid-flight), so a union of
		// covers could claim intervals the latest data does not contain.
		// Keep each entry a self-consistent (data, covers) pair instead.
		pg.covers = make(map[lrc.IntervalID]bool, len(rep.Covers))
	}
	for _, id := range rep.Covers {
		pg.covers[id] = true
	}
}

// Prefetch issues a whole-page prefetch to p's home. Pages homed here never
// need one (home faults are message-free), and a cached copy that already
// covers everything pending makes a new request pointless.
func (pf *hlrcPrefetcher) Prefetch(p pagemem.PageID) int {
	n := pf.n
	n.bus.Emit(event.PfCall(n.ID, int64(p)))

	if pf.throttle > 0 {
		pf.counter++
		if pf.counter%pf.throttle == 0 {
			return n.dropPrefetch(event.PfThrottle(n.ID, int64(p)))
		}
	}

	if n.PageValid(p) || n.fetches[p] != nil || pf.coh.home(p) == n.ID || n.pfInflight(p) {
		return n.dropPrefetch(event.PfUnnecessary(n.ID, int64(p)))
	}
	ps := n.page(p)
	if pg, ok := pf.cache[p]; ok && !anyOutside(ps.pending, pg.covers) {
		return n.dropPrefetch(event.PfUnnecessary(n.ID, int64(p)))
	}

	st, ok := n.pf[p]
	if !ok {
		st = &pfState{requested: make(map[lrc.IntervalID]bool)}
		n.pf[p] = st
	}
	need := append([]lrc.IntervalID(nil), ps.pending...)
	for _, id := range need {
		st.requested[id] = true
	}
	st.inflight++
	n.bus.Emit(event.PfIssue(n.ID, int64(p), 1))
	done := n.CPU.Service(n.C.PfIssue, sim.CatPrefetchOv)
	n.sendUnreliable(done, &netsim.Message{
		Src: netsim.NodeID(n.ID), Dst: netsim.NodeID(pf.coh.home(p)),
		Size:     n.C.HeaderBytes + n.C.ReqBytes + 12*len(need),
		Reliable: pf.reliable,
		Kind:     KindPfReq,
		Payload:  &msgPageReq{From: n.ID, Page: p, Need: need, Prefetch: true},
	}, func() { n.bus.Emit(event.PfReqDrop(n.ID, int64(p))) })
	return 1
}
