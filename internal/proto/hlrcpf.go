package proto

import (
	"godsm/internal/event"
	"godsm/internal/lrc"
	"godsm/internal/pagemem"
)

// The whole-page prefetch policy of the home-based backend: a prefetch asks
// the page's home for a copy covering the pending intervals, and the reply
// lands in a per-page cache consumed at the real access (the same
// separate-heap accounting as LRC's diff cache, one page per entry).

// pfPage is one cached whole-page prefetch reply.
type pfPage struct {
	data   []byte
	covers idSet // intervals the snapshot is known to cover
}

// takePfPage removes and returns the cached copy of p, if any, releasing
// its prefetch-heap accounting. A fault always consumes the entry: either
// it hits, or the copy is stale and worthless. A home move or mode switch
// discards it the same way: the snapshot's covers are untrustworthy for the
// new era.
func (c *hlrcCoherence) takePfPage(p pagemem.PageID) *pfPage {
	pg, ok := c.pfCache[p]
	if !ok {
		return nil
	}
	delete(c.pfCache, p)
	c.n.pfHeap -= pagemem.PageSize
	return pg
}

// cachePfReply stores an arriving prefetch reply, replacing any earlier one:
// an entry is one reply's (data, covers) pair, never a union. Datagrams can
// arrive in any order (a fault plan duplicates and delays them, the home can
// move mid-flight), and a reply that claims nothing — its copy lacks the
// requester's own writes, or is not the home copy — must not inherit an
// earlier reply's claims for its data.
func (c *hlrcCoherence) cachePfReply(rep *msgPageReply) {
	n := c.n
	if st, ok := n.pf[rep.Page]; ok && st.inflight > 0 {
		st.inflight--
	}
	pg, ok := c.pfCache[rep.Page]
	if !ok {
		pg = &pfPage{}
		c.pfCache[rep.Page] = pg
		n.pfHeap += pagemem.PageSize
	}
	pg.data = append(pg.data[:0], rep.Data...)
	pg.covers = pg.covers[:0]
	for _, id := range rep.Covers {
		pg.covers.add(id)
	}
}

// Prefetch issues a whole-page prefetch to p's home. Pages homed here never
// need one (home faults are message-free), and a cached copy that already
// covers everything pending makes a new request pointless.
func (c *hlrcCoherence) Prefetch(p pagemem.PageID) int {
	n := c.n
	if !n.admitPrefetch(p, &c.throttle, c.home(p) == n.ID) {
		return 0
	}
	ps := n.page(p)
	if pg, ok := c.pfCache[p]; ok && !anyOutside(ps.pending, pg.covers) {
		return n.dropPrefetch(event.PfUnnecessary(n.ID, int64(p)))
	}
	need := append([]lrc.IntervalID(nil), ps.pending...)
	return n.issuePrefetch(p, need, c.pageReq(p, need, true))
}
