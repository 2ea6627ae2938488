package proto

import (
	"godsm/internal/event"
	"godsm/internal/lrc"
	"godsm/internal/pagemem"
)

// The adaptive backend's transition fetches, where the two regimes meet
// (see adp.go for the overview, node.go's fetch for the mechanism): adp
// decides a fetch's split, and both of its transition fetches are the
// chassis fetch with a split of their own. A home -> diff switch leaves the
// hybrid behind for faults whose pendings straddle the switch: the flush-era
// ones on the base side (the ex-home's frame), the rest diffs on top. A
// diff -> home switch starts the fill at the home-elect: every pending a
// diff, on the local frame.

// onBase splits an adp fetch. A fill has every interval on the diff side; a
// home-mode page every one on the base side; a page evicted from home mode
// the flush-era ones, at or below its exCover, whose diffs were flushed to
// the home and dropped at the writers. A fill's pendings were all known at
// the switch barrier (their records came with the releases): a notice from
// above the switch names a home-mode interval, whose writer flushed its diff
// here and dropped it, and is a protocol bug.
func (c *adpCoherence) onBase(f *fetch, id lrc.IntervalID) bool {
	if f.fillVC != nil {
		if id.Seq > f.fillVC[id.Node] {
			c.n.pageInvariantf(f.page, "fill for page %d missing the diff for %v", f.page, id)
		}
		return false
	}
	return c.homeMode(f.page) || c.flushEra(f.page, id)
}

// hybridFault starts the fetch of a page whose pendings straddle its
// home -> diff switch. Away from the home its first ask is one base request
// naming only the flush-era intervals: the home's applied vector reaches
// exCover once its in-flight flushes land, so the request parks at worst
// briefly and can never park on an interval the home will not learn of. At
// the home the flush-era data lands in this frame by itself; only the
// post-switch diffs move.
func (c *adpCoherence) hybridFault(p pagemem.PageID, onValid func()) {
	n := c.n
	ps := n.page(p)
	outcome := n.takePf(p, ps.pending)
	c.acc.cell(p).faults++
	n.bus.Emit(event.FaultRemote(n.ID, int64(p), outcome, len(ps.pending)))
	n.startFetch(n.newFetch(p, onValid), n.C.FaultEntry)
}

// startFill begins the home's side of a diff -> home switch: a fetch with no
// waiters whose base is the local frame, so every pending is fetched as a
// diff, and whose install declares the frame current through the switch
// (applied = switchVC). Flushes and demand requests that arrive meanwhile wait
// in xin and parked for settle.
func (c *adpCoherence) startFill(p pagemem.PageID, switchVC lrc.VC) {
	n := c.n
	hl := c.hl
	if n.fetches[p] != nil {
		n.pageInvariantf(p, "mode switch to home for page %d with a demand fetch in flight", p)
	}
	if len(n.page(p).pending) == 0 {
		// The frame is already current: nothing to collect.
		hl.settle(p, switchVC)
		return
	}
	if hl.xin[p] == nil { // else a flush that outran our release opened it
		hl.xin[p] = &xferIn{fill: true}
	}
	f := n.newFetch(p)
	f.fillVC = switchVC
	n.startFetch(f, 0)
}

// settle runs once p's frame is the home copy, current through applied: it
// closes the fill buffer, applies in arrival order the flushes that reached
// this home first, and serves the demand requests that parked meanwhile —
// like the flushes, some can have outrun this node's own release.
func (c *hlrcCoherence) settle(p pagemem.PageID, applied lrc.VC) {
	c.applied[p] = applied
	if st := c.xin[p]; st != nil {
		delete(c.xin, p)
		for _, fl := range st.buf {
			c.handleHomeFlush(fl)
		}
	}
	c.serveParked(p)
}
