package proto

import (
	"godsm/internal/event"
	"godsm/internal/lrc"
	"godsm/internal/pagemem"
	"godsm/internal/sim"
)

// The adaptive backend's transition fetch, where the two regimes meet (see
// adp.go for the overview): the hybrid, a whole-page base plus diffs from
// their writers applied on top. A home -> diff switch leaves it behind for
// faults whose pendings straddle the switch (base: the ex-home's frame); a
// diff -> home switch starts one at the home-elect, the fill (base: the local
// frame, every pending a diff).

// hybridFault starts a fetch that combines a whole-page base request to the
// home (for the flush-era pendings in old) with diff requests for the
// post-switch pendings.
func (c *adpCoherence) hybridFault(p pagemem.PageID, old []lrc.IntervalID, onValid func()) {
	n := c.n
	ps := n.page(p)
	outcome := n.takePf(p, ps.pending)
	c.acc.cell(p).faults++
	n.bus.Emit(event.FaultRemote(n.ID, int64(p), outcome, len(ps.pending)))
	n.startFetch(p, nil, onValid).hybrid = true

	if home := c.hl.home(p); home != n.ID {
		// One base request naming only the flush-era intervals: the home's
		// applied vector reaches exCover once its in-flight flushes land, so
		// the request parks at worst briefly and can never park on an
		// interval the home will not learn of.
		n.post(n.C.FaultEntry, c.hl.pageReq(p, old, false))
	} else {
		// The flush-era data lands in this frame by itself (we are the home);
		// only the post-switch diffs move.
		n.CPU.Service(n.C.FaultEntry, sim.CatDSM)
	}
	c.tryCompleteHybrid(p)
}

// tryCompleteHybrid re-evaluates a hybrid fetch: the flush-era side must be
// satisfied (base installed, or — at the home — every flush-era pending
// covered), and every post-switch pending must have a stored diff. Missing
// post-switch diffs not yet asked for are requested here, which also picks
// up notices taken in while the fetch was in flight. A fill's pendings were
// all known at the switch barrier (their records came with the releases): a
// notice from above the switch names a home-mode interval, whose writer
// flushed its diff here and dropped it, and is a protocol bug.
func (c *adpCoherence) tryCompleteHybrid(p pagemem.PageID) {
	n := c.n
	f, ok := n.fetches[p]
	if !ok || !f.hybrid {
		return
	}
	ps := n.page(p)
	home := c.hl.home(p)
	ex := c.exCover[p]
	var post []lrc.IntervalID
	for _, id := range ps.pending {
		if ex != nil && id.Seq <= ex[id.Node] {
			if home == n.ID && !c.hl.covered(p, id) {
				return // the covering flush is still in flight
			}
			continue
		}
		post = append(post, id)
	}
	if home != n.ID && f.pageData == nil {
		return
	}
	var fresh []lrc.IntervalID
	missing := false
	for _, id := range post {
		if _, ok := n.storedDiff(id, p); !ok {
			missing = true
			if !f.needed.has(id) {
				if f.fillVC != nil && id.Seq > f.fillVC[id.Node] {
					n.pageInvariantf(p, "fill for page %d missing the diff for %v", p, id)
				}
				fresh = append(fresh, id)
			}
		}
	}
	if missing {
		if len(fresh) > 0 {
			c.lc.issueDiffRequests(f, fresh, 0)
		}
		return
	}
	c.finishHybrid(p, f, post)
}

// finishHybrid installs a completed hybrid fetch: commit any open local
// writes, lay down the base (which covers every flush-era pending), apply
// the post-switch diffs causally on top, and re-apply the local writes last
// (they are concurrent with the post-switch intervals, hence byte-disjoint
// under race freedom). A fill then declares the frame the home copy, current
// through the switch, before anyone waiting on it runs.
func (c *adpCoherence) finishHybrid(p pagemem.PageID, f *fetch, post []lrc.IntervalID) {
	n := c.n
	ps := n.page(p)
	var cost sim.Time
	var lm *pagemem.Diff
	if ps.twinned {
		lm = pagemem.MakeDiff(p, n.Store.Twin(p), n.Store.Frame(p))
		cost += n.makeOwnDiff(p)
	}
	if f.pageData != nil {
		copy(n.Store.Frame(p), f.pageData)
		n.bus.Emit(event.HomeFetch(n.ID, c.hl.home(p), int64(p), pagemem.PageSize))
		cost += n.C.DiffApply + sim.Time(n.C.ApplyNs*float64(pagemem.PageSize))
	}
	cost += n.applyDiffs(p, post)
	if f.pageData != nil && !lm.Empty() {
		lm.Apply(n.Store.Frame(p))
	}
	ps.pending = ps.pending[:0]
	done := n.CPU.Service(cost, sim.CatDSM)
	if f.fillVC != nil {
		c.hl.applied[p] = f.fillVC
		c.replayEarly(p)
	}
	n.finishFetch(f, done)
}

// startFill begins the home's side of a diff -> home switch: a hybrid fetch
// with no waiters whose base is the local frame, so every pending is fetched
// as a diff, and whose install declares the frame current through the switch
// (applied = switchVC). Flushes and demand requests that arrive meanwhile wait
// in xin and parked for replayEarly.
func (c *adpCoherence) startFill(p pagemem.PageID, switchVC lrc.VC) {
	n := c.n
	hl := c.hl
	if n.fetches[p] != nil {
		n.pageInvariantf(p, "mode switch to home for page %d with a demand fetch in flight", p)
	}
	if len(n.page(p).pending) == 0 {
		// The frame is already current: nothing to collect.
		hl.applied[p] = switchVC
		c.replayEarly(p)
		return
	}
	if hl.xin[p] == nil { // else a flush that outran our release opened it
		hl.xin[p] = &xferIn{fill: true}
	}
	f := n.startFetch(p, nil)
	f.hybrid, f.fillVC = true, switchVC
	c.tryCompleteHybrid(p)
}

// replayEarly runs once p's frame is the home copy: it closes the fill
// buffer, applies in arrival order the flushes that reached this home first,
// and serves the demand requests that parked meanwhile — like the flushes,
// some can have outrun this node's own release.
func (c *adpCoherence) replayEarly(p pagemem.PageID) {
	hl := c.hl
	if st := hl.xin[p]; st != nil {
		delete(hl.xin, p)
		for _, fl := range st.buf {
			hl.handleHomeFlush(fl)
		}
	}
	hl.serveParked(p)
}
