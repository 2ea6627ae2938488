package proto

import (
	"godsm/internal/event"
	"godsm/internal/lrc"
	"godsm/internal/pagemem"
	"godsm/internal/sim"
)

// The adaptive backend's transition fetches, where the two regimes meet
// (see adp.go for the overview): the hybrid fetch a home -> diff switch
// leaves behind (a whole-page base from the home plus post-switch diffs from
// their writers) and the fill a diff -> home switch starts at the home.

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
// up notices taken in while the fetch was in flight.
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
// under race freedom).
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
	n.finishFetch(f, n.CPU.Service(cost, sim.CatDSM))
}

// startFill begins the home's side of a diff -> home switch: fetch the
// diff-era pendings' missing diffs, then declare the frame current through
// the switch (applied = switchVC). prevEx is the previous home -> diff
// switch VC; pendings at or below it are flush-era — their data arrives as
// (possibly still in-flight) home flushes, not as writer-held diffs.
// Returns any CPU cost for the caller to charge.
func (c *adpCoherence) startFill(p pagemem.PageID, switchVC, prevEx lrc.VC) sim.Time {
	n := c.n
	hl := c.hl
	if f := n.fetches[p]; f != nil {
		if f.fill || f.hybrid || len(f.waiters) > 0 {
			n.pageInvariantf(p, "mode switch to home for page %d with a demand fetch in flight", p)
		}
		// A waiterless coverage-wait from an earlier tenure (its flush still
		// in flight); the fill supersedes it.
		delete(n.fetches, p)
	}
	ps := n.page(p)
	if len(ps.pending) == 0 {
		// The frame is already current: nothing to collect.
		hl.applied[p] = switchVC.Clone()
		c.replayEarly(p)
		return 0
	}
	var want []lrc.IntervalID
	for _, id := range ps.pending {
		if prevEx != nil && id.Seq <= prevEx[id.Node] {
			continue
		}
		if _, ok := n.storedDiff(id, p); !ok {
			want = append(want, id)
		}
	}
	if hl.xin[p] == nil { // else a flush that outran our release opened it
		hl.xin[p] = &xferIn{fill: true}
	}
	f := n.startFetch(p, want)
	f.fill, f.fillVC, f.fillEx = true, switchVC.Clone(), prevEx
	if len(want) > 0 {
		c.lc.issueDiffRequests(f, want, 0)
		return 0
	}
	c.tryCompleteFill(p)
	return 0
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

// tryCompleteFill installs a fill once every requested diff has arrived:
// apply the diff-era pendings causally, set applied to the switch VC, replay
// the flushes buffered while the fill ran, and leave an hlrc-style coverage
// wait behind for flush-era pendings whose flushes are still in flight.
func (c *adpCoherence) tryCompleteFill(p pagemem.PageID) {
	n := c.n
	hl := c.hl
	f, ok := n.fetches[p]
	if !ok || !f.fill {
		return
	}
	if len(f.needed) > 0 {
		return
	}
	ps := n.page(p)
	var apply []lrc.IntervalID
	for _, id := range ps.pending {
		if f.fillEx != nil && id.Seq <= f.fillEx[id.Node] {
			continue
		}
		if _, ok := n.storedDiff(id, p); !ok {
			// Every diff-era pending was known at the switch barrier (its
			// record propagated with the releases), so the fill asked for it.
			n.pageInvariantf(p, "fill for page %d missing the diff for %v", p, id)
		}
		apply = append(apply, id)
	}
	var cost sim.Time
	if ps.twinned && len(apply) > 0 {
		cost += n.makeOwnDiff(p)
	}
	cost += n.applyDiffs(p, apply)
	rest := ps.pending[:0]
	for _, id := range ps.pending {
		if f.fillEx != nil && id.Seq <= f.fillEx[id.Node] {
			rest = append(rest, id)
		}
	}
	ps.pending = rest
	hl.applied[p] = f.fillVC.Clone()
	delete(n.fetches, p)
	done := n.CPU.Service(cost, sim.CatDSM)
	c.replayEarly(p)
	var uncovered []lrc.IntervalID
	for _, id := range ps.pending {
		if !hl.covered(p, id) {
			uncovered = append(uncovered, id)
		}
	}
	if len(uncovered) > 0 {
		// Flush-era stragglers: wait for their flushes like a home fault.
		n.startFetch(p, uncovered, f.waiters...).start = f.start
		return
	}
	ps.pending = ps.pending[:0]
	n.finishFetch(f, done)
}
