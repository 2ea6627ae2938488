package proto

import (
	"fmt"

	"godsm/internal/event"
	"godsm/internal/lrc"
	"godsm/internal/netsim"
	"godsm/internal/pagemem"
	"godsm/internal/sim"
)

// The adaptive backend ("adp"): every page runs in one of two per-page
// protocol modes and can switch between them at barrier episodes.
//
//   - diff mode (the default): TreadMarks-style lazy release consistency.
//     Twins are kept at interval close, diffs are created on demand and
//     fetched from their writers at fault time.
//   - home mode: home-based LRC. Writers flush diffs to the page's home
//     (static mod-N; adp never moves homes) at interval close; faults fetch
//     the whole page from the home.
//
// Per-page access counters piggyback on barrier arrivals; the barrier root
// decides mode switches from the aggregated episode totals (decideMoves) and
// distributes them on the releases, so every replica's mode map flips in
// lockstep. Since no demand fetch is ever in flight across a barrier (the
// faulting thread cannot have arrived), a switch never races a demand fetch.
//
// The transition machinery is where the two regimes meet:
//
//   - diff -> home: intervals closed before the switch left their diffs at
//     the writers. The home runs a "fill": it fetches the missing diffs for
//     its pending notices, applies them, and declares its frame current
//     through the switch VC (applied = fillVC). Flushes arriving during the
//     fill are buffered (xferIn.fill) and replayed after the install, and
//     remote demand requests park at the home until the fill completes.
//   - home -> diff: intervals closed before the switch were flushed to the
//     home and dropped at the writers — no diff exists for them anywhere.
//     Every node snapshots the switch VC (exCover); a later fault whose
//     pending list mixes such flush-era intervals with new diff-era ones
//     runs a "hybrid" fetch: one whole-page request to the home (whose
//     applied vector covers everything at or below exCover) installed as a
//     base, plus ordinary diff requests for the post-switch intervals,
//     applied causally on top. The barrier cut guarantees every post-switch
//     interval is causally after every pre-switch one, so base-then-diffs is
//     a causal order.
//
// The home keeps its applied vector across a home -> diff switch, so it can
// serve flush-era base requests for as long as stale pendings surface.
type adpCoherence struct {
	n   *Node
	hl  *hlrcCoherence // the embedded home-based engine (static homes, no tracking)
	lc  *lrcCoherence  // the embedded diff-based engine
	hpf *hlrcPrefetcher

	// mode holds ModeHome entries only; an absent page runs in diff mode.
	mode map[pagemem.PageID]uint8

	// exCover[p] is the vector time at p's most recent home -> diff switch:
	// an interval at or below it was flushed to the home during the home
	// tenure (or covered by the fill) and has no writer-held diff.
	exCover map[pagemem.PageID]lrc.VC

	// acc collects this node's per-page counters for the episode in progress.
	acc *accSet

	// Barrier-root decision state.
	episode    int64
	lastSwitch map[pagemem.PageID]int64
	// burned marks pages evicted from home mode because the home regime was
	// losing on them; they never re-enter (the apps are phase-regular, so one
	// bad tenure predicts the next, and the bar prevents oscillation).
	burned map[pagemem.PageID]bool
	// everMulti marks pages that have had two or more writers in some
	// episode. Such pages never enter home mode: phase-regular apps will
	// write them that way again, and a multi-writer episode under the home
	// regime pays a flush round trip per writer.
	everMulti map[pagemem.PageID]bool
}

// Decision thresholds (decideMoves). A page switches at most once per
// adpHold episodes — hysteresis against ping-ponging, and enough slack that
// a fill's diff requests are long resolved before the page can switch again.
const (
	adpHold      = 2
	adpMinFaults = 3
	// adpPageFrac sets the "diffs are effectively page-sized" cut: a page
	// whose gathered diff volume reaches PageSize/adpPageFrac per gather
	// moves data at page granularity already, so the home regime's
	// whole-page replies cost little extra and its eager flush application
	// removes the gather latency. A quarter page leaves margin below the
	// full-page producer/consumer signature (a near-page diff per gather,
	// with issued prefetches and the demand fault both counted as gathers)
	// while staying far above fine-grained diff traffic.
	adpPageFrac = 4
)

func validateADP(cfg Spec) error {
	if cfg.GCThreshold != 0 {
		return fmt.Errorf("protocol adp has no diff GC; GCThreshold must be 0, got %d", cfg.GCThreshold)
	}
	if cfg.PfHeapSharedGC {
		return fmt.Errorf("protocol adp has no diff GC; PfHeapSharedGC does not apply")
	}
	if cfg.Gossip {
		return fmt.Errorf("protocol adp distributes notices through synchronization; Gossip does not apply")
	}
	if cfg.HomePolicy != "" {
		return fmt.Errorf("protocol adp keeps homes static and adapts the per-page mode instead; HomePolicy must be empty, got %q", cfg.HomePolicy)
	}
	return nil
}

func buildADP(n *Node, cfg Spec) (Coherence, Prefetcher) {
	hl, hpf := newHLRC(n, cfg, staticPolicy{})
	hl.xin = make(map[pagemem.PageID]*xferIn) // fills buffer arriving flushes here
	lc := &lrcCoherence{n: n, pfReliable: cfg.PfReliable}
	lpf := &lrcPrefetcher{n: n, throttle: cfg.ThrottlePf, reliable: cfg.PfReliable}
	coh := &adpCoherence{
		n: n, hl: hl, lc: lc, hpf: hpf,
		mode:       make(map[pagemem.PageID]uint8),
		exCover:    make(map[pagemem.PageID]lrc.VC),
		acc:        newAccSet(),
		lastSwitch: make(map[pagemem.PageID]int64),
		burned:     make(map[pagemem.PageID]bool),
		everMulti:  make(map[pagemem.PageID]bool),
	}
	return coh, &adpPrefetcher{c: coh, hpf: hpf, lpf: lpf}
}

func (c *adpCoherence) homeMode(p pagemem.PageID) bool { return c.mode[p] == ModeHome }

// preSwitch returns p's pending intervals that closed at or before the
// page's last home -> diff switch: their diffs were flushed to the home and
// dropped at the writers, so only the home's frame can resolve them.
func (c *adpCoherence) preSwitch(p pagemem.PageID) []lrc.IntervalID {
	ex, ok := c.exCover[p]
	if !ok {
		return nil
	}
	var old []lrc.IntervalID
	for _, id := range c.n.page(p).pending {
		if id.Seq <= ex[id.Node] {
			old = append(old, id)
		}
	}
	return old
}

// Fault resolves an access to an invalid page under the page's current mode.
func (c *adpCoherence) Fault(p pagemem.PageID, onValid func()) {
	n := c.n
	if n.PageValid(p) {
		n.pageInvariantf(p, "Fault on valid page %d", p)
	}
	if f, ok := n.fetches[p]; ok {
		// A plain fetch without waiters can only be a coverage-wait residual
		// left behind by an earlier home tenure (an lrc demand fetch carries
		// its first waiter from birth to completion). If the page has since
		// switched to the diff regime, flushes alone cannot resolve its new
		// notices: upgrade it to a hybrid fetch so post-switch diffs are
		// requested too. Scrub any diff-era ids the hlrc coverage loop re-armed
		// into needed — they were never requested as diffs and are now ours.
		residual := !f.fill && !f.hybrid && len(f.waiters) == 0
		f.waiters = append(f.waiters, onValid)
		if residual && !c.homeMode(p) {
			f.hybrid = true
			if ex := c.exCover[p]; ex != nil {
				for id := range f.needed {
					if id.Seq > ex[id.Node] {
						delete(f.needed, id)
					}
				}
			}
			c.acc.cell(p).faults++
			c.tryCompleteHybrid(p)
		}
		return
	}

	if !c.homeMode(p) {
		if old := c.preSwitch(p); len(old) > 0 {
			c.hybridFault(p, old, onValid)
			return
		}
		cl := c.acc.cell(p)
		cl.faults++
		if missing := n.missingDiffs(p); len(missing) > 0 {
			nodes, _ := groupByNode(missing)
			cl.msgs += int32(len(nodes))
		}
		c.lc.Fault(p, onValid)
		return
	}

	// Home regime. Count at this layer (the embedded engine's tracking is
	// off); one round trip unless the fault resolves from the local frame or
	// the whole-page prefetch cache.
	ps := n.page(p)
	cl := c.acc.cell(p)
	cl.faults++
	home := c.hl.home(p)
	if home != n.ID {
		if pg := c.hpf.cache[p]; pg == nil || ps.twinned || anyOutside(ps.pending, pg.covers) {
			cl.msgs++
		}
	}
	if ps.twinned && ps.hasUndiffed {
		// A diff-era twin survived into the home regime (its interval closed
		// lazily, later writes kept folding in). Commit it and flush the
		// diff home ahead of the page request — per-pair FIFO then puts these
		// writes in the reply's copy instead of under it.
		id := ps.undiffed
		cost := n.makeOwnDiff(p)
		if home == n.ID {
			n.CPU.Service(cost, sim.CatDSM)
		} else {
			d, ok := n.storedDiff(id, p)
			if !ok {
				n.pageInvariantf(p, "page %d lost its own diff for %v", p, id)
			}
			cost += n.C.MsgSend
			done := n.CPU.Service(cost, sim.CatDSM)
			n.sendAfter(done, c.hl.flushMsg(home, &msgHomeFlush{From: n.ID, ID: id, Page: p, Diff: d}))
		}
	}
	c.hl.Fault(p, onValid)
}

// hybridFault starts a fetch that combines a whole-page base request to the
// home (for the flush-era pendings in old) with diff requests for the
// post-switch pendings.
func (c *adpCoherence) hybridFault(p pagemem.PageID, old []lrc.IntervalID, onValid func()) {
	n := c.n
	ps := n.page(p)
	outcome := n.takePf(p, ps.pending)
	cl := c.acc.cell(p)
	cl.faults++
	n.bus.Emit(event.FaultRemote(n.ID, int64(p), outcome, len(ps.pending)))
	n.startFetch(p, nil, onValid).hybrid = true

	if home := c.hl.home(p); home != n.ID {
		// One base request naming only the flush-era intervals: the home's
		// applied vector reaches exCover once its in-flight flushes land, so
		// the request parks at worst briefly and can never park on an
		// interval the home will not learn of.
		cl.msgs++
		done := n.CPU.Service(n.C.FaultEntry+n.C.MsgSend, sim.CatDSM)
		n.sendAfter(done, &netsim.Message{
			Src: netsim.NodeID(n.ID), Dst: netsim.NodeID(home),
			Size:     n.C.HeaderBytes + n.C.ReqBytes + 12*len(old),
			Reliable: true, Kind: KindPageReq,
			Payload: &msgPageReq{From: n.ID, Page: p, Need: old},
		})
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
			if !f.needed[id] {
				fresh = append(fresh, id)
			}
		}
	}
	if missing {
		if len(fresh) > 0 {
			nodes, _ := groupByNode(fresh)
			c.acc.cell(p).msgs += int32(len(nodes))
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
	if f.pageData != nil && lm != nil && len(lm.Runs) > 0 {
		lm.Apply(n.Store.Frame(p))
	}
	ps.pending = ps.pending[:0]
	n.finishFetch(f, n.CPU.Service(cost, sim.CatDSM))
}

// AfterClose counts the interval's writes and flushes home-mode pages; diff-
// mode pages stay lazy (their twins are kept, diffs made on demand).
func (c *adpCoherence) AfterClose(iv *lrc.Interval) {
	n := c.n
	var cost sim.Time
	for _, p := range iv.Pages {
		cl := c.acc.cell(p)
		cl.writes++
		if c.homeMode(p) {
			if c.hl.home(p) != n.ID {
				// Size the flush before flushPage drops the twin, so the
				// decide rule can compare flush volume against page-sized
				// replies (self-home flushes move nothing).
				if d := pagemem.MakeDiff(p, n.Store.Twin(p), n.Store.Frame(p)); d != nil {
					cl.bytes += int64(d.DataBytes())
				}
			}
			cost = c.hl.flushPage(iv.ID, p, cost)
		}
	}
	if cost > 0 {
		n.CPU.Service(cost, sim.CatDSM)
	}
}

// Handle dispatches both engines' message kinds, routing replies that belong
// to a transition fetch (hybrid or fill) to the adaptive completion logic.
func (c *adpCoherence) Handle(m *netsim.Message) bool {
	n := c.n
	switch pl := m.Payload.(type) {
	case *msgHomeFlush:
		c.hl.handleHomeFlush(pl)
		if f := n.fetches[pl.Page]; f != nil && f.hybrid {
			c.tryCompleteHybrid(pl.Page)
		}
	case *msgPageReq:
		// Serving a hybrid base for an evicted page: commit any open local
		// writes first (interval split), so the served frame holds only
		// closed-interval data. Diffs are byte-granular, so a diff applied
		// onto a base that already holds part of a newer interval of the
		// same words would leave merged values behind.
		if !c.homeMode(pl.Page) {
			if ps := n.page(pl.Page); ps.twinned {
				n.CPU.Service(n.makeOwnDiff(pl.Page), sim.CatDSM)
			}
		}
		c.hl.handlePageReq(pl)
	case *msgPageReply:
		if f := n.fetches[pl.Page]; f != nil && f.hybrid && !pl.Prefetch {
			f.pageData = append([]byte(nil), pl.Data...)
			c.tryCompleteHybrid(pl.Page)
			return true
		}
		c.hl.handlePageReply(pl)
	case *msgDiffReq:
		c.lc.handleDiffReq(pl)
	case *msgDiffReply:
		c.handleDiffReply(pl)
	case *msgEagerNotice:
		c.lc.handleEagerNotice(pl)
	case *msgHomeXfer:
		n.pageInvariantf(pl.Page, "node %d got a home transfer under adp (homes are static)", n.ID)
	default:
		return false
	}
	return true
}

// handleDiffReply routes an arriving diff reply. Replies feeding a hybrid
// fetch or a fill complete through the adaptive logic; a stale prefetch
// reply racing a home-mode whole-page fetch is banked (stored, inflight
// decremented) without touching that fetch's bookkeeping, whose needs are
// interval coverage, not diffs.
func (c *adpCoherence) handleDiffReply(rep *msgDiffReply) {
	n := c.n
	// Gather volume is counted here, at the receiver: a node cannot pass the
	// next barrier until its demand fetches complete, so receiver-side counts
	// land in the episode that caused them. (Counting at the server loses the
	// requests it serves after its own arrival drained its counters.)
	cl := c.acc.cell(rep.Page)
	for _, it := range rep.Items {
		if it.Diff != nil {
			cl.bytes += int64(it.Diff.DataBytes())
		}
	}
	f := n.fetches[rep.Page]
	if f != nil && (f.hybrid || f.fill) {
		for _, it := range rep.Items {
			n.putDiff(it.ID, rep.Page, it.Diff, rep.Prefetch)
		}
		if pfst, ok := n.pf[rep.Page]; ok && rep.Prefetch && pfst.inflight > 0 {
			pfst.inflight--
		}
		for _, it := range rep.Items {
			delete(f.needed, it.ID)
		}
		if f.fill {
			c.tryCompleteFill(rep.Page)
		} else {
			c.tryCompleteHybrid(rep.Page)
		}
		return
	}
	if f != nil && c.homeMode(rep.Page) {
		for _, it := range rep.Items {
			n.putDiff(it.ID, rep.Page, it.Diff, rep.Prefetch)
		}
		if pfst, ok := n.pf[rep.Page]; ok && rep.Prefetch && pfst.inflight > 0 {
			pfst.inflight--
		}
		return
	}
	c.lc.handleDiffReply(rep)
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
	if hl.xin[p] != nil {
		n.pageInvariantf(p, "mode switch to home for page %d with a fill already pending", p)
	}
	ps := n.page(p)
	if len(ps.pending) == 0 {
		// The frame is already current: nothing to collect.
		hl.applied[p] = switchVC.Clone()
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
	hl.xin[p] = &xferIn{fill: true}
	f := n.startFetch(p, want)
	f.fill, f.fillVC, f.fillEx = true, switchVC.Clone(), prevEx
	if len(want) > 0 {
		c.lc.issueDiffRequests(f, want, 0)
		return 0
	}
	c.tryCompleteFill(p)
	return 0
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
	if st := hl.xin[p]; st != nil {
		buf := st.buf
		delete(hl.xin, p)
		for _, fl := range buf {
			hl.handleHomeFlush(fl)
		}
	}
	hl.serveParked(p)
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

// episodeAcc drains this node's per-page counters for a barrier arrival.
func (c *adpCoherence) episodeAcc() []PageAcc { return c.acc.drain(c.n.ID) }

// decideMoves picks this episode's mode switches at the barrier root.
//
//   - diff -> home when the page was purely consumed this episode (no
//     writers), took enough faults to matter (adpMinFaults — under
//     prefetching a single reader's demand fault and its issued prefetch
//     both count as gathers, so 3 excludes single-reader pages), and its
//     gathers pulled near-page volume (bytes >= faults*PageSize/adpPageFrac):
//     the home collapses those page-sized gathers into one eager-applied
//     transfer (the FFT/LU transpose pattern). Pages that ever had two or
//     more writers in an episode (everMulti) never enter: their writers
//     would each pay a flush round trip through the home every episode, the
//     regime hlrc loses on for OCEAN/WATER.
//   - home -> diff when the page turns out to be multi-writer after all
//     (wc >= 2), or when it has a single writer that is not the home and its
//     flushes move far less than page-sized replies: readers would fetch
//     those byte-sized diffs straight from the writer, but through the home
//     they pay a page-sized reply plus the flush detour (the SOR boundary-
//     page pattern). An evicted page is burned — it never re-enters, so a
//     wrong entry costs one episode and evictions cannot oscillate.
func (c *adpCoherence) decideMoves(acc []PageAcc) []HomeMove {
	c.episode++
	agg := aggregateAcc(c.n.N, acc)
	var moves []HomeMove
	for i := range agg {
		t := &agg[i]
		wc, sole := t.writers()
		if wc >= 2 {
			c.everMulti[t.page] = true
		}
		writes, faults, _, bytes := t.total()
		if c.homeMode(t.page) {
			smallDiffs := wc == 1 && sole != int(t.page)%c.n.N &&
				bytes < writes*pagemem.PageSize/adpPageFrac
			if wc >= 2 || smallDiffs {
				moves = append(moves, HomeMove{Page: t.page, Mode: ModeDiff})
				c.lastSwitch[t.page] = c.episode
				c.burned[t.page] = true
			}
			continue
		}
		// Hysteresis applies only to entering home mode: a page that never
		// switched cannot ping-pong, short apps need the first decision at
		// the first barrier, and an eviction must be allowed at the very
		// next decide so a wrong entry costs one episode.
		if last, ok := c.lastSwitch[t.page]; ok && c.episode-last < adpHold {
			continue
		}
		if c.burned[t.page] || c.everMulti[t.page] {
			continue
		}
		// wc == 0 restricts the switch to pages that were purely consumed
		// this episode — the settled producer/consumer signature (FFT/LU:
		// written in an earlier phase, now gathered by many readers). Pages
		// still being written each episode (SOR boundary rows, the WATER
		// molecular arrays, OCEAN stencil borders) stay diff-based.
		if wc == 0 && faults >= adpMinFaults &&
			bytes >= faults*pagemem.PageSize/adpPageFrac {
			moves = append(moves, HomeMove{Page: t.page, Mode: ModeHome})
			c.lastSwitch[t.page] = c.episode
		}
	}
	return moves
}

// applyMoves flips the mode map in lockstep on every node at release intake.
// The merged release VC (identical on every node at this point) timestamps
// the switch: it becomes the fill's coverage target on a diff -> home switch
// and the page's exCover on a home -> diff switch.
func (c *adpCoherence) applyMoves(moves []HomeMove) {
	n := c.n
	var cost sim.Time
	for _, mv := range moves {
		p := mv.Page
		switch mv.Mode {
		case ModeHome:
			if c.homeMode(p) {
				n.pageInvariantf(p, "page %d switched to home mode twice", p)
			}
			c.mode[p] = ModeHome
			prevEx := c.exCover[p]
			delete(c.exCover, p)
			cost += n.C.IntervalOp
			n.bus.Emit(event.ModeSwitch(n.ID, int64(p), true))
			if ps := n.page(p); ps.twinned {
				// A diff-era twin survived into the switch (its interval
				// closed lazily, keeping the twin for on-demand diffing).
				// Commit it now: home-mode closes only flush pages their
				// interval names, so a later write folding into this twin
				// would never publish a notice or flush again and readers
				// would keep stale copies for the rest of the tenure. All
				// intervals are closed at this point (applyMoves runs
				// between release intake and thread resume), so the twin
				// belongs to the undiffed closed interval exactly.
				cost += n.makeOwnDiff(p)
			}
			if c.hl.home(p) == n.ID {
				cost += c.startFill(p, n.vc.Clone(), prevEx)
			}
		case ModeDiff:
			if !c.homeMode(p) {
				n.pageInvariantf(p, "page %d switched to diff mode while not home-based", p)
			}
			delete(c.mode, p)
			c.exCover[p] = n.vc.Clone()
			cost += n.C.IntervalOp
			n.bus.Emit(event.ModeSwitch(n.ID, int64(p), false))
			// Whole-page prefetch snapshots predate the switch; the home
			// keeps its applied vector to serve flush-era base requests.
			c.hpf.drop(p)
		default:
			n.invariantf("adp got a home move for page %d (homes are static)", p)
		}
	}
	if cost > 0 {
		n.CPU.Service(cost, sim.CatDSM)
	}
}

// filterNotice suppresses the invalidation for a notice whose flush the home
// has already applied: the data is in this frame. Only home-mode pages homed
// here qualify, and never while a fill is collecting (the frame is not yet
// the authoritative copy).
func (c *adpCoherence) filterNotice(p pagemem.PageID, id lrc.IntervalID) bool {
	if !c.homeMode(p) || c.hl.home(p) != c.n.ID || c.hl.xin[p] != nil {
		return false
	}
	return c.hl.covered(p, id)
}

// adpPrefetcher dispatches prefetches to the engine matching the page's
// mode: whole-page prefetches from the home in home mode, diff prefetches
// from the writers in diff mode.
type adpPrefetcher struct {
	c   *adpCoherence
	hpf *hlrcPrefetcher
	lpf *lrcPrefetcher
}

func (pf *adpPrefetcher) Prefetch(p pagemem.PageID) int {
	c := pf.c
	if c.homeMode(p) {
		sent := pf.hpf.Prefetch(p)
		if sent > 0 {
			cl := c.acc.cell(p)
			cl.faults++
			cl.msgs += int32(sent)
		}
		return sent
	}
	if len(c.preSwitch(p)) > 0 {
		// Flush-era pendings have no writer-held diffs; a diff prefetch
		// would ask the writers for diffs they dropped at flush time. The
		// demand fault resolves these through the hybrid path instead.
		n := c.n
		n.bus.Emit(event.PfCall(n.ID, int64(p)))
		return n.dropPrefetch(event.PfUnnecessary(n.ID, int64(p)))
	}
	// An issued prefetch is a remote gather like a fault: count it, so the
	// diff->home rule sees multi-writer collection even when prefetching
	// hides the faults themselves.
	sent := pf.lpf.Prefetch(p)
	if sent > 0 {
		cl := c.acc.cell(p)
		cl.faults++
		cl.msgs += int32(sent)
	}
	return sent
}
