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
// A page's home tenure is its first and only: an evicted page is burned and
// never offered home mode again, so every replica sees at most diff -> home
// -> diff per page. applyMoves checks it (a page with exCover set cannot
// enter home mode), and the transition machinery, where the two regimes
// meet, leans on it:
//
//   - diff -> home: intervals closed before the switch left their diffs at
//     the writers, and none was ever flushed. The home runs a "fill": a
//     hybrid fetch (below) whose base is its own frame, so every pending is
//     fetched as a diff and applied; the install declares the frame current
//     through the switch VC (applied = fillVC). Flushes arriving during the
//     fill are buffered (xferIn.fill) and replayed after the install, and
//     remote demand requests park at the home until then.
//   - home -> diff: intervals closed before the switch were flushed to the
//     home and dropped at the writers — no diff exists for them anywhere.
//     Every node snapshots the switch VC (exCover); a later fault whose
//     pending list holds such flush-era intervals runs a "hybrid" fetch: one
//     whole-page request to the home (whose applied vector covers everything
//     at or below exCover) installed as a base, plus ordinary diff requests
//     for the post-switch intervals, applied causally on top. The barrier cut
//     guarantees every post-switch interval is causally after every
//     pre-switch one, so base-then-diffs is a causal order.
//
// The home keeps its applied vector after the home -> diff switch, so it can
// serve flush-era base requests for as long as stale pendings surface.
type adpCoherence struct {
	n  *Node
	hl *hlrcCoherence // the embedded home-based engine (static homes, no tracking)
	lc *lrcCoherence  // the embedded diff-based engine

	// mode holds ModeHome entries only; an absent page runs in diff mode.
	mode map[pagemem.PageID]uint8

	// exCover[p] is the vector time at p's home -> diff switch: an interval
	// at or below it was flushed to the home during the home tenure (or
	// covered by the fill) and has no writer-held diff.
	exCover map[pagemem.PageID]lrc.VC

	// acc collects this node's per-page counters for the episode in progress.
	acc *accSet

	// Barrier-root decision state: burned marks pages evicted from home mode because the home regime was
	// losing on them; they never re-enter (the apps are phase-regular, so one
	// bad tenure predicts the next, and the bar prevents oscillation).
	burned map[pagemem.PageID]bool
	// everMulti marks pages that have had two or more writers in some
	// episode. Such pages never enter home mode: phase-regular apps will
	// write them that way again, and a multi-writer episode under the home
	// regime pays a flush round trip per writer.
	everMulti map[pagemem.PageID]bool
}

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

func buildADP(n *Node, cfg Spec) Coherence {
	hl := newHLRC(n, cfg, staticPolicy{})
	hl.xin = make(map[pagemem.PageID]*xferIn) // fills buffer arriving flushes here
	return &adpCoherence{
		n: n, hl: hl, lc: newLRC(n, cfg, false),
		mode:      make(map[pagemem.PageID]uint8),
		exCover:   make(map[pagemem.PageID]lrc.VC),
		acc:       newAccSet(),
		burned:    make(map[pagemem.PageID]bool),
		everMulti: make(map[pagemem.PageID]bool),
	}
}

func (c *adpCoherence) homeMode(p pagemem.PageID) bool { return c.mode[p] == ModeHome }

// preSwitch returns p's pending intervals that closed at or before the
// page's home -> diff switch: their diffs were flushed to the home and
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
	if f, ok := n.fetches[p]; ok {
		f.waiters = append(f.waiters, onValid)
		return
	}

	if !c.homeMode(p) {
		if old := c.preSwitch(p); len(old) > 0 {
			c.hybridFault(p, old, onValid)
			return
		}
		c.acc.cell(p).faults++
		c.lc.Fault(p, onValid)
		return
	}

	// Home regime. Count at this layer (the embedded engine's tracking is
	// off).
	ps := n.page(p)
	c.acc.cell(p).faults++
	if ps.twinned && ps.hasUndiffed {
		// A twin with a closed, undiffed interval is diff-mode state: the
		// switch committed every such twin (applyMoves), and a home-mode close
		// flushes its pages, twin and notice gone, before it returns.
		n.pageInvariantf(p, "home-mode page %d holds a twin for the closed interval %v", p, ps.undiffed)
	}
	c.hl.Fault(p, onValid)
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
// to a hybrid fetch (a fill included) to the adaptive completion logic.
func (c *adpCoherence) Handle(m *netsim.Message) bool {
	n := c.n
	switch pl := m.Payload.(type) {
	case *msgHomeFlush:
		if !c.homeMode(pl.Page) && pl.ID.Seq > n.vc[pl.ID.Node] && c.hl.xin[pl.Page] == nil {
			// The writer's release (switching the page to home mode) outran
			// ours: this frame is not the home copy until our fill has run,
			// so buffer the flush for it. A flush-era straggler after a
			// home -> diff switch is at or below our vector time instead, and
			// still applies at once.
			c.hl.xin[pl.Page] = &xferIn{fill: true}
		}
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
	case *msgDiffReply:
		c.handleDiffReply(pl)
	case *msgHomeXfer:
		n.pageInvariantf(pl.Page, "node %d got a home transfer under adp (homes are static)", n.ID)
	default:
		return c.lc.Handle(m) // diff requests are the diff engine's alone
	}
	return true
}

// handleDiffReply routes an arriving diff reply. Replies feeding a hybrid
// fetch complete through the adaptive logic; a stale prefetch
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
	if f != nil && f.hybrid {
		n.bankDiffs(rep)
		for _, it := range rep.Items {
			f.needed.remove(it.ID)
		}
		c.tryCompleteHybrid(rep.Page)
		return
	}
	if f != nil && c.homeMode(rep.Page) {
		n.bankDiffs(rep)
		return
	}
	c.lc.handleDiffReply(rep)
}

// Prefetch dispatches to the engine matching the page's mode: a whole-page
// prefetch from the home in home mode, diff prefetches from the writers in
// diff mode. An issued prefetch is a remote gather like a fault: count it, so
// the diff -> home rule sees multi-writer collection even when prefetching
// hides the faults themselves.
func (c *adpCoherence) Prefetch(p pagemem.PageID) int {
	n := c.n
	var sent int
	switch {
	case c.homeMode(p):
		sent = c.hl.Prefetch(p)
	case len(c.preSwitch(p)) > 0:
		// Flush-era pendings have no writer-held diffs; a diff prefetch
		// would ask the writers for diffs they dropped at flush time. The
		// demand fault resolves these through the hybrid path instead.
		n.bus.Emit(event.PfCall(n.ID, int64(p)))
		return n.dropPrefetch(event.PfUnnecessary(n.ID, int64(p)))
	default:
		sent = c.lc.Prefetch(p)
	}
	if sent > 0 {
		c.acc.cell(p).faults++
	}
	return sent
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
