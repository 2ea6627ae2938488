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
// enter home mode), and the transitions, where the two regimes meet, lean on
// it. Both are the chassis fetch (node.go's fetch; DESIGN.md §4, "Fetch")
// with adp's split, onBase (adpfetch.go):
//
//   - diff -> home: intervals closed before the switch left their diffs at
//     the writers, and none was ever flushed. The home runs a "fill", a
//     fetch with every pending on the diff side over its own frame, whose
//     install declares the frame current through the switch VC (settle).
//     Flushes arriving meanwhile are buffered (xferIn.fill) and replayed
//     after the install, and remote demand requests park at the home.
//   - home -> diff: intervals closed before the switch were flushed to the
//     home and dropped at the writers — no diff exists for them anywhere.
//     Every node snapshots the switch VC (exCover); a later fault whose
//     pending list holds such flush-era intervals is a "hybrid": those are
//     on the base side, served by the home (whose applied vector covers
//     everything at or below exCover, and survives the switch), and the
//     post-switch intervals are diffs applied on top. The barrier cut
//     guarantees every post-switch interval is causally after every
//     pre-switch one, so base-then-diffs is a causal order.
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

// straddles reports whether some pending interval of p closed at or before
// the page's home -> diff switch: its diff was flushed to the home and
// dropped at the writer, so only the home's frame can resolve it.
func (c *adpCoherence) straddles(p pagemem.PageID) bool {
	for _, id := range c.n.page(p).pending {
		if c.flushEra(p, id) {
			return true
		}
	}
	return false
}

// flushEra reports whether interval id is at or below p's exCover.
func (c *adpCoherence) flushEra(p pagemem.PageID, id lrc.IntervalID) bool {
	ex := c.exCover[p]
	return ex != nil && id.Seq <= ex[id.Node]
}

// Fault resolves an access to an invalid page under the page's current mode.
func (c *adpCoherence) Fault(p pagemem.PageID, onValid func()) {
	n := c.n
	if !c.homeMode(p) {
		if c.straddles(p) {
			c.hybridFault(p, onValid)
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
			// Count the flush's volume, so the decide rule can compare it
			// against page-sized replies (self-home flushes move nothing).
			var flushed int
			cost, flushed = c.hl.flushPage(iv.ID, p, cost)
			cl.bytes += int64(flushed)
		}
	}
	if cost > 0 {
		n.CPU.Service(cost, sim.CatDSM)
	}
}

// Handle dispatches both engines' message kinds, after the adaptive layer's
// own steps for a few of them.
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
	case *msgDiffReply:
		// Gather volume is counted here, at the receiver: a node cannot pass
		// the next barrier until its demand fetches complete, so
		// receiver-side counts land in the episode that caused them.
		// (Counting at the server loses the requests it serves after its own
		// arrival drained its counters.)
		cl := c.acc.cell(pl.Page)
		for _, it := range pl.Items {
			if it.Diff != nil {
				cl.bytes += int64(it.Diff.DataBytes())
			}
		}
	case *msgHomeXfer:
		n.pageInvariantf(pl.Page, "node %d got a home transfer under adp (homes are static)", n.ID)
	}
	return c.hl.Handle(m) || c.lc.Handle(m)
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
	case c.straddles(p):
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
