package proto

import (
	"godsm/internal/event"
	"godsm/internal/pagemem"
	"godsm/internal/sim"
)

// The adaptive backend's decide rule: the barrier root picks mode switches
// from the episode's aggregated access counters, and every node applies
// them in lockstep at release intake (see adp.go for the overview).

// Decision thresholds (decideMoves).
const (
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
//     page pattern). An eviction can follow at the very next decide, so a
//     wrong entry costs one episode, and the evicted page is burned — it
//     never re-enters, so switches cannot oscillate and a page's home tenure
//     is its only one (applyMoves checks it).
func (c *adpCoherence) decideMoves(acc []PageAcc) []HomeMove {
	agg := aggregateAcc(c.n.N, acc)
	var moves []HomeMove
	for i := range agg {
		t := &agg[i]
		wc, sole := t.writers()
		if wc >= 2 {
			c.everMulti[t.page] = true
		}
		writes, faults := t.total()
		if c.homeMode(t.page) {
			smallDiffs := wc == 1 && sole != int(t.page)%c.n.N &&
				t.bytes < writes*pagemem.PageSize/adpPageFrac
			if wc >= 2 || smallDiffs {
				moves = append(moves, HomeMove{Page: t.page, Mode: ModeDiff})
				c.burned[t.page] = true
			}
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
			t.bytes >= faults*pagemem.PageSize/adpPageFrac {
			moves = append(moves, HomeMove{Page: t.page, Mode: ModeHome})
		}
	}
	return moves
}

// applyMoves flips the mode map in lockstep on every node at release intake.
// The merged release VC (identical on every node at this point) timestamps
// the switch: it becomes the fill's coverage target on a diff -> home switch
// and the page's exCover on a home -> diff switch. One tenure per page is
// checked here: a page that has an exCover has been home-based before.
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
			if c.exCover[p] != nil {
				n.pageInvariantf(p, "page %d, evicted from home mode at %v, switched to home mode again", p, c.exCover[p])
			}
			c.mode[p] = ModeHome
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
				c.startFill(p, n.vc.Clone())
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
			c.hl.takePfPage(p)
		default:
			n.invariantf("adp got a home move for page %d (homes are static)", p)
		}
	}
	if cost > 0 {
		n.CPU.Service(cost, sim.CatDSM)
	}
}
