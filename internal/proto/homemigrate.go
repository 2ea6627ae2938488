package proto

import (
	"sort"

	"godsm/internal/event"
	"godsm/internal/lrc"
	"godsm/internal/pagemem"
	"godsm/internal/sim"
)

// Home migration for the "hlrc" backend's dynamic policies. When the
// barrier root decides a page moves, every replica updates its home table
// in lockstep at release intake. The release is a cut: its merged vector
// time is the same on every node, every interval at or below it was flushed
// to the old home and every later one goes to the new. A home moves whole:
// the demoted home ships its frame (the base) only once its coverage
// reaches the cut, draining the flushes still in flight to it first
// (maybeShip), so nothing is ever relayed. The new home buffers flushes and
// parks demand requests until the base lands, installs it, and replays the
// buffer: every buffered flush is from above the cut, so none is in the base
// and none is missing from it.
//
// "In lockstep" means per node, at its own release: a message for a page a
// node is neither home of nor still draining can only come from a node
// whose release, naming this one the new home, outran this node's own, so
// the handlers open the transfer-in themselves. A demand request can never
// reach a demoted home, because moves apply at barrier releases and no
// demand fetch is in flight across a barrier (the faulting thread has not
// arrived). Prefetch requests CAN span the episode; a node whose frame is
// not the live home copy answers them with an empty cover list, which the
// requester's cache check (pending ⊆ covers) can never accept for an
// invalid page.
//
// At most one transfer per page is open. The first barrier arrival after a
// move is inside the policy's hold (migrateHold); a transfer still open at
// the one after that marks the page Busy on the arrival's PageAcc, and the
// policy leaves a busy page where it is. So a home-elect is never demoted
// before its base arrives, and a demoted home is never named home again
// while it still owes the base: both are invariants in applyMoves.

// xferIn tracks one page whose home base has not yet been installed here.
type xferIn struct {
	buf       []*msgHomeFlush // flushes buffered until the base installs
	xfer      *msgHomeXfer    // the base, when it arrives before our release
	expecting bool            // our release named us the new home
	fill      bool            // adaptive backend: base comes from a local diff fill
	waited    bool            // open across a barrier arrival already (episodeAcc)
}

// xferOut tracks one page this node was demoted from and has not shipped
// yet: flushes from at or below the cut are still in flight to it.
type xferOut struct {
	to     int
	cut    lrc.VC // the moving release's merged vector time
	waited bool   // open across a barrier arrival already (episodeAcc)
}

// The first arrival after a move needs no Busy mark only because the hold
// already pins the page there.
const _ = uint(migrateHold - 2)

// ivNames reports whether interval iv wrote page p (Pages is sorted).
func ivNames(iv *lrc.Interval, p pagemem.PageID) bool {
	i := sort.Search(len(iv.Pages), func(i int) bool { return iv.Pages[i] >= p })
	return i < len(iv.Pages) && iv.Pages[i] == p
}

// coverVC returns, per writer, the highest sequence through which every
// interval naming p is reflected in the local frame. Intervals that do not
// name p are vacuously covered, so the count runs from the applied
// high-water mark up to the first unapplied interval that names the page.
// The node's own writes go straight to its frame, so its own entry is its
// full vector-time entry.
func (c *hlrcCoherence) coverVC(p pagemem.PageID) lrc.VC {
	n := c.n
	ap := c.applied[p]
	cv := lrc.NewVC(n.N)
	for q := 0; q < n.N; q++ {
		if q == n.ID {
			cv[q] = n.vc[q]
			continue
		}
		var s int32
		if ap != nil {
			s = ap[q]
		}
		for s < n.vc[q] {
			iv := n.rec(q, s+1)
			if iv == nil || ivNames(iv, p) {
				break
			}
			s++
		}
		cv[q] = s
	}
	return cv
}

// maybeShip ships the base copy of p to its new home if the local frame
// holds every interval at or below the cut, and otherwise leaves the
// transfer open for handleHomeFlush to retry as the stragglers land. cost is
// the running CPU charge; the send drains it.
func (c *hlrcCoherence) maybeShip(p pagemem.PageID, to int, cut lrc.VC, cost sim.Time) sim.Time {
	n := c.n
	cv := c.coverVC(p)
	if !cv.Covers(cut) {
		if c.out[p] == nil {
			c.out[p] = &xferOut{to: to, cut: cut.Clone()}
		}
		return cost
	}
	delete(c.out, p)
	if n.page(p).twinned {
		// No twin at the cut (the barrier closed every interval), and none
		// since: while a flush from below the cut is outstanding its notice
		// is pending here, so this copy is invalid, and this node's faults on
		// it go to the new home, which serves nothing before the base lands.
		n.pageInvariantf(p, "node %d ships the base of page %d with writes of its own open", n.ID, p)
	}
	n.post(cost+sim.Time(n.C.DiffScanNs*float64(pagemem.PageSize)), msg(n, to, KindHomeXfer,
		msgHomeXfer{From: n.ID, Page: p, Data: append([]byte(nil), n.Store.Frame(p)...), Applied: cv}))
	return 0
}

// handleHomeXfer receives a base transfer. If our own release has not
// arrived yet the base is stashed; applyMoves completes the install.
func (c *hlrcCoherence) handleHomeXfer(x *msgHomeXfer) {
	n := c.n
	p := x.Page
	st := c.xin[p]
	if st == nil {
		st = &xferIn{}
		c.xin[p] = st
	}
	if st.xfer != nil || st.fill {
		n.pageInvariantf(p, "node %d got a second base transfer for page %d", n.ID, p)
	}
	st.xfer = x
	c.maybeInstall(p, st)
}

// maybeInstall completes a pending transfer once both the base and this
// node's own release decision are in.
func (c *hlrcCoherence) maybeInstall(p pagemem.PageID, st *xferIn) {
	if st.xfer != nil && st.expecting {
		c.installXfer(p, st)
	}
}

// installXfer installs an arrived base: snapshot any open local writes,
// overwrite the frame, replay the buffered flushes in arrival order (they
// are mutually concurrent, hence byte-disjoint under race freedom), then
// re-apply the open writes on top and refresh the twin so the eventual
// local diff captures only them.
func (c *hlrcCoherence) installXfer(p pagemem.PageID, st *xferIn) {
	n := c.n
	ps := n.page(p)
	x := st.xfer
	var lm *pagemem.Diff
	if ps.twinned {
		lm = n.Store.MakeDiff(p)
	}
	copy(n.Store.Frame(p), x.Data)
	c.applied[p] = x.Applied.Clone()
	buf := st.buf
	delete(c.xin, p)

	n.bus.Emit(event.HomeMigrate(n.ID, x.From, int64(p), pagemem.PageSize))
	done := n.CPU.Service(n.C.DiffApply+sim.Time(n.C.ApplyNs*float64(pagemem.PageSize)), sim.CatDSM)
	for _, fl := range buf {
		c.handleHomeFlush(fl)
	}
	if ps.twinned {
		copy(n.Store.Twin(p), n.Store.Frame(p))
		if !lm.Empty() {
			lm.Apply(n.Store.Frame(p))
		}
	}
	c.serveParked(p)
	n.tryComplete(p, 0, done)
}

// episodeAcc drains this node's per-page counters for a barrier arrival,
// marking Busy every page whose transfer has been open across an earlier
// arrival already.
func (c *hlrcCoherence) episodeAcc() []PageAcc {
	if !c.track {
		return nil
	}
	//dsmvet:allow mapiter — marks distinct cells; drain sorts them by page
	for p, st := range c.xin {
		c.markBusy(p, &st.waited)
	}
	//dsmvet:allow mapiter — as above
	for p, out := range c.out {
		c.markBusy(p, &out.waited)
	}
	return c.acc.drain(c.n.ID)
}

func (c *hlrcCoherence) markBusy(p pagemem.PageID, waited *bool) {
	if *waited {
		c.acc.cell(p).busy = true
	}
	*waited = true
}

// decideMoves runs the configured policy at the barrier root.
func (c *hlrcCoherence) decideMoves(acc []PageAcc) []HomeMove {
	if !c.dyn {
		return nil
	}
	return c.policy.Decide(c.homes, aggregateAcc(c.n.N, acc))
}

// applyMoves updates this node's home-table replica and starts the base
// transfer for pages this node just lost. It runs after release intake on
// every node, before threads resume, so the node's vector time is the cut.
func (c *hlrcCoherence) applyMoves(moves []HomeMove) {
	n := c.n
	var cost sim.Time
	for _, mv := range moves {
		if mv.Mode != ModeNone {
			n.invariantf("hlrc got a mode-switch move for page %d", mv.Page)
		}
		p := mv.Page
		old := c.home(p)
		nh := int(mv.Home)
		c.homes.overrides[p] = mv.Home
		cost += n.C.IntervalOp
		if nh == old {
			continue // first-touch freezing the page on its static home
		}
		if old == n.ID {
			if len(c.parked[p]) > 0 || c.xin[p] != nil {
				n.pageInvariantf(p, "node %d demoted from page %d with parked demand requests or before its base arrived", n.ID, p)
			}
			cost = c.maybeShip(p, nh, n.vc, cost)
			continue
		}
		if nh == n.ID {
			if c.out[p] != nil {
				n.pageInvariantf(p, "node %d made home of page %d while it still owes the base", n.ID, p)
			}
			delete(c.applied, p) // stale coverage from an earlier tenure
			c.takePfPage(p)      // cached copies predate the new tenure
			st := c.xin[p]
			if st == nil {
				st = &xferIn{}
				c.xin[p] = st
			}
			st.expecting = true
			c.maybeInstall(p, st)
		}
	}
	if cost > 0 {
		n.CPU.Service(cost, sim.CatDSM)
	}
}

// filterNotice implements the home-aware write-notice filter: a notice for
// a page homed here whose flush is already applied carries no new data, so
// the invalidation is suppressed. Inactive under the static policy to keep
// the fixed-home engine byte-identical.
func (c *hlrcCoherence) filterNotice(p pagemem.PageID, id lrc.IntervalID) bool {
	if !c.dyn {
		return false
	}
	if c.home(p) != c.n.ID || c.xin[p] != nil {
		return false
	}
	return c.covered(p, id)
}
