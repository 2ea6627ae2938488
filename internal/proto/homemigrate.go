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
// in lockstep at release intake; the demoted home then ships its frame (the
// base) plus the applied vector to the new home, and keeps forwarding any
// late flushes that still arrive addressed to it. The new home buffers
// flushes and parks demand requests until the base lands, installs it, and
// replays the buffer — the per-writer sequence guard in handleHomeFlush
// makes the replay idempotent against anything the base already covered.
//
// Ordering argument: a demand request can never reach a demoted home,
// because moves apply at barrier releases and no demand fetch is in flight
// across a barrier (the faulting thread has not arrived). Prefetch requests
// CAN span the episode; a node whose frame is not the live home copy
// answers them with an empty cover list, which the requester's cache check
// (pending ⊆ covers) can never accept for an invalid page.
//
// Back-to-back episodes can demote a home-elect before its base arrives
// (the release outruns the transfer). The install then degenerates to a
// forward: the intermediate node relays the base and its buffered flushes
// to the next home over one FIFO pair, preserving their order.

// xferIn tracks one page whose home base has not yet been installed here.
type xferIn struct {
	buf       []*msgHomeFlush // flushes buffered until the base installs
	xfer      *msgHomeXfer    // the base, when it arrives before our release
	expecting bool            // our release named us the new home
	forward   bool            // demoted again before install: relay instead
	fill      bool            // adaptive backend: base comes from a local diff fill
}

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
			iv := n.ivs[q][s]
			if iv == nil || ivNames(iv, p) {
				break
			}
			s++
		}
		cv[q] = s
	}
	return cv
}

// sendXfer ships the base copy of p to its new home, freezing this node's
// serving state. cost is the running CPU charge; the send drains it.
func (c *hlrcCoherence) sendXfer(p pagemem.PageID, to int, cost sim.Time) sim.Time {
	n := c.n
	c.away[p] = true
	data := append([]byte(nil), n.Store.Frame(p)...)
	n.post(cost+sim.Time(n.C.DiffScanNs*float64(pagemem.PageSize)), n.msg(to, KindHomeXfer,
		&msgHomeXfer{From: n.ID, Page: p, Data: data, Applied: c.coverVC(p)}))
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
	if st.xfer == nil {
		return
	}
	if st.forward {
		c.forwardXfer(p, st)
		return
	}
	if !st.expecting {
		return
	}
	c.installXfer(p, st)
}

// forwardXfer relays a base (and the flushes buffered behind it) to the
// page's next home: this node was demoted again before its install. One
// FIFO pair keeps base-before-flushes ordering at the receiver.
func (c *hlrcCoherence) forwardXfer(p pagemem.PageID, st *xferIn) {
	n := c.n
	to := c.home(p)
	buf := st.buf
	x := st.xfer
	delete(c.xin, p)
	c.away[p] = true
	n.post(0, n.msg(to, KindHomeXfer, x))
	for _, fl := range buf {
		n.post(0, n.msg(to, KindHomeFlush, fl))
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
		lm = pagemem.MakeDiff(p, n.Store.Twin(p), n.Store.Frame(p))
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
		if lm != nil && len(lm.Runs) > 0 {
			lm.Apply(n.Store.Frame(p))
		}
	}
	c.serveParked(p)
	c.completeHomeFetch(p, done)
}

// episodeAcc drains this node's per-page counters for a barrier arrival.
func (c *hlrcCoherence) episodeAcc() []PageAcc {
	if !c.track {
		return nil
	}
	return c.acc.drain(c.n.ID)
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
// every node, before threads resume.
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
			if len(c.parked[p]) > 0 {
				n.pageInvariantf(p, "node %d demoted from page %d with parked demand requests", n.ID, p)
			}
			if st := c.xin[p]; st != nil {
				// Demoted before our own base arrived: relay it when it lands.
				st.forward = true
				st.expecting = false
				c.maybeInstall(p, st)
				continue
			}
			cost = c.sendXfer(p, nh, cost)
			continue
		}
		if nh == n.ID {
			delete(c.away, p)
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
