package proto

import (
	"godsm/internal/event"
	"godsm/internal/lrc"
	"godsm/internal/pagemem"
	"godsm/internal/sim"
)

// The home side of the "hlrc" backend: applying arriving flushes to the
// home frame, parking demand requests until their covering flushes land,
// and serving whole-page copies (see hlrc.go for the protocol overview).

// handleHomeFlush applies an arriving diff to the home frame and advances
// the applied vector, then serves whatever the new coverage unblocks.
// Duplicates (fault-injected retransmissions that slipped past the
// transport) are dropped by the sequence guard.
func (c *hlrcCoherence) handleHomeFlush(fl *msgHomeFlush) {
	n := c.n
	p := fl.Page
	if st := c.xin[p]; st != nil {
		// Our base is still in flight: buffer until the install replays us.
		st.buf = append(st.buf, fl)
		return
	}
	out := c.out[p]
	if out != nil && fl.ID.Seq > out.cut[fl.ID.Node] {
		n.pageInvariantf(p, "node %d, demoted from page %d at cut %v, got the flush of %v from above it",
			n.ID, p, out.cut, fl.ID)
	}
	if out == nil && c.home(p) != n.ID {
		if !c.dyn {
			n.pageInvariantf(p, "node %d got a home flush for page %d homed at %d", n.ID, p, c.home(p))
		}
		// Neither the home nor draining: the writer's release (naming us
		// the new home) outran ours. Start buffering; our own release
		// completes the picture.
		c.xin[p] = &xferIn{buf: []*msgHomeFlush{fl}}
		return
	}
	ap := c.applied[p]
	if ap == nil {
		ap = lrc.NewVC(n.N)
		c.applied[p] = ap
	}
	if fl.ID.Seq <= ap[fl.ID.Node] {
		return
	}
	ap[fl.ID.Node] = fl.ID.Seq

	// Apply to the frame only. If the home is itself collecting writes the
	// twin is NOT patched, so the home's next diff of this page will also
	// carry these bytes — harmless, because a home's diffs of its own home
	// pages never leave the node. (A demoted home draining the page has no
	// twin of it: see maybeShip.)
	var cost sim.Time
	if !fl.Diff.Empty() {
		n.bus.Emit(event.DiffApply(n.ID, int64(p), fl.Diff.DataBytes()))
		fl.Diff.Apply(n.Store.Frame(p))
		cost = n.C.DiffApply + sim.Time(n.C.ApplyNs*float64(fl.Diff.DataBytes()))
	} else {
		cost = n.C.DiffApply / 2
	}
	done := n.CPU.Service(cost, sim.CatDSM)
	if out != nil {
		c.maybeShip(p, out.to, out.cut, 0)
		return
	}
	c.serveParked(p)
	n.tryComplete(p, 0, done)
}

// servable reports whether the frame holds everything req asks for: the
// needed intervals and the requester's own flushed writes through req.Own.
func (c *hlrcCoherence) servable(req *msgPageReq) bool {
	if !c.covered(req.Page, lrc.IntervalID{Node: req.From, Seq: req.Own}) {
		return false
	}
	for _, id := range req.Need {
		if !c.covered(req.Page, id) {
			return false
		}
	}
	return true
}

// serveParked replies to every parked demand request the current coverage
// now satisfies.
func (c *hlrcCoherence) serveParked(p pagemem.PageID) {
	q := c.parked[p]
	if len(q) == 0 {
		return
	}
	var still []*msgPageReq
	for _, req := range q {
		if !c.servable(req) {
			still = append(still, req)
			continue
		}
		c.replyPage(req, req.Need)
	}
	if len(still) == 0 {
		delete(c.parked, p)
	} else {
		c.parked[p] = still
	}
}

// handlePageReq serves a page request at the home. Demand requests park
// until the frame covers their Need and the requester's own flushed writes;
// prefetch requests are answered immediately with whatever is covered now.
func (c *hlrcCoherence) handlePageReq(req *msgPageReq) {
	n := c.n
	p := req.Page
	if c.home(p) != n.ID || c.xin[p] != nil {
		// Static homes never move, and no demand fetch spans the barrier
		// that demoted a home still draining.
		if c.home(p) != n.ID && (!c.dyn || !req.Prefetch && c.out[p] != nil) {
			n.pageInvariantf(p, "node %d got a page request for page %d homed at %d", n.ID, p, c.home(p))
		}
		if req.Prefetch {
			// An in-flight prefetch can target a stale home (or a home-elect
			// whose base has not landed). This frame is not the live home
			// copy, so claim nothing: the requester's cache check
			// (pending ⊆ covers) can never accept the entry for an invalid
			// page, which keeps stale data from regressing a newer frame.
			c.replyPage(req, nil)
			return
		}
		if c.xin[p] == nil {
			// Neither the home nor draining: the requester's release
			// (naming us the new home) outran ours, as a writer's can in
			// handleHomeFlush. Open the transfer-in ourselves.
			c.xin[p] = &xferIn{}
		}
		// Park until the base installs.
		c.parked[p] = append(c.parked[p], req)
		return
	}
	if req.Prefetch {
		// A prefetch request is a datagram: it does not queue behind the
		// requester's retransmitted flush, so a copy that lacks the
		// requester's own writes is one more copy that claims nothing.
		var covers []lrc.IntervalID
		if c.covered(p, lrc.IntervalID{Node: req.From, Seq: req.Own}) {
			for _, id := range req.Need {
				if c.covered(p, id) {
					covers = append(covers, id)
				}
			}
		}
		c.replyPage(req, covers)
		return
	}
	if !c.servable(req) {
		c.parked[p] = append(c.parked[p], req)
		return
	}
	c.replyPage(req, req.Need)
}

// replyPage snapshots the home frame and ships it to the requester. The
// snapshot copy is charged like a page-length scan; a prefetch's reply is a
// datagram like its request.
func (c *hlrcCoherence) replyPage(req *msgPageReq, covers []lrc.IntervalID) {
	n := c.n
	data := append([]byte(nil), n.Store.Frame(req.Page)...)
	kind := KindPageReply
	if req.Prefetch {
		kind = KindPfReply
	}
	n.post(sim.Time(n.C.DiffScanNs*float64(pagemem.PageSize)), n.msg(req.From, kind,
		&msgPageReply{Page: req.Page, Data: data, Covers: covers, Prefetch: req.Prefetch}))
}
