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
	if st := c.xin[fl.Page]; st != nil {
		// Our base is still in flight: buffer until the install replays us.
		st.buf = append(st.buf, fl)
		return
	}
	if c.home(fl.Page) != n.ID {
		if c.dyn {
			if c.away[fl.Page] {
				// Late flush for a page transferred away: relay it.
				n.post(0, n.msg(c.home(fl.Page), KindHomeFlush, fl))
				return
			}
			// The writer's release (naming us the new home) outran ours:
			// start buffering; our own release completes the picture.
			st := &xferIn{buf: []*msgHomeFlush{fl}}
			c.xin[fl.Page] = st
			return
		}
		n.pageInvariantf(fl.Page, "node %d got a home flush for page %d homed at %d",
			n.ID, fl.Page, c.home(fl.Page))
	}
	ap := c.applied[fl.Page]
	if ap == nil {
		ap = lrc.NewVC(n.N)
		c.applied[fl.Page] = ap
	}
	if fl.ID.Seq <= ap[fl.ID.Node] {
		return
	}
	ap[fl.ID.Node] = fl.ID.Seq

	// Apply to the frame only. If the home is itself collecting writes the
	// twin is NOT patched, so the home's next diff of this page will also
	// carry these bytes — harmless, because a home's diffs of its own home
	// pages never leave the node.
	var cost sim.Time
	if fl.Diff != nil && len(fl.Diff.Runs) > 0 {
		n.bus.Emit(event.DiffApply(n.ID, int64(fl.Page), fl.Diff.DataBytes()))
		fl.Diff.Apply(n.Store.Frame(fl.Page))
		cost = n.C.DiffApply + sim.Time(n.C.ApplyNs*float64(fl.Diff.DataBytes()))
	} else {
		cost = n.C.DiffApply / 2
	}
	done := n.CPU.Service(cost, sim.CatDSM)
	c.serveParked(fl.Page)
	c.completeHomeFetch(fl.Page, done)
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
		if anyUncovered(c, p, req.Need) {
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

func anyUncovered(c *hlrcCoherence, p pagemem.PageID, ids []lrc.IntervalID) bool {
	for _, id := range ids {
		if !c.covered(p, id) {
			return true
		}
	}
	return false
}

// completeHomeFetch finishes a home node's own parked fault once flush
// arrivals cover everything pending. No data moves: the frame is already
// current; only the pending list empties.
func (c *hlrcCoherence) completeHomeFetch(p pagemem.PageID, done sim.Time) {
	n := c.n
	f, ok := n.fetches[p]
	if !ok || f.hybrid || f.fill {
		// The adaptive backend's hybrid fetches and fills track needs the
		// coverage rule here would misread; adp.go owns their completion.
		return
	}
	for id := range f.needed {
		if c.covered(p, id) {
			delete(f.needed, id)
		}
	}
	if len(f.needed) > 0 {
		return
	}
	ps := n.page(p)
	fresh := false
	for _, id := range ps.pending {
		if !c.covered(p, id) {
			f.needed[id] = true
			fresh = true
		}
	}
	if fresh {
		return
	}
	ps.pending = ps.pending[:0]
	n.finishFetch(f, done)
}

// handlePageReq serves a page request at the home. Demand requests whose
// Need is not fully covered park until the flushes arrive; prefetch
// requests are answered immediately with whatever is covered now.
func (c *hlrcCoherence) handlePageReq(req *msgPageReq) {
	n := c.n
	if c.home(req.Page) != n.ID || c.xin[req.Page] != nil {
		if !c.dyn && c.xin[req.Page] == nil {
			n.pageInvariantf(req.Page, "node %d got a page request for page %d homed at %d",
				n.ID, req.Page, c.home(req.Page))
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
		if c.xin[req.Page] == nil && c.dyn && !c.away[req.Page] {
			// The requester's release (naming us the new home) outran ours,
			// as a writer's can in handleHomeFlush: open the transfer-in
			// ourselves; our own release completes the picture.
			c.xin[req.Page] = &xferIn{}
		}
		if c.xin[req.Page] != nil {
			// Demand request from a node whose release named us the home:
			// park until the base installs.
			c.parked[req.Page] = append(c.parked[req.Page], req)
			return
		}
		n.pageInvariantf(req.Page, "node %d got a demand page request for page %d homed at %d",
			n.ID, req.Page, c.home(req.Page))
	}
	if req.Prefetch {
		var covers []lrc.IntervalID
		for _, id := range req.Need {
			if c.covered(req.Page, id) {
				covers = append(covers, id)
			}
		}
		c.replyPage(req, covers)
		return
	}
	if anyUncovered(c, req.Page, req.Need) {
		c.parked[req.Page] = append(c.parked[req.Page], req)
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
