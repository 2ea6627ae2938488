package proto

import (
	"slices"
	"sort"

	"godsm/internal/event"
	"godsm/internal/lrc"
	"godsm/internal/pagemem"
	"godsm/internal/sim"
)

// Interval records and write-notice intake: the vector-time machinery every
// backend shares. Intervals close at release points; records propagate
// piggybacked on synchronization messages (and eagerly under ERC); intake
// invalidates the named pages and maintains the contiguity invariant.
//
// The records themselves live in the machine's one interval log, which each
// creator appends to as it closes an interval. A node holds a prefix of each
// creator's records — the held watermark — plus the few records it took
// ahead of a gap (early), and reads them through rec, which masks what it
// does not hold (DESIGN.md §4, "Interval records").

// closeInterval ends the current open interval, publishing write notices
// for every page twinned during it, then hands the new record to the
// coherence policy's AfterClose hook (ERC broadcasts notices there, HLRC
// flushes diffs home). Returns the new interval record, or nil if the
// interval was empty (no pages twinned).
func (n *Node) closeInterval() *lrc.Interval {
	if len(n.pendingNotices) == 0 {
		return nil
	}
	pages := append([]pagemem.PageID(nil), n.pendingNotices...)
	sort.Slice(pages, func(i, j int) bool { return pages[i] < pages[j] })
	n.pendingNotices = n.pendingNotices[:0]

	n.vc[n.ID]++
	iv := lrc.NewInterval(lrc.IntervalID{Node: n.ID, Seq: n.vc[n.ID]}, n.vc.Clone(), pages)
	n.bus.Emit(event.IntervalClose(n.ID, iv.ID.Seq, len(iv.Pages)))
	n.log[n.ID] = append(n.log[n.ID], iv)
	n.held[n.ID] = iv.ID.Seq
	n.ownSinceBarrier = append(n.ownSinceBarrier, iv)
	for _, p := range pages {
		ps := n.page(p)
		if ps.hasUndiffed {
			n.pageInvariantf(p, "page %d already has an undiffed notice", p)
		}
		ps.undiffed = iv.ID
		ps.hasUndiffed = true
	}
	n.CPU.Service(n.C.IntervalOp, sim.CatDSM)
	n.coh.AfterClose(iv)
	return iv
}

// record takes in a received interval record. It returns the CPU cost to
// charge and whether the record's pages are to be invalidated now, which the
// caller does, so that an intake sizes each page's pending list once per
// batch. Duplicate records are ignored, except that a record taken in
// deferred earlier is invalidated now; one taken in deferred is not.
//
// The barrier manager takes arrival intervals in deferred: acting as a
// server, it must be able to forward the records at release, but its own
// memory view must not change until it passes the barrier itself —
// otherwise diffs applied mid-critical-section would not be covered by its
// next interval's vector time, and third-party readers would order
// dependent writes backwards. flushDeferred performs the postponed
// invalidations.
func (n *Node) record(iv *lrc.Interval, deferred bool) (sim.Time, bool) {
	if iv.ID.Node == n.ID {
		return 0, false // our own intervals are always already recorded
	}
	cost := n.C.NoticeProc * sim.Time(1+len(iv.Pages))
	if n.holds(iv.ID) {
		// Already recorded, through a sync path or deferred.
		if !deferred && n.deferredSet.remove(iv.ID) {
			return cost, true
		}
		return 0, false
	}
	n.hold(iv.ID)
	n.bus.Emit(event.NoticeIn(n.ID, iv.ID.Node, iv.ID.Seq, len(iv.Pages)))
	if deferred {
		n.deferredSet.add(iv.ID)
		return cost, false
	}
	return cost, true
}

// take records iv on its own, outside any batch, and invalidates its pages
// at once; it returns the CPU cost to charge.
func (n *Node) take(iv *lrc.Interval) sim.Time {
	cost, now := n.record(iv, false)
	if now {
		n.invalidate(iv)
	}
	return cost
}

// holds reports whether this node has taken in record id: at or below the
// held watermark, or early. Records below gcBase count as held — their
// intervals are covered everywhere — though rec no longer returns them.
func (n *Node) holds(id lrc.IntervalID) bool {
	return id.Seq <= n.held[id.Node] || n.early.has(id)
}

// hold marks record id held: the watermark advances over it and over every
// early record that it makes contiguous, or, ahead of a gap, it waits in
// early until the watermark reaches it.
func (n *Node) hold(id lrc.IntervalID) {
	q := id.Node
	if id.Seq != n.held[q]+1 {
		n.early = append(n.early, id)
		return
	}
	n.held[q] = id.Seq
	for n.early.remove(lrc.IntervalID{Node: q, Seq: n.held[q] + 1}) {
		n.held[q]++
	}
}

// rec returns record (q, seq) if this node holds it, and nil otherwise. The
// log is the machine's, so the mask is what makes it this node's: nil above
// what the node took in, and nil at or below gcBase[q], whose records the
// node collected (the log keeps them for nodes that have not).
func (n *Node) rec(q int, seq int32) *lrc.Interval {
	if seq <= n.gcBase[q] || !n.holds(lrc.IntervalID{Node: q, Seq: seq}) {
		return nil
	}
	return n.log[q][seq-1]
}

// minPending is the least capacity a pending list is grown to: one
// 128-byte size class. Most lists start empty, and a page this node does
// not read keeps gaining notices, barrier after barrier, until it does.
const minPending = 8

// invalidate marks the pages of ivs pending at this node, record by record
// and page by page. The coherence policy's notice filter can prove a
// notice's data is already in the local frame (a home whose applied vector
// covers the flushed interval) and suppress the invalidation; static
// backends filter nothing. A batch counts its notices per page first and
// grows each pending list once, at the page's first notice, by the count
// and to at least minPending; the appends then fill it in the order they
// always had, which orders the asks.
func (n *Node) invalidate(ivs ...*lrc.Interval) {
	for _, iv := range ivs {
		for _, p := range iv.Pages {
			if ps := n.notice(p, iv.ID); ps != nil {
				ps.batch++ // a count that wraps only sizes the growth wrong
			}
		}
	}
	for _, iv := range ivs {
		for _, p := range iv.Pages {
			ps := n.notice(p, iv.ID)
			if ps == nil {
				continue
			}
			if ps.batch > 0 {
				ps.pending = slices.Grow(ps.pending, max(int(ps.batch), minPending-len(ps.pending)))
				ps.batch = 0
			}
			ps.pending = append(ps.pending, iv.ID)
		}
	}
}

// notice returns the state of page p if interval id's notice for it is to
// invalidate it, and nil if the notice filter suppresses it.
func (n *Node) notice(p pagemem.PageID, id lrc.IntervalID) *pageState {
	if n.nf != nil && n.nf.filterNotice(p, id) {
		return nil
	}
	return n.page(p)
}

// flushDeferred invalidates every deferred record that has not been
// invalidated through another path meanwhile: those still in deferredSet,
// which keeps them in the order they were taken.
func (n *Node) flushDeferred() {
	ivs := n.ivScratch[:0]
	for _, id := range n.deferredSet {
		ivs = append(ivs, n.rec(id.Node, id.Seq))
	}
	n.deferredSet = n.deferredSet[:0]
	n.invalidate(ivs...)
	n.ivScratch = ivs[:0]
}

// intake processes a batch of interval records plus the sender's vector
// time, as delivered by a lock grant or barrier release. It returns the
// CPU cost to charge.
func (n *Node) intake(ivs []*lrc.Interval, v lrc.VC) sim.Time {
	var cost sim.Time
	inval := n.ivScratch[:0]
	for _, iv := range ivs {
		c, now := n.record(iv, false)
		cost += c
		if now {
			inval = append(inval, iv)
		}
	}
	n.invalidate(inval...)
	n.ivScratch = inval[:0]
	n.vc.Merge(v)
	n.checkContiguity()
	return cost
}

// checkContiguity asserts the protocol invariant that the node holds a
// record for every interval its vector time covers: the held watermark is
// at or above the vector time, entry by entry.
func (n *Node) checkContiguity() {
	for q, s := range n.held {
		if s < n.vc[q] {
			n.invariantf("node %d missing record (%d,%d) under VC %v",
				n.ID, q, s+1, n.vc)
		}
	}
}

// missingIvs returns the interval records this node knows about that are
// not covered by v, excluding intervals created by `exclude` (pass -1 to
// exclude none). Used to build lock grants and barrier releases.
func (n *Node) missingIvs(v lrc.VC, exclude int) []*lrc.Interval {
	total := 0
	for q, s := range n.vc {
		if q != exclude && s > v[q] {
			total += int(s - v[q])
		}
	}
	if total == 0 {
		return nil
	}
	out := make([]*lrc.Interval, 0, total)
	for q := 0; q < n.N; q++ {
		if q == exclude {
			continue
		}
		for s := v[q]; s < n.vc[q]; s++ {
			iv := n.rec(q, s+1)
			if iv == nil {
				n.invariantf("missingIvs hit a gap at (%d,%d)", q, s+1)
			}
			out = append(out, iv)
		}
	}
	return out
}
