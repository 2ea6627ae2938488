package proto

import (
	"slices"

	"godsm/internal/event"
	"godsm/internal/lrc"
	"godsm/internal/pagemem"
	"godsm/internal/sim"
)

// Interval records and write-notice intake: the vector-time machinery every
// backend shares. Intervals close at release points; records propagate
// piggybacked on synchronization messages (intake) and out of band — ERC's
// eager notices and gossip pushes — through one causally closed rule (offer,
// drain). Intake invalidates the named pages and maintains the contiguity
// invariant.
//
// The records themselves live in the machine's one interval log, which each
// creator appends to as it closes an interval. A node holds a prefix of each
// creator's records — the held watermark — and reads them through rec, which
// masks what it does not hold (DESIGN.md §4, "Interval records").

// closeInterval ends the current open interval, publishing write notices
// for every page twinned during it, then hands the new record to the
// coherence policy's AfterClose hook (ERC broadcasts notices there, HLRC
// flushes diffs home). Returns the new interval record, or nil if the
// interval was empty (no pages twinned).
func (n *Node) closeInterval() *lrc.Interval {
	if len(n.pendingNotices) == 0 {
		return nil
	}
	slices.Sort(n.pendingNotices)
	n.vc[n.ID]++
	iv := n.wires.records.New(lrc.IntervalID{Node: n.ID, Seq: n.vc[n.ID]}, n.vc, n.pendingNotices)
	n.pendingNotices = n.pendingNotices[:0]
	n.bus.Emit(event.IntervalClose(n.ID, iv.ID.Seq, len(iv.Pages)))
	n.log[n.ID] = append(n.log[n.ID], iv)
	n.held[n.ID] = iv.ID.Seq
	for _, p := range iv.Pages {
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

// holds reports whether this node has taken in record id: at or below the
// held watermark. Records below gcBase count as held — their intervals are
// covered everywhere — though rec no longer returns them.
func (n *Node) holds(id lrc.IntervalID) bool {
	return id.Seq <= n.held[id.Node]
}

// hold steps the watermark over record id. Every path takes a creator's
// records in order — a grant or release carries them from the receiver's
// vector time upward, a barrier arrival from the last release upward, and
// drain only once the vector time covers the creator's previous interval —
// so a record ahead of a gap is a protocol error.
func (n *Node) hold(id lrc.IntervalID) {
	if id.Seq != n.held[id.Node]+1 {
		n.invariantf("node %d took record (%d,%d) ahead of a gap: it holds %d's records through %d",
			n.ID, id.Node, id.Seq, id.Node, n.held[id.Node])
	}
	n.held[id.Node] = id.Seq
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

// minPending is the least capacity a pending list is carved with. Most
// lists start empty, and a page this node does not read keeps gaining
// notices, barrier after barrier, until it does.
const minPending = 8

// idChunk is the size, in ids (8 KB), of the chunks carve cuts lists from.
const idChunk = 512

// carve returns an empty id list of capacity k cut from the node's id
// arena, which allocates a chunk of idChunk ids (or k, if more) when the
// current one runs out. The list's capacity ends at k, so an append past it
// reallocates rather than write into the list carved next. A list that
// moves leaves its slot in the chunk; the chunk holds no pointers, so the
// collector does not scan it.
func (n *Node) carve(k int) []lrc.IntervalID {
	if cap(n.idArena)-len(n.idArena) < k {
		n.idArena = make([]lrc.IntervalID, 0, max(k, idChunk))
	}
	l := len(n.idArena)
	n.idArena = n.idArena[:l+k]
	return n.idArena[l : l : l+k]
}

// invalidate marks the pages of ivs pending at this node, record by record
// and page by page. The coherence policy's notice filter can prove a
// notice's data is already in the local frame (a home whose applied vector
// covers the flushed interval) and suppress the invalidation; static
// backends filter nothing. A batch counts its notices per page first and,
// at the page's first notice, moves a pending list too short for the count
// to one carved with room for it, at least minPending and twice the old
// capacity; the appends then fill it in the order they always had, which
// orders the asks. Each notice is looked up and filtered once: the first
// pass keeps its page state, nil where filtered, in the machine's notice
// scratch (WirePool), and the second walks it in the same order.
func (n *Node) invalidate(ivs ...*lrc.Interval) {
	pss := n.wires.notices[:0]
	for _, iv := range ivs {
		for _, p := range iv.Pages {
			ps := n.notice(p, iv.ID)
			if ps != nil {
				ps.batch++ // a count that wraps only sizes the growth wrong
			}
			pss = append(pss, ps)
		}
	}
	n.wires.notices = pss[:0]
	for _, iv := range ivs {
		for _, ps := range pss[:len(iv.Pages)] {
			if ps == nil {
				continue
			}
			if l, c := len(ps.pending), cap(ps.pending); c-l < int(ps.batch) {
				ps.pending = append(n.carve(max(l+int(ps.batch), minPending, 2*c)), ps.pending...)
			}
			ps.batch = 0
			ps.pending = append(ps.pending, iv.ID)
		}
		pss = pss[len(iv.Pages):]
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

// offer hands the node a record that arrived outside a lock grant or
// barrier release — an eager notice or a gossip push — and reports whether
// it is new here: not the node's own, not covered by its vector time, and
// neither held nor offered already. A new record waits on the offered list
// until drain takes it.
func (n *Node) offer(iv *lrc.Interval) bool {
	id := iv.ID
	if id.Node == n.ID || id.Seq <= n.vc[id.Node] || n.holds(id) ||
		slices.ContainsFunc(n.offered, func(o *lrc.Interval) bool { return o.ID == id }) {
		return false
	}
	n.offered = append(n.offered, iv)
	return true
}

// drain takes every offered record that is causally closed: this node's
// vector time covers the creator's previous interval and every third-party
// interval the record was created after. Taking a record invalidates its
// pages and advances the creator's vector entry to it in one step, so the
// node never holds an invalidation whose causal predecessors it does not
// know — a fault in that state would apply the newer diff alone and let the
// older one overwrite it later — and never claims an interval it has not
// invalidated. Each take can close others, so drain repeats to a fixed
// point. Records a lock grant or barrier release delivered meanwhile are
// dropped. Returns the CPU cost to charge.
func (n *Node) drain() sim.Time {
	var cost sim.Time
	for progress := true; progress; {
		progress = false
		keep := n.offered[:0]
		for _, iv := range n.offered {
			q := iv.ID.Node
			switch {
			case iv.ID.Seq <= n.vc[q]:
			case n.closed(iv):
				c, now := n.record(iv, false)
				if now {
					n.invalidate(iv)
				}
				cost += c
				n.vc[q] = iv.ID.Seq
				progress = true
			default:
				keep = append(keep, iv)
			}
		}
		n.offered = keep
	}
	return cost
}

// closed reports whether this node's vector time covers everything iv was
// created after: the creator's previous interval and every other node's
// intervals in iv's vector time (its own entry aside — a node knows its own).
func (n *Node) closed(iv *lrc.Interval) bool {
	for x, s := range iv.VC {
		if x == iv.ID.Node {
			s-- // the creator's previous interval
		}
		if x != n.ID && s > n.vc[x] {
			return false
		}
	}
	return true
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
// exclude none), in a list of their own: a barrier release keeps it.
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
	return n.appendMissing(make([]*lrc.Interval, 0, total), v, exclude)
}

// appendMissing appends missingIvs's records to out and returns the list;
// a lock grant lists them in node scratch.
func (n *Node) appendMissing(out []*lrc.Interval, v lrc.VC, exclude int) []*lrc.Interval {
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
