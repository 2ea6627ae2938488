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
	iv := &lrc.Interval{
		ID:    lrc.IntervalID{Node: n.ID, Seq: n.vc[n.ID]},
		VC:    n.vc.Clone(),
		Pages: pages,
	}
	n.bus.Emit(event.IntervalClose(n.ID, iv.ID.Seq, len(iv.Pages)))
	n.ivs[n.ID] = append(n.ivs[n.ID], iv)
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

// record adds a received interval record and, unless deferred, invalidates
// the pages it names; it returns the CPU cost to charge. Duplicate records
// are ignored, except that a record taken in deferred earlier is
// invalidated now.
//
// The barrier manager takes arrival intervals in deferred: acting as a
// server, it must be able to forward the records at release, but its own
// memory view must not change until it passes the barrier itself —
// otherwise diffs applied mid-critical-section would not be covered by its
// next interval's vector time, and third-party readers would order
// dependent writes backwards. flushDeferred performs the postponed
// invalidations.
func (n *Node) record(iv *lrc.Interval, deferred bool) sim.Time {
	q := iv.ID.Node
	if q == n.ID {
		return 0 // our own intervals are always already recorded
	}
	idx := int(iv.ID.Seq) - 1
	if len(n.ivs[q]) <= idx {
		n.ivs[q] = slices.Grow(n.ivs[q], idx+1-len(n.ivs[q]))[:idx+1]
	}
	cost := n.C.NoticeProc * sim.Time(1+len(iv.Pages))
	if n.ivs[q][idx] != nil {
		// Already recorded, through a sync path or deferred.
		if !deferred && n.deferredSet.remove(iv.ID) {
			n.invalidate(iv)
			return cost
		}
		return 0
	}
	n.ivs[q][idx] = iv
	n.bus.Emit(event.NoticeIn(n.ID, iv.ID.Node, iv.ID.Seq, len(iv.Pages)))
	if deferred {
		n.deferredSet.add(iv.ID)
		n.deferredInval = append(n.deferredInval, iv)
	} else {
		n.invalidate(iv)
	}
	return cost
}

// invalidate marks iv's pages pending at this node. The coherence policy's
// notice filter can prove a notice's data is already in the local frame (a
// home whose applied vector covers the flushed interval) and suppress the
// invalidation; static backends filter nothing.
func (n *Node) invalidate(iv *lrc.Interval) {
	for _, p := range iv.Pages {
		if n.nf != nil && n.nf.filterNotice(p, iv.ID) {
			continue
		}
		ps := n.page(p)
		ps.pending = append(ps.pending, iv.ID)
	}
}

// flushDeferred invalidates every deferred record that has not been
// invalidated through another path meanwhile.
func (n *Node) flushDeferred() {
	for _, iv := range n.deferredInval {
		if n.deferredSet.has(iv.ID) {
			n.invalidate(iv)
		}
	}
	n.deferredSet = n.deferredSet[:0] // every deferred record is in deferredInval
	n.deferredInval = n.deferredInval[:0]
}

// intake processes a batch of interval records plus the sender's vector
// time, as delivered by a lock grant or barrier release. It returns the
// CPU cost to charge.
func (n *Node) intake(ivs []*lrc.Interval, v lrc.VC) sim.Time {
	var cost sim.Time
	for _, iv := range ivs {
		cost += n.record(iv, false)
	}
	n.vc.Merge(v)
	n.checkContiguity()
	return cost
}

// checkContiguity asserts the protocol invariant that the node holds a
// record for every interval its vector time covers.
func (n *Node) checkContiguity() {
	for q := 0; q < n.N; q++ {
		if q == n.ID {
			continue
		}
		if int32(len(n.ivs[q])) < n.vc[q] {
			n.invariantf("node %d VC[%d]=%d but only %d records",
				n.ID, q, n.vc[q], len(n.ivs[q]))
		}
		for s := n.gcBase[q]; s < n.vc[q]; s++ {
			if n.ivs[q][s] == nil {
				n.invariantf("node %d missing record (%d,%d) under VC %v",
					n.ID, q, s+1, n.vc)
			}
		}
	}
}

// missingIvs returns the interval records this node knows about that are
// not covered by v, excluding intervals created by `exclude` (pass -1 to
// exclude none). Used to build lock grants and barrier releases.
func (n *Node) missingIvs(v lrc.VC, exclude int) []*lrc.Interval {
	var out []*lrc.Interval
	for q := 0; q < n.N; q++ {
		if q == exclude {
			continue
		}
		for s := v[q]; s < n.vc[q]; s++ {
			iv := n.ivs[q][s]
			if iv == nil {
				n.invariantf("missingIvs hit a gap at (%d,%d)", q, s+1)
			}
			out = append(out, iv)
		}
	}
	return out
}
