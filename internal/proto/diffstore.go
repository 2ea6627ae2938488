package proto

import (
	"slices"

	"godsm/internal/event"
	"godsm/internal/lrc"
	"godsm/internal/pagemem"
	"godsm/internal/sim"
)

// The chassis diff store, shared by the diff-based coherence backends, the
// prefetcher and the garbage collector: a diff is named by (creator
// interval, page), and every query has the page in hand, so a page's diffs
// hang off its pageState. HLRC uses only the twin/diff primitives (its
// diffs live at the page's home, applied on arrival, never stored).

// heldDiff is one stored diff of a page: the interval that made it and the
// diff, which is nil or empty when the interval left the page unchanged.
type heldDiff struct {
	id lrc.IntervalID
	d  *pagemem.Diff
}

// idLess orders interval ids by (Seq, Node), roughly the order diffs arrive.
func idLess(a, b lrc.IntervalID) bool {
	return a.Seq < b.Seq || a.Seq == b.Seq && a.Node < b.Node
}

// find bisects the page's held diffs for id: its index if held, else where
// it would go. The tail is checked first: most diffs are appended there.
func (ps *pageState) find(id lrc.IntervalID) (int, bool) {
	lo, hi := 0, len(ps.diffs)-1
	if hi < 0 || idLess(ps.diffs[hi].id, id) {
		return hi + 1, false
	}
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if idLess(ps.diffs[m].id, id) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, ps.diffs[lo].id == id
}

// held finds the stored diff interval id made of this page; ok tells
// "stored as empty" from "not stored".
func (ps *pageState) held(id lrc.IntervalID) (d *pagemem.Diff, ok bool) {
	if i, ok := ps.find(id); ok {
		return ps.diffs[i].d, true
	}
	return nil, false
}

// storedDiff fetches a stored diff; ok distinguishes "stored as empty".
func (n *Node) storedDiff(id lrc.IntervalID, p pagemem.PageID) (*pagemem.Diff, bool) {
	ps := n.pages.Lookup(p)
	if ps == nil {
		return nil, false
	}
	return ps.held(id)
}

// putDiff stores interval id's diff of p, in the prefetch heap or the
// ordinary one. A diff already held stays: a fault-injected duplicate reply
// must not count its bytes twice.
func (n *Node) putDiff(id lrc.IntervalID, p pagemem.PageID, d *pagemem.Diff, prefetched bool) {
	ps := n.page(p)
	i, dup := ps.find(id)
	if dup {
		return
	}
	ps.diffs = slices.Insert(ps.diffs, i, heldDiff{id, d})
	if prefetched {
		n.pfHeap += int64(d.WireSize())
	} else {
		n.diffBytes += int64(d.WireSize())
	}
}

// bankDiffs stores an arriving diff reply's diffs (prefetched ones in the
// separate prefetch heap) and retires the prefetch request it answers.
func (n *Node) bankDiffs(rep *msgDiffReply) {
	for _, it := range rep.Items {
		n.putDiff(it.ID, rep.Page, it.Diff, rep.Prefetch)
	}
	if pfst, ok := n.pf[rep.Page]; ok && rep.Prefetch && pfst.inflight > 0 {
		// Clamped: a fault-injected duplicate reply must not drive the
		// outstanding-request count negative.
		pfst.inflight--
	}
}

// makeOwnDiff lazily creates the diff for this node's undiffed write notice
// on page p (if any), clearing the twin. Returns the CPU cost incurred.
func (n *Node) makeOwnDiff(p pagemem.PageID) sim.Time {
	ps := n.page(p)
	if !ps.twinned {
		return 0
	}
	d := n.Store.MakeDiff(p)
	n.bus.Emit(event.DiffMake(n.ID, int64(p), d.DataBytes()))
	cost := n.C.DiffMake + sim.Time(n.C.DiffScanNs*float64(pagemem.PageSize))
	n.Store.DropTwin(p)
	ps.twinned = false

	// Attribute the diff to the undiffed notice. If the page was twinned
	// during the still-open interval (no closed notice yet), close the
	// interval now — the paper's "interval split" on prefetch of a dirty
	// page; demand requests can only name closed notices, so for them the
	// undiffed notice always exists.
	if !ps.hasUndiffed {
		if iv := n.closeInterval(); iv == nil || !ps.hasUndiffed {
			n.pageInvariantf(p, "dirty page %d without a notice after interval close", p)
		}
	}
	id := ps.undiffed
	ps.hasUndiffed = false
	if d == nil {
		d = n.Store.EmptyDiff(p) // store an explicit empty diff
	}
	n.putDiff(id, p, d, false)
	return cost
}

// applyDiffs applies the stored diffs of the given pending intervals to p's
// frame in causal order and returns the CPU cost. It leaves the pending list
// alone: a caller that applies a subset resolves the rest by other means.
func (n *Node) applyDiffs(p pagemem.PageID, ids []lrc.IntervalID) sim.Time {
	if len(ids) == 0 {
		return 0
	}
	ivs := n.ivScratch[:0]
	for _, id := range ids {
		iv := n.rec(id.Node, id.Seq)
		if iv == nil {
			n.pageInvariantf(p, "pending interval %v on page %d without record", id, p)
		}
		ivs = append(ivs, iv)
	}
	lrc.SortCausally(ivs)

	ps := n.page(p)
	frame := n.Store.Frame(p)
	var cost sim.Time
	for _, iv := range ivs {
		d, ok := ps.held(iv.ID)
		if !ok {
			n.pageInvariantf(p, "node %d applying page %d without diff for %v",
				n.ID, p, iv.ID)
		}
		if !d.Empty() {
			n.bus.Emit(event.DiffApply(n.ID, int64(p), d.DataBytes()))
			d.Apply(frame)
			cost += n.C.DiffApply + sim.Time(n.C.ApplyNs*float64(d.DataBytes()))
		} else {
			cost += n.C.DiffApply / 2
		}
	}
	n.ivScratch = ivs[:0] // the machine's log keeps every record alive anyway
	return cost
}

// missingDiffs lists the pending intervals for p whose diffs are not yet
// held locally. The list is the node's scratch: it is good until the next
// call, and whoever keeps ids from it copies them.
func (n *Node) missingDiffs(p pagemem.PageID) []lrc.IntervalID {
	ps := n.page(p)
	out := n.missScratch[:0]
	for _, id := range ps.pending {
		if _, ok := ps.held(id); !ok {
			out = append(out, id)
		}
	}
	n.missScratch = out
	return out
}
