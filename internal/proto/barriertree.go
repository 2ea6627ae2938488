package proto

import (
	"godsm/internal/event"
	"godsm/internal/lrc"
	"godsm/internal/sim"
)

// The barrier: a combining tree over the processors (Spec.Barrier selects
// its fanout). The processors form a k-ary heap (parent(i) = (i-1)/k);
// arrivals combine interval/VC payloads up the tree and releases fan down,
// so no node touches more than fanout+1 messages per episode.
//
// The paper's central barrier is the depth-one tree (fanout N-1, what ""
// and "central" select): node 0 is the parent of every other node, all of
// them leaves. Leaf arrivals carry VC, own intervals and storage figure
// (MinVC and GCWant stay zero), the root records each arrival deferred,
// charges BarrierMgr per arrival, merges every VC at the last one and sends
// N-1 releases in ascending order, each filtered by the leaf's arrival VC —
// node 0 doing O(N) work per episode, which is what a smaller fanout spreads
// over interior nodes.
//
// Determinism: the tree shape is a pure function of (N, fanout); arrivals
// are processed in simulated-delivery order, which the kernel fixes; VC
// combining is element-wise max/min, which is order-independent. No
// randomness, no map iteration.
//
// Combining nodes act as servers: subtree records are taken in deferred (no
// local invalidation) until the node itself passes the barrier, at which
// point the release's intake flips them to invalidated. A server's own
// memory view must not change before that, and an arrival VC may cover
// third-node intervals whose records arrive later.
type treeBarrier struct {
	n        *Node
	parent   int
	children []int  // direct children, ascending
	leafKid  []bool // leafKid[i]: children[i] has no children of its own

	// Combining state for the episode in progress. Episodes cannot
	// overlap: a subtree member arrives at barrier B+1 only after B's
	// release traveled down through this node. The VCs are the arrival
	// messages' own (senders clone into the message) and are only read.
	barID   int
	selfVC  lrc.VC   // local arrival VC; nil until the local thread arrives
	childVC []lrc.VC // per child slot: subtree max VC; nil = not arrived
	childMn []lrc.VC // per child slot: subtree min VC, kept until the release fans down
	arrived int
	accIvs  []*lrc.Interval // subtree records accumulated for the up-message
	accAcc  []PageAcc       // subtree access counters (dynamic policies only)
	gcWant  bool
	start   sim.Time // when the local thread arrived (stall metric origin)
	wait    func()   // local continuation
}

func newTreeBarrier(n *Node, fanout int) *treeBarrier {
	tb := &treeBarrier{n: n, parent: (n.ID - 1) / fanout}
	for c := n.ID*fanout + 1; c <= n.ID*fanout+fanout && c < n.N; c++ {
		tb.children = append(tb.children, c)
		tb.leafKid = append(tb.leafKid, c*fanout+1 >= n.N)
	}
	tb.childVC = make([]lrc.VC, len(tb.children))
	tb.childMn = make([]lrc.VC, len(tb.children))
	return tb
}

// vcMinInto lowers dst to the element-wise minimum of dst and o.
func vcMinInto(dst, o lrc.VC) {
	for i := range dst {
		if o[i] < dst[i] {
			dst[i] = o[i]
		}
	}
}

// Barrier is the local thread's arrival: it closes the current interval and
// ships this node's new intervals toward the root. Leaves send them to their
// parent, reporting raw diff bytes; combining nodes (and the root) fold the
// local arrival into their combine state directly, consulting the GC policy
// for the local storage figure.
func (tb *treeBarrier) Barrier(id int, onRelease func()) {
	n := tb.n
	n.closeInterval()
	own := n.ownSinceBarrier
	n.ownSinceBarrier = nil
	n.bus.Emit(event.BarArrive(n.ID, id))
	tb.start = n.K.Now()
	tb.wait = onRelease

	a := &msgBarArrive{Barrier: id, From: n.ID, VC: n.vc.Clone(), Ivs: own,
		DiffBytes: n.diffBytes, Acc: n.coh.episodeAcc()}
	if len(tb.children) == 0 && n.ID != 0 {
		n.post(0, n.msg(tb.parent, KindBarArrive, a))
		return
	}
	a.DiffBytes = n.gc.ReportBytes()
	tb.arrive(a)
}

// arrive folds one arrival (the local thread's or a child subtree's) into
// the combine state; the last arrival triggers the root release or the
// upward combined message.
func (tb *treeBarrier) arrive(a *msgBarArrive) {
	n := tb.n
	if tb.arrived == 0 {
		tb.barID = a.Barrier
	} else if tb.barID != a.Barrier {
		n.invariantf("node %d combining barrier %d got arrival for barrier %d",
			n.ID, tb.barID, a.Barrier)
	}

	if a.From == n.ID {
		if tb.selfVC != nil {
			n.invariantf("duplicate local barrier arrival at node %d", n.ID)
		}
		tb.selfVC = a.VC
	} else {
		pos := -1
		for i, c := range tb.children {
			if c == a.From {
				pos = i
			}
		}
		if pos < 0 {
			n.invariantf("node %d got barrier arrival from %d, not a tree child", n.ID, a.From)
		}
		if tb.childVC[pos] != nil {
			n.invariantf("duplicate barrier arrival from %d", a.From)
		}
		tb.childVC[pos] = a.VC
		tb.childMn[pos] = a.MinVC
		if a.MinVC == nil {
			tb.childMn[pos] = a.VC // a leaf's arrival VC is its subtree minimum
		}
		if a.GCWant {
			tb.gcWant = true
		}
	}
	if n.gc.Exceeds(a.DiffBytes) {
		tb.gcWant = true
	}

	cost := n.C.BarrierMgr
	for _, iv := range a.Ivs {
		c, _ := n.record(iv, true) // deferred: never invalidates now
		cost += c
	}
	tb.accIvs = append(tb.accIvs, a.Ivs...)
	tb.accAcc = append(tb.accAcc, a.Acc...)
	tb.arrived++
	if tb.arrived < len(tb.children)+1 {
		n.CPU.Service(cost, sim.CatDSM)
		return
	}
	if n.ID == 0 {
		tb.rootComplete(cost)
		return
	}
	tb.sendUp(cost)
}

// mergeInto ends the combining phase: it raises dst to the subtree's merged
// (max) VC, clears the arrival state for the next episode and returns the
// subtree's GC verdict. childMn survives — the release fan-down filters by
// it.
func (tb *treeBarrier) mergeInto(dst lrc.VC) (gcWant bool) {
	dst.Merge(tb.selfVC)
	for i := range tb.childVC {
		dst.Merge(tb.childVC[i])
		tb.childVC[i] = nil
	}
	tb.selfVC = nil
	tb.arrived = 0
	tb.accIvs = nil
	tb.accAcc = nil
	gcWant, tb.gcWant = tb.gcWant, false
	return gcWant
}

// rootComplete runs at the tree root once the whole cluster has arrived:
// merge every subtree's VC, flush deferred invalidations, decide this
// episode's home moves, then fan the release down.
func (tb *treeBarrier) rootComplete(cost sim.Time) {
	n := tb.n
	acc := tb.accAcc
	gc := tb.mergeInto(n.vc)
	n.flushDeferred()
	n.checkContiguity()
	n.gossipCover(n.vc)
	tb.fanDown(&msgBarRelease{Barrier: tb.barID, GC: gc, Moves: n.coh.decideMoves(acc)}, cost)
}

// sendUp ships the combined subtree arrival to the parent: max VC for the
// global merge, min VC for release filtering, every subtree record, and the
// subtree's GC verdict. The local storage figure was already checked here,
// so DiffBytes is zero.
func (tb *treeBarrier) sendUp(cost sim.Time) {
	n := tb.n
	minVC := tb.selfVC.Clone()
	for _, mn := range tb.childMn {
		vcMinInto(minVC, mn)
	}
	ivs, acc := tb.accIvs, tb.accAcc
	maxVC := lrc.NewVC(n.N)
	gcWant := tb.mergeInto(maxVC)

	n.post(cost, n.msg(tb.parent, KindBarArrive, &msgBarArrive{Barrier: tb.barID, From: n.ID,
		VC: maxVC, Ivs: ivs, MinVC: minVC, GCWant: gcWant, Acc: acc}))
}

// handleRelease completes the barrier at a non-root node: take in the
// parent's records and merged VC (which also flips this node's deferred
// subtree records to invalidated), then forward the release down the tree.
func (tb *treeBarrier) handleRelease(r *msgBarRelease) {
	n := tb.n
	cost := n.intake(r.Ivs, r.VC)
	n.flushDeferred() // safety net: any deferred record not named in r.Ivs
	n.gossipCover(r.VC)
	tb.fanDown(r, cost)
}

// fanDown sends r's barrier release to each direct child in ascending
// order, with the records the child's subtree lacks — filtered by the
// subtree's minimum VC, and for a leaf excluding its own intervals — then
// applies the episode's moves and resumes the local waiter (after the
// collection, if the release flags one).
func (tb *treeBarrier) fanDown(r *msgBarRelease, cost sim.Time) {
	n := tb.n
	for i, c := range tb.children {
		if tb.childMn[i] == nil {
			n.invariantf("node %d releasing barrier %d without a combined arrival from %d",
				n.ID, r.Barrier, c)
		}
		exclude := -1
		if tb.leafKid[i] {
			exclude = c
		}
		ivs := n.missingIvs(tb.childMn[i], exclude)
		tb.childMn[i] = nil
		n.post(cost, n.msg(c, KindBarRelease, &msgBarRelease{Barrier: r.Barrier, VC: n.vc.Clone(),
			Ivs: ivs, GC: r.GC, Moves: r.Moves}))
		cost = 0
	}
	n.coh.applyMoves(r.Moves)
	done := n.CPU.Service(cost, sim.CatDSM)
	n.bus.Emit(event.BarRelease(n.ID, r.Barrier, done-tb.start))
	cb := tb.wait
	tb.wait = nil
	if cb == nil {
		n.invariantf("node %d got barrier release with no waiter", n.ID)
	}
	if r.GC {
		n.K.At(done, func() { n.gc.Begin(cb) })
		return
	}
	n.K.At(done, cb)
}
