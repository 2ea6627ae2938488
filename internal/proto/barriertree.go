package proto

import (
	"godsm/internal/event"
	"godsm/internal/lrc"
	"godsm/internal/netsim"
	"godsm/internal/sim"
)

// Combining-tree barrier (Spec.Barrier: "tree"). The centralized barrier
// (barrier.go) makes node 0 do O(N) work per episode: N arrivals to record
// and N-1 releases to build, each release scanning the arriver's missing
// intervals. The combining tree spreads that work over interior nodes: the
// processors form a k-ary heap (parent(i) = (i-1)/k), arrivals combine
// interval/VC payloads up the tree, and releases fan down, so no node
// touches more than fanout+1 messages per episode.
//
// Equivalence with the central barrier: a depth-one tree (fanout >= N-1)
// has node 0 as the parent of every other node, all of them leaves. Leaf
// arrivals then carry exactly the central barrier's wire format (MinVC and
// GCWant stay zero), the root's combine step performs the central manager's
// arrival bookkeeping verbatim (same recordDeferred calls, same BarrierMgr
// charging, same merge-flush-check sequence), and the root's release loop
// visits children 1..N-1 in ascending order with the same per-child
// missingIvs filter — so the run is byte-identical to the central barrier's.
// A regression test (barriertree_test.go) compares the full report
// fingerprints.
//
// Determinism: the tree shape is a pure function of (N, fanout); arrivals
// are processed in simulated-delivery order, which the kernel fixes; VC
// combining is element-wise max/min, which is order-independent. No
// randomness, no map iteration.
//
// Interior nodes act as servers the same way the central manager does:
// subtree records are taken in deferred (no local invalidation) until the
// node itself passes the barrier, at which point the release's intake
// flips them to invalidated.
type treeBarrier struct {
	n        *Node
	fanout   int
	parent   int
	children []int  // direct children, ascending
	leafKid  []bool // leafKid[i]: children[i] has no children of its own

	// Combining state for the episode in progress. Episodes cannot
	// overlap: a subtree member arrives at barrier B+1 only after B's
	// release traveled down through this node.
	barID   int
	selfVC  lrc.VC   // local arrival VC; nil until the local thread arrives
	childVC []lrc.VC // per child slot: subtree max VC; nil = not arrived
	childMn []lrc.VC // per child slot: subtree min VC
	arrived int
	accIvs  []*lrc.Interval // subtree records accumulated for the up-message
	accAcc  []PageAcc       // subtree access counters (dynamic policies only)
	gcWant  bool
	start   sim.Time // when the local thread arrived (stall metric origin)
	wait    func()   // local continuation

	// Saved by the up-send for the release fan-down (non-root only).
	relMin []lrc.VC
}

func newTreeBarrier(n *Node, fanout int) *treeBarrier {
	if fanout == 0 {
		fanout = DefaultBarrierFanout
	}
	tb := &treeBarrier{n: n, fanout: fanout, parent: (n.ID - 1) / fanout}
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

// Barrier is the local thread's arrival. Leaves ship the central barrier's
// arrival message to their parent; combining nodes (and the root) fold the
// local arrival into their combine state directly, consulting the GC policy
// for the local storage figure exactly as the central manager does.
func (tb *treeBarrier) Barrier(id int, onRelease func()) {
	n := tb.n
	n.closeInterval()
	own := n.ownSinceBarrier
	n.ownSinceBarrier = nil
	n.bus.Emit(event.BarArrive(n.ID, id))
	tb.start = n.K.Now()
	tb.wait = onRelease

	acc := n.episodeAcc()
	if len(tb.children) == 0 && n.ID != 0 {
		size := n.C.HeaderBytes + 4*n.N + n.C.ivsWireSize(own, n.N) + accWireSize(acc)
		done := n.CPU.Service(n.C.MsgSend, sim.CatDSM)
		n.sendAfter(done, &netsim.Message{
			Src: netsim.NodeID(n.ID), Dst: netsim.NodeID(tb.parent),
			Size: size, Reliable: true, Kind: KindBarArrive,
			Payload: &msgBarArrive{Barrier: id, From: n.ID, VC: n.vc.Clone(), Ivs: own,
				DiffBytes: n.diffBytes, Acc: acc},
		})
		return
	}
	tb.arrive(&msgBarArrive{Barrier: id, From: n.ID, VC: n.vc.Clone(), Ivs: own,
		DiffBytes: n.gc.ReportBytes(), Acc: acc})
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
		tb.selfVC = a.VC.Clone()
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
		tb.childVC[pos] = a.VC.Clone()
		mn := a.MinVC
		if mn == nil {
			mn = a.VC // a leaf's arrival VC is its subtree minimum
		}
		tb.childMn[pos] = mn.Clone()
		if a.GCWant {
			tb.gcWant = true
		}
	}
	if n.gc.Exceeds(a.DiffBytes) {
		tb.gcWant = true
	}

	cost := n.C.BarrierMgr
	for _, iv := range a.Ivs {
		cost += n.recordDeferred(iv)
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

// reset clears the combine state for the next episode, returning the slots
// the release fan-down still needs.
func (tb *treeBarrier) reset() (childVC, childMn []lrc.VC) {
	childVC, childMn = tb.childVC, tb.childMn
	tb.childVC = make([]lrc.VC, len(tb.children))
	tb.childMn = make([]lrc.VC, len(tb.children))
	tb.selfVC = nil
	tb.arrived = 0
	tb.accIvs = nil
	tb.accAcc = nil
	return childVC, childMn
}

// rootComplete runs the central manager's release sequence at the tree
// root: merge every subtree's VC, flush deferred invalidations, then fan
// releases to the direct children in ascending order, filtering each by its
// subtree's minimum VC (for a leaf child, its arrival VC — the central
// barrier's exact filter).
func (tb *treeBarrier) rootComplete(cost sim.Time) {
	n := tb.n
	n.vc.Merge(tb.selfVC)
	for i := range tb.children {
		n.vc.Merge(tb.childVC[i])
	}
	n.flushDeferred()
	n.checkContiguity()
	n.gossipCover(n.vc)
	moves := n.decideMoves(tb.accAcc)

	id := tb.barID
	gc := tb.gcWant
	start := tb.start
	wait := tb.wait
	tb.gcWant = false
	tb.wait = nil
	childVC, childMn := tb.reset()

	for i, c := range tb.children {
		var ivs []*lrc.Interval
		if tb.leafKid[i] {
			ivs = n.missingIvs(childVC[i], c)
		} else {
			ivs = n.missingIvs(childMn[i], -1)
		}
		size := n.C.HeaderBytes + 4*n.N + n.C.ivsWireSize(ivs, n.N) + movesWireSize(moves)
		cost += n.C.MsgSend
		done := n.CPU.Service(cost, sim.CatDSM)
		cost = 0
		n.sendAfter(done, &netsim.Message{
			Src: 0, Dst: netsim.NodeID(c),
			Size: size, Reliable: true, Kind: KindBarRelease,
			Payload: &msgBarRelease{Barrier: id, VC: n.vc.Clone(), Ivs: ivs, GC: gc,
				Moves: moves},
		})
	}
	n.applyMoves(moves)
	done := n.CPU.Service(cost, sim.CatDSM)
	n.bus.Emit(event.BarRelease(n.ID, id, done-start))
	if gc {
		n.K.At(done, func() { n.gc.Begin(wait) })
		return
	}
	n.K.At(done, wait)
}

// sendUp ships the combined subtree arrival to the parent: max VC for the
// global merge, min VC for release filtering, every subtree record, and the
// subtree's GC verdict. The local storage figure was already checked here,
// so DiffBytes is zero.
func (tb *treeBarrier) sendUp(cost sim.Time) {
	n := tb.n
	maxVC := tb.selfVC.Clone()
	minVC := tb.selfVC.Clone()
	for i := range tb.children {
		maxVC.Merge(tb.childVC[i])
		vcMinInto(minVC, tb.childMn[i])
	}
	id := tb.barID
	gcw := tb.gcWant
	ivs := tb.accIvs
	acc := tb.accAcc
	_, childMn := tb.reset()
	tb.relMin = childMn

	size := n.C.HeaderBytes + 8 + 8*n.N + n.C.ivsWireSize(ivs, n.N) + accWireSize(acc)
	cost += n.C.MsgSend
	done := n.CPU.Service(cost, sim.CatDSM)
	n.sendAfter(done, &netsim.Message{
		Src: netsim.NodeID(n.ID), Dst: netsim.NodeID(tb.parent),
		Size: size, Reliable: true, Kind: KindBarArrive,
		Payload: &msgBarArrive{Barrier: id, From: n.ID, VC: maxVC, Ivs: ivs,
			MinVC: minVC, GCWant: gcw, Acc: acc},
	})
}

// handleRelease completes the barrier at this node: take in the parent's
// records and merged VC (which also flips this node's deferred subtree
// records to invalidated), forward the release down the tree, then resume
// the local waiter. At a leaf the loop is empty and the body is the central
// barrier's handleBarRelease verbatim.
func (tb *treeBarrier) handleRelease(r *msgBarRelease) {
	n := tb.n
	cost := n.intake(r.Ivs, r.VC)
	n.flushDeferred() // safety net: any deferred record not named in r.Ivs
	n.gossipCover(r.VC)

	relMin := tb.relMin
	tb.relMin = nil
	for i, c := range tb.children {
		if relMin == nil || relMin[i] == nil {
			n.invariantf("node %d releasing barrier %d without a combined arrival from %d",
				n.ID, r.Barrier, c)
		}
		var ivs []*lrc.Interval
		if tb.leafKid[i] {
			ivs = n.missingIvs(relMin[i], c)
		} else {
			ivs = n.missingIvs(relMin[i], -1)
		}
		size := n.C.HeaderBytes + 4*n.N + n.C.ivsWireSize(ivs, n.N) + movesWireSize(r.Moves)
		cost += n.C.MsgSend
		done := n.CPU.Service(cost, sim.CatDSM)
		cost = 0
		n.sendAfter(done, &netsim.Message{
			Src: netsim.NodeID(n.ID), Dst: netsim.NodeID(c),
			Size: size, Reliable: true, Kind: KindBarRelease,
			Payload: &msgBarRelease{Barrier: r.Barrier, VC: n.vc.Clone(), Ivs: ivs, GC: r.GC,
				Moves: r.Moves},
		})
	}
	n.applyMoves(r.Moves)
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
