package proto

import (
	"godsm/internal/event"
	"godsm/internal/lrc"
	"godsm/internal/netsim"
	"godsm/internal/sim"
)

// syncManager is the synchronization side of the protocol, shared by every
// backend: TreadMarks's distributed queue locks (this file) and the
// combining-tree barrier (barriertree.go). Consistency metadata piggybacks
// on the synchronization messages through the chassis's intake/missingIvs
// helpers, so the same manager works for all coherence policies.
type syncManager struct {
	n            *Node
	noTokenCache bool

	locks map[int]*lockState
	bar   *treeBarrier
}

// newSyncManager builds the lock table and the barrier tree. The paper's
// central barrier is the depth-one tree — node 0 the parent of every other
// node — so "central" is a fanout, not a second implementation.
func newSyncManager(n *Node, cfg Spec) *syncManager {
	fanout := max(n.N-1, 1)
	if cfg.Barrier == "tree" {
		fanout = cfg.BarrierFanout
		if fanout == 0 {
			fanout = DefaultBarrierFanout
		}
	}
	return &syncManager{n: n, noTokenCache: cfg.NoTokenCache, locks: make(map[int]*lockState),
		bar: newTreeBarrier(n, fanout)}
}

// Handle dispatches the lock and barrier messages; it reports false for
// payloads the synchronization layer does not own.
func (sm *syncManager) Handle(m *netsim.Message) bool {
	switch pl := m.Payload.(type) {
	case *msgLockAcq:
		switch m.Kind {
		case KindLockAcq:
			sm.handleLockAcqAtManager(pl)
		case KindLockRetry:
			sm.handleLockRetry(pl)
		case KindLockForward:
			sm.handleLockForward(pl)
		default:
			sm.n.invariantf("lock-acquire payload carried unexpected message kind %d", int(m.Kind))
		}
	case *msgLockGrant:
		if m.Kind == KindLockReturn {
			sm.handleLockReturn(pl)
		} else {
			sm.handleLockGrant(pl)
		}
	case *msgBarArrive:
		sm.bar.arrive(pl)
	case *msgBarRelease:
		sm.bar.handleRelease(pl)
	default:
		return false
	}
	return true
}

// lockState is one lock's state at one node. The algorithm is TreadMarks's
// distributed queue: a static manager (lock id mod N) tracks the last
// requester and forwards each new acquire to it; the previous requester
// grants directly to its successor when it releases, piggybacking the write
// notices the successor lacks. Token ownership is cached: the last holder
// re-acquires locally with no messages.
type lockState struct {
	// Manager-side.
	lastRequester int

	// Holder-side.
	owned      bool        // this node holds the token
	held       bool        // a local thread currently holds the lock
	pendingFwd *msgLockAcq // successor waiting for our release
	waiting    func()      // local continuation once our grant arrives
	reqStart   sim.Time

	// Manager-side, noTokenCache only: a redirected request waiting for
	// the token to come back from its last holder.
	retryQ *msgLockAcq

	// Tenure tagging: mySeq counts this node's acquires of the lock;
	// lastReqSeq (manager side) is the sequence of lastRequester's acquire.
	// Forwards carry the predecessor tenure so a node can tell whether a
	// forwarded request chains after its current tenure or a finished one
	// (the distinction matters once tokens return to the manager).
	mySeq      int
	lastReqSeq int
}

func (sm *syncManager) lock(id int) *lockState {
	ls, ok := sm.locks[id]
	if !ok {
		ls = &lockState{lastRequester: -1}
		if sm.lockManager(id) == sm.n.ID {
			ls.owned = true // the manager owns every token initially
			ls.lastRequester = sm.n.ID
		}
		sm.locks[id] = ls
	}
	return ls
}

func (sm *syncManager) lockManager(id int) int { return id % sm.n.N }

// AcquireLock acquires lock id. If the token is cached locally the acquire
// completes immediately and AcquireLock returns true; otherwise it returns
// false and onGranted runs (in kernel context) when the grant arrives.
func (sm *syncManager) AcquireLock(id int, onGranted func()) (immediate bool) {
	n := sm.n
	ls := sm.lock(id)
	if ls.held {
		n.invariantf("node %d re-acquiring held lock %d (combine locally first)", n.ID, id)
	}
	if ls.waiting != nil {
		n.invariantf("node %d has concurrent remote acquires of lock %d", n.ID, id)
	}
	if ls.owned && !sm.noTokenCache {
		ls.held = true
		n.bus.Emit(event.LockLocal(n.ID, id))
		return true
	}

	n.bus.Emit(event.LockRemote(n.ID, id))
	ls.waiting = onGranted
	ls.reqStart = n.K.Now()
	ls.mySeq++
	req := &msgLockAcq{Lock: id, Requester: n.ID, VC: n.vc.Clone(), Seq: ls.mySeq}
	mgr := sm.lockManager(id)
	if mgr == n.ID {
		done := n.CPU.Service(n.C.LockMgr, sim.CatDSM)
		n.K.At(done, func() { sm.handleLockAcqAtManager(req) })
		return false
	}
	n.post(0, n.msg(mgr, KindLockAcq, req))
	return false
}

// handleLockAcqAtManager runs at the lock's manager: it records the new
// tail of the queue and forwards the request to the previous requester.
func (sm *syncManager) handleLockAcqAtManager(req *msgLockAcq) {
	n := sm.n
	ls := sm.lock(req.Lock)
	prev := ls.lastRequester
	prevSeq := ls.lastReqSeq
	ls.lastRequester = req.Requester
	ls.lastReqSeq = req.Seq
	req.PrevSeq = prevSeq
	if prev == req.Requester && !sm.noTokenCache {
		// With token caching the last requester re-acquires locally and
		// never contacts the manager; reaching here is a protocol bug.
		n.invariantf("lock %d requester %d already owns the token", req.Lock, req.Requester)
	}
	if prev == n.ID {
		sm.handleLockForward(req)
		return
	}
	n.post(n.C.LockMgr, n.msg(prev, KindLockForward, req))
}

// handleLockForward runs at the previous requester: grant now if the token
// is here and free, remember the successor until our release if we hold or
// will hold it, or (noTokenCache only) redirect to the manager if the token
// has already been returned.
func (sm *syncManager) handleLockForward(req *msgLockAcq) {
	n := sm.n
	ls := sm.lock(req.Lock)
	n.bus.Emit(event.LockForward(n.ID, req.Lock, req.Requester))
	if ls.pendingFwd != nil {
		n.invariantf("lock %d already has a pending successor", req.Lock)
	}
	if ls.owned && !ls.held {
		// Token here and free: grant even if we are ourselves re-queued
		// (noTokenCache) — our own grant will come back through the chain.
		sm.grantLock(req)
		return
	}
	if ls.held {
		if sm.noTokenCache && req.PrevSeq != ls.mySeq {
			n.invariantf("lock %d forward for stale tenure while held", req.Lock)
		}
		ls.pendingFwd = req
		return
	}
	if ls.waiting != nil && (!sm.noTokenCache || req.PrevSeq == ls.mySeq) {
		// The request chains after our pending tenure.
		ls.pendingFwd = req
		return
	}
	if !sm.noTokenCache {
		n.invariantf("node %d forwarded lock %d it does not own", n.ID, req.Lock)
	}
	// The token is on its way back to the manager: redirect the request.
	n.post(0, n.msg(sm.lockManager(req.Lock), KindLockRetry, req))
}

// handleLockRetry runs at the manager: grant from the (possibly still
// in-flight) returned token.
func (sm *syncManager) handleLockRetry(req *msgLockAcq) {
	ls := sm.lock(req.Lock)
	if ls.owned && !ls.held {
		sm.grantLock(req)
		return
	}
	if ls.retryQ != nil {
		sm.n.invariantf("lock %d has two redirected requests", req.Lock)
	}
	ls.retryQ = req
}

// passToken ships lock id's token to node `to` (kind tells a grant from a
// return to the manager) with the write notices `to` lacks, judged by its
// vector time have. The caller must own the token and the lock must be free.
func (sm *syncManager) passToken(kind netsim.Kind, id, to int, have lrc.VC) {
	n := sm.n
	sm.lock(id).owned = false
	n.post(n.C.GrantMake, n.msg(to, kind, &msgLockGrant{Lock: id, VC: n.vc.Clone(), Ivs: n.missingIvs(have, to)}))
}

// returnToken ships the token back to the manager (noTokenCache), carrying
// everything this node knows above the GC base so later manager grants are
// consistent.
func (sm *syncManager) returnToken(id int) {
	sm.n.bus.Emit(event.LockReturn(sm.n.ID, id))
	sm.passToken(KindLockReturn, id, sm.lockManager(id), sm.n.gcBase.Clone())
}

// handleLockReturn restores manager ownership and serves any redirected
// request that raced with the return.
func (sm *syncManager) handleLockReturn(g *msgLockGrant) {
	n := sm.n
	ls := sm.lock(g.Lock)
	cost := n.intake(g.Ivs, g.VC)
	n.CPU.Service(cost, sim.CatDSM)
	ls.owned = true
	if ls.retryQ != nil {
		req := ls.retryQ
		ls.retryQ = nil
		sm.grantLock(req)
	}
}

// grantLock transfers the token to req.Requester with piggybacked write
// notices.
func (sm *syncManager) grantLock(req *msgLockAcq) {
	sm.passToken(KindLockGrant, req.Lock, req.Requester, req.VC)
}

// handleLockGrant completes a remote acquire.
func (sm *syncManager) handleLockGrant(g *msgLockGrant) {
	n := sm.n
	ls := sm.lock(g.Lock)
	if ls.waiting == nil {
		n.invariantf("node %d got unexpected grant of lock %d", n.ID, g.Lock)
	}
	cost := n.intake(g.Ivs, g.VC)
	ls.owned = true
	ls.held = true
	done := n.CPU.Service(cost, sim.CatDSM)
	n.bus.Emit(event.LockGrant(n.ID, g.Lock, done-ls.reqStart))
	cb := ls.waiting
	ls.waiting = nil
	// A successor may have been forwarded to us while we waited; it is
	// served when the local holder releases.
	n.K.At(done, cb)
}

// ReleaseLock releases lock id: the release closes the current interval
// (the LRC interval boundary) and hands the token to a waiting successor,
// if any. Local: no messages unless a successor is pending.
func (sm *syncManager) ReleaseLock(id int) {
	n := sm.n
	ls := sm.lock(id)
	if !ls.held {
		n.invariantf("node %d releasing lock %d it does not hold", n.ID, id)
	}
	n.closeInterval()
	ls.held = false
	if ls.pendingFwd != nil {
		req := ls.pendingFwd
		ls.pendingFwd = nil
		sm.grantLock(req)
		return
	}
	if sm.noTokenCache {
		if sm.lockManager(id) != n.ID {
			sm.returnToken(id)
		} else if ls.retryQ != nil {
			// A redirected request was waiting for the manager's own
			// tenure to finish.
			req := ls.retryQ
			ls.retryQ = nil
			sm.grantLock(req)
		}
	}
}
