package proto

import (
	"runtime"
	"slices"
	"testing"

	"godsm/internal/lrc"
	"godsm/internal/netsim"
	"godsm/internal/pagemem"
	"godsm/internal/sim"
)

// Lock-protocol unit tests, including the NoTokenCache (centralized locks)
// ablation paths: token return, redirect of a forward that raced with the
// return, and manager-held retry queueing.

// acquireRelease acquires lock id on node nd at the current time, runs
// body while holding it, then releases. It drives the kernel to completion.
func acquireRelease(t *testing.T, r *rig, nd int, id int, at sim.Time, body func()) {
	t.Helper()
	r.k.At(at, func() {
		node := r.nodes[nd]
		run := func() {
			if body != nil {
				body()
			}
			node.ReleaseLock(id)
		}
		if node.AcquireLock(id, run) {
			run()
		}
	})
}

func TestNoTokenCacheReturnsToManager(t *testing.T) {
	r := newRigCfg(3, Spec{NoTokenCache: true})
	// Lock 1's manager is node 1. Node 0 acquires and releases; the token
	// must go home, so node 2's later acquire is served by the manager
	// (not forwarded to node 0).
	acquireRelease(t, r, 0, 1, 0, func() { r.write(0, page0, 1) })
	r.k.Run()
	acquireRelease(t, r, 2, 1, r.k.Now()+50*sim.Millisecond, nil)
	r.k.Run()

	if got := r.st[2].RemoteLockAcqs; got != 1 {
		t.Fatalf("node 2 remote acquires = %d", got)
	}
	// Node 2 must have received node 0's critical-section write notice via
	// the returned token's consistency info.
	if r.nodes[2].PageValid(1) {
		t.Fatal("node 2 missing the write notice carried through the token return")
	}
	retMsgs, _ := r.net.KindStats(KindLockReturn)
	if retMsgs == 0 {
		t.Fatal("no token-return messages observed")
	}
}

func TestNoTokenCacheNoLocalReacquire(t *testing.T) {
	r := newRigCfg(2, Spec{NoTokenCache: true})
	// Node 0 is lock 0's manager; with caching its acquires are free.
	// Without caching they still complete but count as remote.
	done := 0
	acquireRelease(t, r, 0, 0, 0, func() { done++ })
	r.k.Run()
	acquireRelease(t, r, 0, 0, r.k.Now()+sim.Millisecond, func() { done++ })
	r.k.Run()
	if done != 2 {
		t.Fatalf("acquires completed = %d", done)
	}
	if r.st[0].LocalLockAcqs != 0 {
		t.Fatalf("local acquires = %d, want 0 under NoTokenCache", r.st[0].LocalLockAcqs)
	}
	if r.st[0].RemoteLockAcqs != 2 {
		t.Fatalf("remote acquires = %d, want 2", r.st[0].RemoteLockAcqs)
	}
}

func TestNoTokenCacheRedirectRace(t *testing.T) {
	r := newRigCfg(3, Spec{NoTokenCache: true})
	// Node 0 holds lock 1 (manager node 1) and releases; node 2's request
	// is forwarded to node 0 around the same time the token returns. Every
	// interleaving must end with node 2 acquiring.
	got2 := false
	acquireRelease(t, r, 0, 1, 0, nil)
	r.k.At(100, func() {
		r.nodes[2].AcquireLock(1, func() {
			got2 = true
			r.nodes[2].ReleaseLock(1)
		})
	})
	r.k.Run()
	if !got2 {
		t.Fatal("node 2 never acquired after the redirect race")
	}
}

func TestNoTokenCacheChainUnderContention(t *testing.T) {
	r := newRigCfg(4, Spec{NoTokenCache: true})
	// All four nodes repeatedly increment a lock-protected cell; mutual
	// exclusion and consistency must hold through returns and redirects.
	const rounds = 6
	cell := pagemem.Addr(pagemem.PageSize)
	// Each node chains its rounds (a node's acquires must be serialized),
	// with staggered start times so the lock bounces between nodes.
	for nd := 0; nd < 4; nd++ {
		nd := nd
		node := r.nodes[nd]
		var round func(i int)
		round = func(i int) {
			if i == rounds {
				return
			}
			body := func() {
				incr := func() {
					node.EnsureWritable(pagemem.PageOf(cell))
					f := node.Frame(pagemem.PageOf(cell))
					pagemem.PutU64(f, 0, pagemem.GetU64(f, 0)+1)
					node.ReleaseLock(2)
					r.k.After(300*sim.Microsecond, func() { round(i + 1) })
				}
				if node.PageValid(pagemem.PageOf(cell)) {
					incr()
					return
				}
				node.Fault(pagemem.PageOf(cell), incr)
			}
			if node.AcquireLock(2, body) {
				body()
			}
		}
		r.k.At(sim.Time(nd)*200*sim.Microsecond, func() { round(0) })
	}
	r.k.Run()
	// Read back through the lock (acquire synchronizes the final value).
	var got uint64
	doneRead := false
	r.k.At(r.k.Now(), func() {
		nd := r.nodes[3]
		body := func() {
			read := func() {
				got = pagemem.GetU64(nd.Frame(1), 0)
				doneRead = true
				nd.ReleaseLock(2)
			}
			if nd.PageValid(1) {
				read()
				return
			}
			nd.Fault(1, read)
		}
		if nd.AcquireLock(2, body) {
			body()
		}
	})
	r.k.Run()
	if !doneRead {
		t.Fatal("final read incomplete")
	}
	if got != rounds*4 {
		t.Fatalf("counter = %d, want %d", got, rounds*4)
	}
}

// handoffLock is the lock of the handoff rig: managed by node 2 of three.
const handoffLock = 2

// handoff is a rig where nodes 0 and 1 take turns incrementing a counter
// on page 1 under handoffLock. body[i] is node i's critical section: fault
// the page in if the grant invalidated it, increment, release.
type handoff struct {
	*rig
	body [2]func()
}

func newHandoff() *handoff {
	h := &handoff{rig: newRig(3)}
	for i := range h.body {
		nd := h.nodes[i]
		incr := func() {
			h.write(i, page0, h.read(i, page0)+1)
			nd.ReleaseLock(handoffLock)
		}
		h.body[i] = func() {
			if nd.PageValid(pg1) {
				incr()
				return
			}
			nd.Fault(pg1, incr)
		}
	}
	return h
}

// turn runs node i's acquire, critical section and release to completion:
// a lock request to the manager, a forward to the last holder, a grant
// carrying its interval record, a diff fetch of the page, and the release's
// interval close.
func (h *handoff) turn(i int) {
	if h.nodes[i].AcquireLock(handoffLock, h.body[i]) {
		h.body[i]()
	}
	h.k.Run()
}

// lockHandoffAllocs is what one warm turn may allocate: nothing. The
// request, forward and grant come back from the rig's wire pool with their
// vector time's and records' storage, the grant's records are listed in
// node scratch, the new interval record is carved from the machine's
// chunks, and the diff fetch is TestDiffFetchAllocs's.
const lockHandoffAllocs = 0

// TestLockHandoffAllocs pins the allocations of one lock handoff between
// two nodes, with the interval close at its release.
func TestLockHandoffAllocs(t *testing.T) {
	h := newHandoff()
	var perRound []uint64
	const rounds = 16
	for round := range rounds {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		h.turn(round % 2)
		runtime.ReadMemStats(&after)
		perRound = append(perRound, after.Mallocs-before.Mallocs)
	}
	if got := h.read(1, page0); got != rounds {
		t.Fatalf("the counter reads %v after %d turns", got, rounds)
	}
	if n, _ := h.net.KindStats(KindLockForward); n != rounds-1 {
		t.Fatalf("%d forwards in %d turns, want every turn after the first to chain after the last holder", n, rounds)
	}
	// The first rounds grow the event queue, the tables, the scratch and
	// the pools, and a page's held diffs and a carver's chunks run out now
	// and then, so the pin is the leanest round.
	if got := slices.Min(perRound); got > lockHandoffAllocs {
		t.Errorf("a lock handoff allocates %d times, want at most %d (rounds: %v)",
			got, lockHandoffAllocs, perRound)
	}
}

// BenchmarkLockHandoff is one turn of TestLockHandoffAllocs's rig. A fresh
// rig every 256 turns is built off the clock: a page's held diffs grow by
// one a turn, and finding one is a scan.
func BenchmarkLockHandoff(b *testing.B) {
	var h *handoff
	b.ReportAllocs()
	for i := range b.N {
		if i%256 == 0 {
			b.StopTimer()
			h = newHandoff()
			b.StartTimer()
		}
		h.turn(i % 2)
	}
}

// A forwarded request parked until the holder's release is a copy the lock
// state owns: once the delivered forward goes back to the wire pool and is
// reused for another node's request, the parked one still names its
// requester and carries its vector time, and the release grants to it. A
// redirected request the manager parks (NoTokenCache) is a copy as well.
func TestParkedForwardOutlivesItsMessage(t *testing.T) {
	r := newRig(3)
	var fwd *netsim.Message
	r.tap = func(m *netsim.Message) {
		if m.Kind == KindLockForward {
			fwd = m
		}
	}
	r.k.At(0, func() { r.nodes[0].AcquireLock(1, func() {}) }) // lock 1: node 1 manages
	r.k.Run()
	r.write(2, page0, 5)
	r.nodes[2].closeInterval()
	want := slices.Clone(r.nodes[2].vc)
	got2 := false
	r.nodes[2].AcquireLock(1, func() { got2 = true })
	r.k.Run()
	ls := r.nodes[0].sync.lock(1)
	if fwd == nil || ls.pendingFwd == nil {
		t.Fatalf("node 0 holds no parked forward (forward sent: %v)", fwd != nil)
	}

	// Node 1 opens an interval of its own and asks node 0 for lock 0: the
	// pool hands it the delivered forward.
	r.write(1, page0+pagemem.PageSize, 1)
	r.nodes[1].closeInterval()
	var reused *netsim.Message
	r.tap = func(m *netsim.Message) {
		if m.Kind == KindLockAcq {
			reused = m
		}
	}
	r.nodes[1].AcquireLock(0, func() {})
	r.k.Run()
	if reused != fwd {
		t.Fatalf("node 1's request did not reuse the delivered forward")
	}
	if p := ls.pendingFwd; p.Requester != 2 || !slices.Equal(p.VC, want) {
		t.Fatalf("after the pool reused its message the parked forward names node %d at %v, want node 2 at %v",
			p.Requester, p.VC, want)
	}
	r.nodes[0].ReleaseLock(1)
	r.k.Run()
	if !got2 || !r.nodes[2].sync.lock(1).owned {
		t.Fatal("node 0's release did not grant the lock to node 2")
	}

	nt := newRigCfg(3, Spec{NoTokenCache: true}).nodes[1]
	nt.sync.lock(1).owned = false // the token is out
	req := &msgLockAcq{Lock: 1, Requester: 2, VC: lrc.VC{0, 0, 4}, Seq: 1}
	nt.sync.handleLockRetry(req)
	req.Requester, req.VC[2] = 0, 7 // the pool reuses the delivered message
	if p := nt.sync.lock(1).retryQ; p == nil || p.Requester != 2 || !slices.Equal(p.VC, lrc.VC{0, 0, 4}) {
		t.Fatalf("the parked redirect reads %+v after its message was reused, want node 2 at [0 0 4]", p)
	}
}
