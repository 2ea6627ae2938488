package proto

import (
	"testing"

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
