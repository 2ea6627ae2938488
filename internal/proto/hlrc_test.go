package proto

import (
	"testing"

	"godsm/internal/pagemem"
)

// HLRC white-box tests: diffs flush to each page's home at release, homes
// apply them eagerly, and faults fetch whole pages from the home.

func hlrcRig(n int) *rig { return newRigCfg(n, Spec{Protocol: "hlrc"}) }

// A remote write must reach the page's home at the barrier, and a non-home
// reader must fetch the page (not diffs) from the home.
func TestHLRCFlushAndPageFetch(t *testing.T) {
	r := hlrcRig(3)
	// page 1 is homed at node 1; node 0 writes it.
	r.k.At(0, func() { r.write(0, page0, 42) })
	r.k.Run()
	r.barrierAll(0)

	// The home received the flush eagerly: its fault completes locally,
	// without any page-request traffic.
	homeDone := false
	r.k.At(r.k.Now(), func() { r.nodes[1].Fault(1, func() { homeDone = true }) })
	r.k.Run()
	if !homeDone {
		t.Fatal("home fault never completed")
	}
	if got := r.read(1, page0); got != 42 {
		t.Fatalf("home read = %v, want 42", got)
	}
	flushes, _ := r.net.KindStats(KindHomeFlush)
	if flushes == 0 {
		t.Fatal("no home-flush messages observed")
	}
	if reqs, _ := r.net.KindStats(KindPageReq); reqs != 0 {
		t.Fatalf("home fault sent %d page requests, want 0", reqs)
	}

	// A third node faults and fetches the whole page from the home.
	if r.nodes[2].PageValid(1) {
		t.Fatal("node 2 should have been invalidated by the barrier notice")
	}
	done := false
	r.k.At(r.k.Now(), func() { r.nodes[2].Fault(1, func() { done = true }) })
	r.k.Run()
	if !done {
		t.Fatal("page fetch never completed")
	}
	if got := r.read(2, page0); got != 42 {
		t.Fatalf("fetched read = %v, want 42", got)
	}
	reqs, _ := r.net.KindStats(KindPageReq)
	if reqs == 0 {
		t.Fatal("no page-request messages observed")
	}
}

// A home node faulting on its own page before the writer's flush arrives
// must park (message-free) and complete when the flush lands.
func TestHLRCHomeFaultWaitsForFlush(t *testing.T) {
	r := hlrcRig(2)
	// page 1 is homed at node 1; node 0 writes it twice across a barrier so
	// node 1 holds a pending notice, then reads at the home.
	r.k.At(0, func() { r.write(0, page0, 7) })
	r.k.Run()
	r.barrierAll(0)
	done := false
	r.k.At(r.k.Now(), func() { r.nodes[1].Fault(1, func() { done = true }) })
	r.k.Run()
	if !done {
		t.Fatal("home fault never completed")
	}
	if got := r.read(1, page0); got != 7 {
		t.Fatalf("home read = %v, want 7", got)
	}
	// The home never sends page requests for its own pages.
	reqs, _ := r.net.KindStats(KindPageReq)
	if reqs != 0 {
		t.Fatalf("home fault sent %d page requests, want 0", reqs)
	}
}

// Writers on distinct pages with interleaved barriers: every node converges
// on every page's final value (multi-writer flush ordering).
func TestHLRCConvergenceAcrossBarriers(t *testing.T) {
	r := hlrcRig(3)
	pages := []pagemem.Addr{
		pagemem.Addr(1 * pagemem.PageSize),
		pagemem.Addr(2 * pagemem.PageSize),
		pagemem.Addr(3 * pagemem.PageSize),
	}
	for round := 0; round < 3; round++ {
		round := round
		r.k.At(r.k.Now(), func() {
			for nd := 0; nd < 3; nd++ {
				a := pages[(nd+round)%3]
				p := pagemem.PageOf(a)
				nd := nd
				if !r.nodes[nd].PageValid(p) {
					r.nodes[nd].Fault(p, func() {
						r.write(nd, a, float64(10*round+nd))
					})
				} else {
					r.write(nd, a, float64(10*round+nd))
				}
			}
		})
		r.k.Run()
		r.barrierAll(round)
	}
	// Final round was round 2: node nd wrote pages[(nd+2)%3] = 20+nd.
	for nd := 0; nd < 3; nd++ {
		want := float64(20 + nd)
		a := pages[(nd+2)%3]
		for reader := 0; reader < 3; reader++ {
			reader := reader
			p := pagemem.PageOf(a)
			if !r.nodes[reader].PageValid(p) {
				ok := false
				r.k.At(r.k.Now(), func() { r.nodes[reader].Fault(p, func() { ok = true }) })
				r.k.Run()
				if !ok {
					t.Fatalf("reader %d fault on page %d never completed", reader, p)
				}
			}
			if got := r.read(reader, a); got != want {
				t.Fatalf("node %d reads page %d = %v, want %v", reader, p, got, want)
			}
		}
	}
}

// Locks carry write notices under HLRC exactly as under LRC: a reader
// acquiring the lock after a writer sees the write.
func TestHLRCLockCarriesNotices(t *testing.T) {
	r := hlrcRig(2)
	acquireRelease(t, r, 0, 1, 0, func() { r.write(0, page0, 5) })
	r.k.Run()
	seen := false
	r.k.At(r.k.Now()+1000, func() {
		node := r.nodes[1]
		run := func() {
			if node.PageValid(1) {
				seen = r.read(1, page0) == 5
				node.ReleaseLock(1)
				return
			}
			node.Fault(1, func() {
				seen = r.read(1, page0) == 5
				node.ReleaseLock(1)
			})
		}
		if node.AcquireLock(1, run) {
			run()
		}
	})
	r.k.Run()
	if !seen {
		t.Fatal("node 1 did not observe the lock-protected write")
	}
}
