package proto

import (
	"testing"

	"godsm/internal/lrc"
	"godsm/internal/netsim"
	"godsm/internal/pagemem"
	"godsm/internal/sim"
	"godsm/internal/stats"
)

// rig wires a small cluster of bare protocol nodes for white-box tests.
type rig struct {
	k     *sim.Kernel
	net   *netsim.Network
	log   [][]*lrc.Interval // the machine's interval log, shared by the nodes
	nodes []*Node
	st    []stats.Node
	costs Costs
}

func newRig(n int) *rig { return newRigCfg(n, Spec{}) }

// newRigCfg builds a rig whose nodes run under cfg (protocol selection and
// per-backend knobs).
func newRigCfg(n int, cfg Spec) *rig {
	r := &rig{k: sim.NewKernel(), costs: DefaultCosts(), log: make([][]*lrc.Interval, n)}
	r.st = make([]stats.Node, n)
	r.k.Bus().Subscribe(stats.NewCollector(r.st))
	r.net = netsim.New(r.k, n, netsim.DefaultConfig(), func(m *netsim.Message) {
		r.nodes[m.Dst].Deliver(m)
	})
	for i := 0; i < n; i++ {
		nd := NewNode(i, r.log, r.k, sim.NewCPU(r.k), &r.costs, cfg)
		nd.Send = r.net.Send
		r.nodes = append(r.nodes, nd)
	}
	return r
}

// write modifies one float64 on a node's local frame through the protocol
// entry points (EnsureWritable + direct frame write).
func (r *rig) write(node int, a pagemem.Addr, v float64) {
	nd := r.nodes[node]
	p := pagemem.PageOf(a)
	if !nd.PageValid(p) {
		panic("rig.write on invalid page; fault first")
	}
	nd.EnsureWritable(p)
	pagemem.PutF64(nd.Frame(p), pagemem.OffsetOf(a), v)
}

func (r *rig) read(node int, a pagemem.Addr) float64 {
	nd := r.nodes[node]
	return pagemem.GetF64(nd.Frame(pagemem.PageOf(a)), pagemem.OffsetOf(a))
}

// barrierAll runs a full barrier across all nodes at the current time.
func (r *rig) barrierAll(id int) {
	for _, nd := range r.nodes {
		nd.Barrier(id, func() {})
	}
	r.k.Run()
}

const page0 = pagemem.Addr(pagemem.PageSize) // first heap page

func TestWriteNoticePropagationViaBarrier(t *testing.T) {
	r := newRig(2)
	r.k.At(0, func() { r.write(0, page0, 42) })
	r.k.Run()
	r.barrierAll(0)

	if r.nodes[1].PageValid(1) {
		t.Fatal("node 1 should have invalidated page 1 after the barrier")
	}
	// Fault brings the diff over.
	valid := false
	r.k.At(r.k.Now(), func() {
		r.nodes[1].Fault(1, func() { valid = true })
	})
	r.k.Run()
	if !valid {
		t.Fatal("fault never completed")
	}
	if got := r.read(1, page0); got != 42 {
		t.Fatalf("node 1 read %v, want 42", got)
	}
	if r.st[1].Misses != 1 {
		t.Fatalf("misses = %d, want 1", r.st[1].Misses)
	}
}

func TestLockTokenCaching(t *testing.T) {
	r := newRig(2)
	nd := r.nodes[0] // manager of lock 0 is node 0
	granted := 0
	r.k.At(0, func() {
		if !nd.AcquireLock(0, nil) {
			t.Error("manager's first acquire should be immediate")
		}
		granted++
		nd.ReleaseLock(0)
		if !nd.AcquireLock(0, nil) {
			t.Error("re-acquire of cached token should be immediate")
		}
		granted++
		nd.ReleaseLock(0)
	})
	r.k.Run()
	if granted != 2 {
		t.Fatalf("granted = %d", granted)
	}
	if msgs := r.net.TotalStats().MsgsSent; msgs != 0 {
		t.Fatalf("local lock acquires sent %d messages, want 0", msgs)
	}
	if r.st[0].LocalLockAcqs != 2 || r.st[0].RemoteLockAcqs != 0 {
		t.Fatalf("lock stats local=%d remote=%d", r.st[0].LocalLockAcqs, r.st[0].RemoteLockAcqs)
	}
}

func TestLockGrantCarriesNotices(t *testing.T) {
	r := newRig(2)
	// Node 0 (manager+owner) writes page under the lock, releases; node 1
	// acquires: the grant must invalidate the page at node 1.
	r.k.At(0, func() {
		if !r.nodes[0].AcquireLock(0, nil) {
			t.Error("expected immediate acquire")
		}
		r.write(0, page0, 7)
		r.nodes[0].ReleaseLock(0)
	})
	acquired := false
	r.k.At(1000, func() {
		r.nodes[1].AcquireLock(0, func() { acquired = true })
	})
	r.k.Run()
	if !acquired {
		t.Fatal("node 1 never acquired the lock")
	}
	if r.nodes[1].PageValid(1) {
		t.Fatal("grant should have invalidated page 1 at node 1")
	}
	if r.st[1].RemoteLockAcqs != 1 {
		t.Fatalf("remote lock acqs = %d", r.st[1].RemoteLockAcqs)
	}
	if r.st[1].LockStall <= 0 {
		t.Fatal("no lock stall recorded")
	}
}

func TestLockChainThroughManager(t *testing.T) {
	r := newRig(3)
	// Lock 1's manager is node 1. Node 0 acquires, holds; node 2 requests;
	// node 0's release must hand the token directly to node 2.
	got0, got2 := false, false
	r.k.At(0, func() {
		r.nodes[0].AcquireLock(1, func() {
			got0 = true
			r.write(0, page0, 3)
			// Hold for a while; node 2's forwarded request arrives in the
			// meantime and must queue at node 0.
			r.k.After(5*sim.Millisecond, func() { r.nodes[0].ReleaseLock(1) })
		})
	})
	r.k.At(1*sim.Millisecond, func() {
		r.nodes[2].AcquireLock(1, func() { got2 = true })
	})
	r.k.Run()
	if !got0 || !got2 {
		t.Fatalf("acquires: node0=%v node2=%v", got0, got2)
	}
	if r.nodes[2].PageValid(1) {
		t.Fatal("node 2 should see node 0's write notice via the chained grant")
	}
}

func TestPrefetchCacheServesFault(t *testing.T) {
	r := newRig(2)
	r.k.At(0, func() { r.write(0, page0, 5) })
	r.k.Run()
	r.barrierAll(0)

	r.k.At(r.k.Now(), func() {
		if n := r.nodes[1].Prefetch(1); n != 1 {
			t.Errorf("prefetch issued %d messages, want 1", n)
		}
	})
	r.k.Run() // reply arrives, lands in the cache

	if r.nodes[1].PageValid(1) {
		t.Fatal("non-binding prefetch must not validate the page")
	}
	valid := false
	r.k.At(r.k.Now(), func() { r.nodes[1].Fault(1, func() { valid = true }) })
	before := r.net.TotalStats().MsgsSent
	r.k.Run()
	after := r.net.TotalStats().MsgsSent
	if !valid {
		t.Fatal("fault never completed")
	}
	if after != before {
		t.Fatalf("pf-hit fault sent %d messages, want 0", after-before)
	}
	if r.st[1].FaultPfHit != 1 || r.st[1].CacheHits != 1 || r.st[1].Misses != 0 {
		t.Fatalf("stats: hit=%d cache=%d miss=%d", r.st[1].FaultPfHit, r.st[1].CacheHits, r.st[1].Misses)
	}
	if got := r.read(1, page0); got != 5 {
		t.Fatalf("read %v, want 5", got)
	}
}

func TestPrefetchUnnecessaryOnValidPage(t *testing.T) {
	r := newRig(2)
	r.k.At(0, func() {
		if n := r.nodes[1].Prefetch(1); n != 0 {
			t.Errorf("prefetch of valid page issued %d messages", n)
		}
	})
	r.k.Run()
	if r.st[1].PfUnnecessary != 1 || r.st[1].PfCalls != 1 {
		t.Fatalf("unnecessary=%d calls=%d", r.st[1].PfUnnecessary, r.st[1].PfCalls)
	}
}

func TestPrefetchLateClassification(t *testing.T) {
	r := newRig(2)
	r.k.At(0, func() { r.write(0, page0, 5) })
	r.k.Run()
	r.barrierAll(0)

	// Prefetch and fault immediately after: the reply cannot have arrived.
	done := false
	r.k.At(r.k.Now(), func() {
		r.nodes[1].Prefetch(1)
		r.k.After(sim.Microsecond, func() {
			r.nodes[1].Fault(1, func() { done = true })
		})
	})
	r.k.Run()
	if !done {
		t.Fatal("fault never completed")
	}
	if r.st[1].FaultPfLate != 1 {
		t.Fatalf("late=%d (hit=%d inval=%d nopf=%d)", r.st[1].FaultPfLate,
			r.st[1].FaultPfHit, r.st[1].FaultPfInvalided, r.st[1].FaultNoPf)
	}
	if r.st[1].Misses != 1 {
		t.Fatalf("misses = %d, want 1 (late prefetch retries normally)", r.st[1].Misses)
	}
}

func TestPrefetchInvalidatedClassification(t *testing.T) {
	r := newRig(2)
	r.k.At(0, func() { r.write(0, page0, 1) })
	r.k.Run()
	r.barrierAll(0)

	// Node 1 prefetches; the reply arrives. Then node 0 writes again and a
	// second barrier delivers a new write notice: the cached prefetch is
	// now insufficient — the fault must classify as invalidated.
	r.k.At(r.k.Now(), func() { r.nodes[1].Prefetch(1) })
	r.k.Run()
	r.k.At(r.k.Now(), func() { r.write(0, page0, 2) })
	r.k.Run()
	r.barrierAll(1)

	done := false
	r.k.At(r.k.Now(), func() { r.nodes[1].Fault(1, func() { done = true }) })
	r.k.Run()
	if !done {
		t.Fatal("fault never completed")
	}
	if r.st[1].FaultPfInvalided != 1 {
		t.Fatalf("invalidated=%d (hit=%d late=%d nopf=%d)", r.st[1].FaultPfInvalided,
			r.st[1].FaultPfHit, r.st[1].FaultPfLate, r.st[1].FaultNoPf)
	}
	if got := r.read(1, page0); got != 2 {
		t.Fatalf("read %v, want 2 (must apply both diffs in order)", got)
	}
}

func TestIntervalSplitOnPrefetchOfDirtyPage(t *testing.T) {
	r := newRig(2)
	// Node 0 writes and releases (notice propagates via barrier), then
	// keeps writing in its open interval. Node 1's prefetch arrives while
	// the page is dirty: serving it must not lose the open-interval
	// modifications, and node 0's next write must land in a new notice.
	r.k.At(0, func() { r.write(0, page0, 1) })
	r.k.Run()
	r.barrierAll(0)
	r.k.At(r.k.Now(), func() { r.write(0, page0+8, 2) }) // open-interval mod
	r.k.Run()

	vcBefore := r.nodes[0].VC()[0]
	r.k.At(r.k.Now(), func() { r.nodes[1].Prefetch(1) })
	r.k.Run()

	// Node 0 writes again: this must create a fresh twin and a new notice.
	r.k.At(r.k.Now(), func() { r.write(0, page0+16, 3) })
	r.k.Run()
	r.barrierAll(1)
	vcAfter := r.nodes[0].VC()[0]
	if vcAfter <= vcBefore {
		t.Fatalf("vc did not advance across prefetch-split: %d -> %d", vcBefore, vcAfter)
	}

	done := false
	r.k.At(r.k.Now(), func() { r.nodes[1].Fault(1, func() { done = true }) })
	r.k.Run()
	if !done {
		t.Fatal("fault never completed")
	}
	for i, want := range []float64{1, 2, 3} {
		if got := r.read(1, page0+pagemem.Addr(8*i)); got != want {
			t.Fatalf("word %d = %v, want %v", i, got, want)
		}
	}
}

func TestEmptyDiffServed(t *testing.T) {
	r := newRig(2)
	// Node 0 twins the page but writes the value it already holds: the
	// diff is empty, yet the protocol must still answer requests for it.
	r.k.At(0, func() { r.write(0, page0, 0) })
	r.k.Run()
	r.barrierAll(0)
	done := false
	r.k.At(r.k.Now(), func() { r.nodes[1].Fault(1, func() { done = true }) })
	r.k.Run()
	if !done {
		t.Fatal("fault on empty diff never completed")
	}
	if got := r.read(1, page0); got != 0 {
		t.Fatalf("read %v, want 0", got)
	}
}

func TestConcurrentWritersMergeViaTwinMaintenance(t *testing.T) {
	r := newRig(2)
	// Both nodes write disjoint words of the same page concurrently, then
	// node 1 faults after a barrier: its local writes and node 0's diff
	// must both survive, and node 1's own later diff must not include
	// node 0's bytes (twin maintenance).
	r.k.At(0, func() {
		r.write(0, page0, 10)
		r.write(1, page0+8, 20)
	})
	r.k.Run()
	r.barrierAll(0)
	done0, done1 := false, false
	r.k.At(r.k.Now(), func() {
		r.nodes[0].Fault(1, func() { done0 = true })
		r.nodes[1].Fault(1, func() { done1 = true })
	})
	r.k.Run()
	if !done0 || !done1 {
		t.Fatal("faults never completed")
	}
	for n := 0; n < 2; n++ {
		if got := r.read(n, page0); got != 10 {
			t.Fatalf("node %d word0 = %v, want 10", n, got)
		}
		if got := r.read(n, page0+8); got != 20 {
			t.Fatalf("node %d word1 = %v, want 20", n, got)
		}
	}
}

func TestMissingIvs(t *testing.T) {
	r := newRig(3)
	r.k.At(0, func() {
		r.write(0, page0, 1)
		r.write(1, page0+8, 2)
	})
	r.k.Run()
	r.barrierAll(0)
	// Node 2 knows both intervals after the barrier; a peer with an empty
	// VC lacks both (excluding node 2's own, of which there are none).
	missing := r.nodes[2].missingIvs(lrc.NewVC(3), 2)
	if len(missing) != 2 {
		t.Fatalf("missing = %d intervals, want 2", len(missing))
	}
	// A peer that has seen everything lacks nothing.
	missing = r.nodes[2].missingIvs(r.nodes[2].VC(), 2)
	if len(missing) != 0 {
		t.Fatalf("missing = %d, want 0", len(missing))
	}
}
