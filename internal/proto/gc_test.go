package proto

import (
	"testing"

	"godsm/internal/lrc"
	"godsm/internal/pagemem"
)

// gcRig writes distinct pages from both nodes across barriers with a tiny
// GC threshold, forcing collections, and checks correctness afterwards.
func TestGCCollectsAndPreservesData(t *testing.T) {
	r := newRigCfg(2, Spec{GCThreshold: 1}) // collect at every barrier with any diff stored
	// Round 1: node 0 writes page 1, node 1 writes page 2; barrier; both
	// read both pages (creating diffs); barrier (GC fires).
	r.k.At(0, func() {
		r.write(0, pagemem.Addr(1*pagemem.PageSize), 11)
		r.write(1, pagemem.Addr(2*pagemem.PageSize), 22)
	})
	r.k.Run()
	r.barrierAll(0)
	done := 0
	r.k.At(r.k.Now(), func() {
		r.nodes[0].Fault(2, func() { done++ })
		r.nodes[1].Fault(1, func() { done++ })
	})
	r.k.Run()
	if done != 2 {
		t.Fatal("cross faults did not complete")
	}
	// Frames never move, a GC flush included: pageState.frame caches them.
	frame := &r.nodes[0].Frame(2)[0]
	r.barrierAll(1) // GC triggers here (diffBytes > 1)
	if &r.nodes[0].Frame(2)[0] != frame || &r.nodes[0].Store.Frame(2)[0] != frame {
		t.Fatal("node 0's frame of page 2 moved across the GC flush")
	}

	if r.st[0].GCRuns == 0 || r.st[1].GCRuns == 0 {
		t.Fatalf("GC did not run: %d/%d", r.st[0].GCRuns, r.st[1].GCRuns)
	}
	for i, nd := range r.nodes {
		if nd.DiffHeapBytes() != 0 || nd.pfHeap != 0 {
			t.Errorf("node %d still counts %d diff and %d prefetch bytes after GC", i, nd.DiffHeapBytes(), nd.pfHeap)
		}
		// The flush sweeps the store itself, not only its counters: no
		// page holds a diff, its creator's included.
		for p, ps := range nd.pages.Each {
			if len(ps.diffs) != 0 {
				t.Errorf("node %d still holds %d diffs of page %d after GC", i, len(ps.diffs), p)
			}
		}
		for _, id := range []lrc.IntervalID{{Node: 0, Seq: 1}, {Node: 1, Seq: 1}} {
			if _, ok := nd.storedDiff(id, pagemem.PageID(1+id.Node)); ok {
				t.Errorf("node %d still serves the diff of %v after GC", i, id)
			}
		}
	}
	// Data must survive the collection.
	if got := r.read(0, pagemem.Addr(2*pagemem.PageSize)); got != 22 {
		t.Fatalf("node 0 lost data after GC: %v", got)
	}
	if got := r.read(1, pagemem.Addr(1*pagemem.PageSize)); got != 11 {
		t.Fatalf("node 1 lost data after GC: %v", got)
	}

	// Round 2: the protocol must keep working after the flush.
	r.k.At(r.k.Now(), func() { r.write(0, pagemem.Addr(1*pagemem.PageSize), 33) })
	r.k.Run()
	r.barrierAll(2)
	done2 := false
	r.k.At(r.k.Now(), func() { r.nodes[1].Fault(1, func() { done2 = true }) })
	r.k.Run()
	if !done2 {
		t.Fatal("post-GC fault never completed")
	}
	if got := r.read(1, pagemem.Addr(1*pagemem.PageSize)); got != 33 {
		t.Fatalf("post-GC read = %v, want 33", got)
	}
}

// TestGCValidatesPendingPages: a node with invalid pages at the GC barrier
// must fetch them during validation, not lose the notices.
func TestGCValidatesPendingPages(t *testing.T) {
	r := newRigCfg(3, Spec{GCThreshold: 1})
	r.k.At(0, func() {
		r.write(0, pagemem.Addr(1*pagemem.PageSize), 5)
		r.write(1, pagemem.Addr(2*pagemem.PageSize), 6)
		r.write(2, pagemem.Addr(3*pagemem.PageSize), 7)
	})
	r.k.Run()
	r.barrierAll(0) // everyone has pending notices for the others' pages
	// One demand fetch creates a stored diff, arming the GC trigger; the
	// other pages stay pending so the collection has real validation work.
	fetched := false
	r.k.At(r.k.Now(), func() { r.nodes[0].Fault(2, func() { fetched = true }) })
	r.k.Run()
	if !fetched {
		t.Fatal("priming fault never completed")
	}
	r.barrierAll(1) // GC: validation must fetch everything

	for i := 0; i < 3; i++ {
		if !r.nodes[i].PageValid(1) || !r.nodes[i].PageValid(2) || !r.nodes[i].PageValid(3) {
			t.Fatalf("node %d still has invalid pages after GC validation", i)
		}
	}
	for i := 0; i < 3; i++ {
		if got := r.read(i, pagemem.Addr(1*pagemem.PageSize)); got != 5 {
			t.Errorf("node %d page1 = %v", i, got)
		}
		if got := r.read(i, pagemem.Addr(2*pagemem.PageSize)); got != 6 {
			t.Errorf("node %d page2 = %v", i, got)
		}
		if got := r.read(i, pagemem.Addr(3*pagemem.PageSize)); got != 7 {
			t.Errorf("node %d page3 = %v", i, got)
		}
	}
	if r.st[0].GCRuns != 1 {
		t.Fatalf("GC runs = %d, want 1", r.st[0].GCRuns)
	}
	if r.st[0].GCTime <= 0 {
		t.Fatal("no GC time recorded")
	}
}

// TestGCDisabledByDefault: with no threshold the collector never runs.
func TestGCDisabledByDefault(t *testing.T) {
	r := newRig(2)
	r.k.At(0, func() { r.write(0, pagemem.Addr(1*pagemem.PageSize), 1) })
	r.k.Run()
	r.barrierAll(0)
	r.barrierAll(1)
	if r.st[0].GCRuns != 0 {
		t.Fatal("GC ran without a threshold")
	}
}
