package proto

import (
	"fmt"
	"slices"
	"testing"

	"godsm/internal/lrc"
	"godsm/internal/pagemem"
)

// White-box tests of interval-record intake (intervals.go): the held
// watermark, its early set, rec's mask, and the pending lists an intake
// sizes. The orders a lossy network, a lock chain or a collection produce
// are constructed here by driving record, intake and gcFlush directly.

// takeAt has node take in, as a release carrying vector time v would, the
// published records of ids.
func (r *rig) takeAt(node int, v lrc.VC, ids ...lrc.IntervalID) {
	var ivs []*lrc.Interval
	for _, id := range ids {
		ivs = append(ivs, r.log[id.Node][id.Seq-1])
	}
	r.nodes[node].intake(ivs, v)
}

// catchInvariant runs f and returns the *InvariantError it panics with, or
// nil if it returns normally.
func catchInvariant(f func()) (ie *InvariantError) {
	defer func() {
		if p := recover(); p != nil {
			ie, _ = p.(*InvariantError)
			if ie == nil {
				panic(p)
			}
		}
	}()
	f()
	return nil
}

// (a) A record taken ahead of a gap waits in early; the record that closes
// the gap absorbs it, both invalidate the page in arrival order, and both
// are forwarded.
func TestRecordAheadOfAGapIsAbsorbed(t *testing.T) {
	r := newRig(3)
	q1, q2, q3 := lrc.IntervalID{Node: 0, Seq: 1}, lrc.IntervalID{Node: 0, Seq: 2}, lrc.IntervalID{Node: 0, Seq: 3}
	for _, id := range []lrc.IntervalID{q1, q2, q3} {
		r.publish(id, lrc.VC{id.Seq, 0, 0}, pg1)
	}
	nd := r.nodes[1]
	r.takeAt(1, lrc.VC{1, 0, 0}, q1)
	nd.install(pg1, nil, -1, nil) // (0,1) applied: the page is valid again
	r.takeAt(1, lrc.VC{1, 0, 0}, q3)
	if nd.held[0] != 1 || !slices.Equal(nd.early, idSet{q3}) || nd.rec(0, 2) != nil || nd.rec(0, 3) == nil {
		t.Fatalf("after (0,3) alone: held %d, early %v, rec(0,2) %v; want (0,3) early and (0,2) not held",
			nd.held[0], nd.early, nd.rec(0, 2))
	}
	r.takeAt(1, lrc.VC{3, 0, 0}, q2)
	if nd.held[0] != 3 || len(nd.early) != 0 {
		t.Fatalf("after (0,2): held %d, early %v; want the watermark at 3 and early empty", nd.held[0], nd.early)
	}
	if got := nd.page(pg1).pending; !slices.Equal(got, []lrc.IntervalID{q3, q2}) {
		t.Fatalf("page 1 pending %v, want [(0,3) (0,2)] in arrival order", got)
	}
	var got []lrc.IntervalID
	for _, iv := range nd.missingIvs(lrc.VC{1, 0, 0}, -1) {
		got = append(got, iv.ID)
	}
	if !slices.Equal(got, []lrc.IntervalID{q2, q3}) {
		t.Fatalf("missingIvs above (0,1) = %v, want (0,2) and (0,3)", got)
	}
}

// (b) A record the barrier manager takes in deferred and the release then
// names is invalidated once: by the intake, not again by flushDeferred.
func TestDeferredRecordInvalidatesOnce(t *testing.T) {
	r := newRig(3)
	id := lrc.IntervalID{Node: 2, Seq: 1}
	iv := r.publish(id, lrc.VC{0, 0, 1}, pg1)
	nd := r.nodes[1]
	if _, now := nd.record(iv, true); now || len(nd.page(pg1).pending) != 0 {
		t.Fatalf("a deferred record invalidated the page at once (pending %v)", nd.page(pg1).pending)
	}
	r.takeAt(1, lrc.VC{0, 0, 1}, id)
	nd.flushDeferred()
	if got := nd.page(pg1).pending; !slices.Equal(got, []lrc.IntervalID{id}) || len(nd.deferredSet) != 0 {
		t.Fatalf("page 1 pending %v (deferred %v), want (2,1) exactly once", got, nd.deferredSet)
	}
}

// (c) A collection masks the records it covers: rec reads nil below
// gcBase though the machine's log still holds them, and a grant or
// release that would forward them is an invariant error.
func TestCollectedRecordsAreMasked(t *testing.T) {
	r := newRigCfg(2, Spec{GCThreshold: 1})
	r.k.At(0, func() { r.write(0, page0, 1) })
	r.k.Run()
	r.barrierAll(0)
	faultRead(r, 1, page0)
	r.barrierAll(1) // collects: node 1 holds node 0's diff of page 1
	nd := r.nodes[1]
	if nd.gcBase[0] != 1 || r.st[1].GCRuns == 0 {
		t.Fatalf("no collection covered (0,1): gcBase %v", nd.gcBase)
	}
	if nd.rec(0, 1) != nil || r.log[0][0] == nil {
		t.Fatalf("after the collection rec(0,1) = %v with the log holding %v; want it masked", nd.rec(0, 1), r.log[0][0])
	}
	ie := catchInvariant(func() { nd.missingIvs(lrc.NewVC(2), -1) })
	if ie == nil || ie.Node != 1 {
		t.Fatalf("missingIvs below gcBase raised %v, want an InvariantError at node 1", ie)
	}
}

// releaseEpisode runs one barrier episode on r: each node makes the diff of
// its previous write (as a reader's request would), writes its own page
// again, and the barrier releases everyone; then each node validates every
// page the release invalidated, as its reads would. Nothing but the
// barrier's records and messages touches the protocol.
func (r *rig) releaseEpisode() {
	for i, nd := range r.nodes {
		p := pagemem.PageID(i + 1)
		nd.makeOwnDiff(p)
		r.write(i, pagemem.Addr(p)*pagemem.PageSize, 1)
	}
	r.barrierAll(0)
	for _, nd := range r.nodes {
		for p, ps := range nd.pages.Each {
			if len(ps.pending) > 0 {
				nd.install(p, nil, -1, nil)
			}
		}
	}
}

// episodeAllocs returns the allocations one steady-state barrier episode
// makes on n nodes under a tree barrier.
func episodeAllocs(n int) float64 {
	r := newRigCfg(n, Spec{Barrier: "tree"})
	r.releaseEpisode()
	r.releaseEpisode()
	return testing.AllocsPerRun(8, r.releaseEpisode)
}

// A barrier release hands every node the records of every other node: N²
// intakes. Their host cost must stay linear in allocations: none per
// record held, and a pending list is grown at most once per batch, so an
// episode's allocations — the messages, the records, the diffs — grow with
// N, not with N².
func TestBarrierIntakeAllocs(t *testing.T) {
	small, big := episodeAllocs(32), episodeAllocs(128)
	if big > 4*small*1.25 {
		t.Fatalf("a barrier episode allocates %.0f times on 32 nodes and %.0f on 128, want at most linear growth (%.0f)",
			small, big, 4*small*1.25)
	}
}

// BenchmarkBarrierRelease is one barrier episode — every node closes an
// interval, a tree barrier releases them all — at the machine widths of the
// big_machine workload: the N² record intake dominates.
func BenchmarkBarrierRelease(b *testing.B) {
	for _, n := range []int{256, 1024} {
		b.Run(fmt.Sprintf("procs=%d", n), func(b *testing.B) {
			r := newRigCfg(n, Spec{Barrier: "tree"})
			r.releaseEpisode()
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				r.releaseEpisode()
			}
		})
	}
}
