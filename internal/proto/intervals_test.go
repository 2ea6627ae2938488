package proto

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"godsm/internal/lrc"
	"godsm/internal/netsim"
	"godsm/internal/pagemem"
	"godsm/internal/sim"
)

// White-box tests of interval-record intake (intervals.go): the held
// watermark, the out-of-band intake's causal hold, rec's mask, and the
// pending lists an intake sizes. The orders a lossy network, a lock chain
// or a collection produce are constructed here by driving record, intake,
// the eager-notice handler and gcFlush directly.

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

// (a) Every path takes a creator's records in order, so a record taken
// ahead of a gap is an invariant error, and the watermark does not move.
func TestRecordAheadOfAGapIsAnInvariantError(t *testing.T) {
	r := newRig(3)
	q1, q3 := lrc.IntervalID{Node: 0, Seq: 1}, lrc.IntervalID{Node: 0, Seq: 3}
	for seq := int32(1); seq <= 3; seq++ {
		r.publish(lrc.IntervalID{Node: 0, Seq: seq}, lrc.VC{seq, 0, 0}, pg1)
	}
	nd := r.nodes[1]
	r.takeAt(1, lrc.VC{1, 0, 0}, q1)
	ie := catchInvariant(func() { r.takeAt(1, lrc.VC{1, 0, 0}, q3) })
	if ie == nil || ie.Node != 1 {
		t.Fatalf("taking (0,3) above a watermark at 1 raised %v, want an InvariantError at node 1", ie)
	}
	if nd.held[0] != 1 || nd.rec(0, 3) != nil {
		t.Fatalf("after the gap: held %d, rec(0,3) %v; want the watermark at 1 and (0,3) not held", nd.held[0], nd.rec(0, 3))
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

// (d) An eager notice waits for its cause. Node 1 took node 2's lock and
// then wrote page 1, so its notice (1,1) was created after (2,1), which
// wrote the page before it. The two notices travel over different pairs,
// which FIFO does not order; when (1,1) reaches node 0 first, node 0 must
// hold it: a fault in between would apply (1,1)'s diff alone, and (2,1)'s
// older diff, applied at a later fault, would overwrite it.
func TestEagerNoticeWaitsForItsCause(t *testing.T) {
	r := newRigCfg(3, Spec{Protocol: "erc"})
	early, cause := lrc.IntervalID{Node: 1, Seq: 1}, lrc.IntervalID{Node: 2, Seq: 1}
	causeIv := r.publish(cause, lrc.VC{0, 0, 1}, pg1)
	earlyIv := r.publish(early, lrc.VC{0, 1, 1}, pg1)
	nd := r.nodes[0]
	erc := nd.coh.(*lrcCoherence)
	erc.handleEagerNotice(&msgEagerNotice{Iv: earlyIv})
	if !nd.PageValid(pg1) || nd.vc[1] != 0 || nd.rec(1, 1) != nil {
		t.Fatalf("after (1,1) alone: page valid %v, vc %v, rec(1,1) %v; want it held back, the page untouched",
			nd.PageValid(pg1), nd.vc, nd.rec(1, 1))
	}
	erc.handleEagerNotice(&msgEagerNotice{Iv: causeIv})
	if got := nd.page(pg1).pending; !slices.Equal(got, []lrc.IntervalID{cause, early}) {
		t.Fatalf("page 1 pending %v, want [(2,1) (1,1)]: the cause first", got)
	}
	if nd.vc[1] != 1 || nd.vc[2] != 1 || len(nd.offered) != 0 {
		t.Fatalf("after (2,1): vc %v, offered %d; want both taken", nd.vc, len(nd.offered))
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

// episodeAllocsPerNode bounds a steady episode's allocations per node: the
// messages, the records, the diffs, and the arena chunks pending lists are
// carved from. A 128-node episode makes 1 453 (11.4 a node); cloning the
// release VC once per child instead of once per fan-down makes 1 580.
const episodeAllocsPerNode = 12

// A barrier release hands every node the records of every other node: N²
// intakes. Their host cost must stay linear in allocations: none per
// record held, and a pending list is grown at most once per batch, so an
// episode's allocations — the messages, the records, the diffs — grow with
// N, not with N², and stay within episodeAllocsPerNode a node.
func TestBarrierIntakeAllocs(t *testing.T) {
	small, big := episodeAllocs(32), episodeAllocs(128)
	if big > 4*small*1.25 {
		t.Fatalf("a barrier episode allocates %.0f times on 32 nodes and %.0f on 128, want at most linear growth (%.0f)",
			small, big, 4*small*1.25)
	}
	if big > 128*episodeAllocsPerNode {
		t.Fatalf("a barrier episode on 128 nodes allocates %.0f times, want at most %d a node (%d)",
			big, episodeAllocsPerNode, 128*episodeAllocsPerNode)
	}
}

// coldEpisodeAllocs returns the allocations of the first barrier episode on
// a fresh n-node rig under a tree barrier, where every pending list is new.
func coldEpisodeAllocs(n int) uint64 {
	r := newRigCfg(n, Spec{Barrier: "tree"})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r.releaseEpisode()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// The first release gives each node a pending list for every page another
// node wrote: N² new lists. Carved from the node's id arena they cost an
// allocation per chunk, not per list, so the episode grows about linearly
// with N (5.0× from 32 to 128 nodes; 11.2× when each list was its own
// allocation).
func TestColdReleaseAllocs(t *testing.T) {
	small, big := coldEpisodeAllocs(32), coldEpisodeAllocs(128)
	if big > 6*small {
		t.Fatalf("a first barrier episode allocates %d times on 32 nodes and %d on 128, want at most 6× (%d)",
			small, big, 6*small)
	}
}

// Lists carved back to back share a chunk, and the three-index capacity
// keeps them apart: filling the first past its capacity moves it and
// leaves the second as it was.
func TestCarvedListsDoNotOverlap(t *testing.T) {
	nd := newRig(2).nodes[0]
	first, second := nd.carve(4), nd.carve(4)
	if len(nd.idArena) != 8 || &nd.idArena[:5][4] != &second[:1][0] {
		t.Fatalf("the second list was not carved right after the first")
	}
	want := []lrc.IntervalID{{Node: 1, Seq: 1}, {Node: 1, Seq: 2}}
	second = append(second, want...)
	for seq := int32(1); seq <= 6; seq++ {
		first = append(first, lrc.IntervalID{Node: 0, Seq: seq})
	}
	if !slices.Equal(second, want) || !slices.Equal(nd.idArena[4:6], want) {
		t.Fatalf("after the first list outgrew its slot the second reads %v (arena %v), want %v",
			second, nd.idArena[4:6], want)
	}
	if len(first) != 6 || first[5].Seq != 6 {
		t.Fatalf("the first list reads %v, want (0,1)…(0,6)", first)
	}
}

// A fan-down gives every child's release one snapshot of the sender's
// vector time, shared and read-only; the sender's later intervals do not
// reach the releases already sent. Node 1 combines for nodes 3 and 4.
func TestFanDownSharesOneReleaseVC(t *testing.T) {
	r := newRigCfg(7, Spec{Barrier: "tree", BarrierFanout: 2})
	sent := map[int][]*msgBarRelease{} // by sender
	for _, nd := range r.nodes {
		nd.Send = func(m *netsim.Message) sim.Time {
			if rel, ok := m.Payload.(*msgBarRelease); ok {
				sent[int(m.Src)] = append(sent[int(m.Src)], rel)
			}
			return r.net.Send(m)
		}
	}
	for i := range r.nodes {
		r.write(i, pagemem.Addr(i+1)*pagemem.PageSize, 1)
	}
	r.barrierAll(0)
	merged := slices.Clone(r.nodes[1].vc)
	for _, from := range []int{0, 1, 2} {
		rels := sent[from]
		if len(rels) != 2 {
			t.Fatalf("node %d sent %d releases, want one to each of its two children", from, len(rels))
		}
		if &rels[0].VC[0] != &rels[1].VC[0] || &rels[0].VC[0] == &r.nodes[from].vc[0] {
			t.Fatalf("node %d's releases carry VCs %p and %p (its own %p), want one snapshot apart from its own",
				from, rels[0].VC, rels[1].VC, r.nodes[from].vc)
		}
	}
	r.write(1, pagemem.Addr(len(r.nodes)+1)*pagemem.PageSize, 2) // a page nobody wrote
	r.nodes[1].closeInterval()
	if slices.Equal(r.nodes[1].vc, merged) {
		t.Fatalf("node 1's interval did not advance its vector time %v", merged)
	}
	for _, rel := range sent[1] {
		if !slices.Equal(rel.VC, merged) {
			t.Fatalf("node 1's sent release reads VC %v after its next interval, want %v", rel.VC, merged)
		}
	}
}

// BenchmarkBarrierRelease is one barrier episode — every node closes an
// interval, a tree barrier releases them all — at the machine widths of the
// big_machine workload: the N² record intake dominates. The steady case
// repeats episodes on one rig; the cold case is the first episode on a
// fresh rig, built off the clock, where every pending list is new.
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
		b.Run(fmt.Sprintf("cold/procs=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				b.StopTimer()
				r := newRigCfg(n, Spec{Barrier: "tree"})
				b.StartTimer()
				r.releaseEpisode()
			}
		})
	}
}
