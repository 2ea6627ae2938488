package proto

import (
	"slices"
	"strings"
	"testing"
	"unsafe"

	"godsm/internal/lrc"
	"godsm/internal/pagemem"
)

// White-box tests of the home-based engine's two ordering rules (hlrc.go):
// a home moves whole, and a copy is served past the requester's own writes.
// Each drives the handlers directly, so the message order a lossy network or
// a deep barrier tree produces once in a few hundred runs is constructed
// here, not hoped for. Page 1 (page0) is homed at node 1 throughout.

const pg1 = pagemem.PageID(1)

func migrateRig(n int) *rig { return newRigCfg(n, Spec{Protocol: "hlrc", HomePolicy: "migrate"}) }

func (r *rig) hl(node int) *hlrcCoherence { return r.nodes[node].coh.(*hlrcCoherence) }

// wordFlush builds the flush of interval id that sets word w of page 1 to v.
func wordFlush(id lrc.IntervalID, w int, v float64) *msgHomeFlush {
	twin, cur := make([]byte, pagemem.PageSize), make([]byte, pagemem.PageSize)
	pagemem.PutF64(cur, 8*w, v)
	return &msgHomeFlush{From: id.Node, ID: id, Page: pg1, Diff: pagemem.MakeDiff(pg1, twin, cur)}
}

// learn takes in, as a release would, the record that interval id wrote
// page 1, raising node's vector time to cover it.
func (r *rig) learn(node int, id lrc.IntervalID) {
	vc := r.nodes[node].vc.Clone()
	vc[id.Node] = id.Seq
	r.nodes[node].intake([]*lrc.Interval{r.publish(id, vc, pg1)}, vc)
}

// publish builds the record of interval id, which its creator never closed,
// and enters it in the machine's log as the creator would have.
func (r *rig) publish(id lrc.IntervalID, vc lrc.VC, pages ...pagemem.PageID) *lrc.Interval {
	iv := lrc.NewInterval(id, vc, pages)
	l := r.log[id.Node]
	if len(l) < int(id.Seq) {
		l = append(l, make([]*lrc.Interval, int(id.Seq)-len(l))...)
	}
	l[id.Seq-1] = iv
	r.log[id.Node] = l
	return iv
}

// invariantFrom runs f, which must panic with an *InvariantError about page
// 1, and returns it.
func invariantFrom(t *testing.T, what string, f func()) (ie *InvariantError) {
	t.Helper()
	defer func() {
		t.Helper()
		if ie, _ = recover().(*InvariantError); ie == nil || ie.Page != int64(pg1) {
			t.Fatalf("%s did not raise an InvariantError about page 1 (got %v)", what, ie)
		}
	}()
	f()
	return nil
}

// The layouts the benchmark's live_heap_mb and the wire sizes lean on: the
// ordering fields live in padding. pageState is 80 bytes, not the 56 it was
// before a page's diffs hung off it (PR 23): every node pays a 64-entry leaf
// of them per touched region, and the slice header is what replaced the
// node's map of maps. live_heap_mb measured with the header in, parent ->
// PR 23: paper_grid 20.54 -> 10.90, comm_bound 17.31 -> 11.05, big_machine
// 232.97 -> 189.00, backend_mix 25.40 -> 21.22, race_checked 27.79 -> 21.56.
// Growing the struct again wants those five re-measured.
func TestOrderingFieldsFitTheirPadding(t *testing.T) {
	if got := unsafe.Sizeof(pageState{}); got != 80 {
		t.Errorf("pageState is %d bytes, want 80", got)
	}
	if got := unsafe.Sizeof(PageAcc{}); got != 32 {
		t.Errorf("PageAcc is %d bytes, want 32", got)
	}
	if got := unsafe.Sizeof(accCell{}); got != 24 {
		t.Errorf("accCell is %d bytes, want 24", got)
	}
	if got := unsafe.Sizeof(msgPageReq{}); got != 48 {
		t.Errorf("msgPageReq is %d bytes, want 48", got)
	}
}

// Rule 1: a demoted home with a flush from below the cut outstanding ships
// nothing until it lands, then ships a base that contains it; a flush from
// above the cut can only be a bug.
func TestDemotedHomeDrainsBeforeShipping(t *testing.T) {
	r := migrateRig(3)
	move := []HomeMove{{Page: pg1, Home: 2}}
	// Node 1's release covers (0,1), which wrote the page; its flush is late.
	r.learn(1, lrc.IntervalID{Node: 0, Seq: 1})
	r.hl(1).applyMoves(move)
	r.k.Run()
	if n, _ := r.net.KindStats(KindHomeXfer); n != 0 || r.hl(1).out[pg1] == nil {
		t.Fatalf("demoted home shipped %d bases with a flush from below the cut outstanding", n)
	}
	invariantFrom(t, "a flush from above the cut at a demoted home", func() {
		r.hl(1).handleHomeFlush(wordFlush(lrc.IntervalID{Node: 0, Seq: 2}, 0, 9))
	})

	r.hl(1).handleHomeFlush(wordFlush(lrc.IntervalID{Node: 0, Seq: 1}, 0, 42))
	r.k.Run()
	if n, _ := r.net.KindStats(KindHomeXfer); n != 1 || r.hl(1).out[pg1] != nil {
		t.Fatalf("%d bases shipped once the straggler landed, want 1", n)
	}
	r.learn(2, lrc.IntervalID{Node: 0, Seq: 1})
	r.hl(2).applyMoves(move)
	if got := r.read(2, page0); got != 42 || !r.hl(2).covered(pg1, lrc.IntervalID{Node: 0, Seq: 1}) {
		t.Fatalf("new home reads %v (want 42) from a base claiming %v", got, r.hl(2).applied[pg1])
	}
}

// Hole 2: a former home named home again parks a demand request that
// arrives before its own release, and serves it once the base installs.
func TestFormerHomeParksRequestThatOutrunsItsRelease(t *testing.T) {
	r := migrateRig(3)
	away, back := []HomeMove{{Page: pg1, Home: 2}}, []HomeMove{{Page: pg1, Home: 1}}
	for i := range r.nodes {
		r.hl(i).applyMoves(away)
	}
	r.k.Run()
	r.write(2, page0, 7.5)
	iv := r.nodes[2].closeInterval()

	// The next release moves the page back; node 1's copy of it is late.
	for _, i := range []int{0, 2} {
		r.nodes[i].intake([]*lrc.Interval{iv}, iv.VC)
		r.hl(i).applyMoves(back)
	}
	done := false
	r.nodes[0].Fault(pg1, func() { done = true })
	r.k.Run()
	if done || len(r.hl(1).parked[pg1]) != 1 {
		t.Fatalf("request ahead of the release: done=%v, %d parked, want it parked", done, len(r.hl(1).parked[pg1]))
	}
	r.nodes[1].intake([]*lrc.Interval{iv}, iv.VC)
	r.hl(1).applyMoves(back)
	r.k.Run()
	if got := r.read(0, page0); !done || got != 7.5 {
		t.Fatalf("after the install: done=%v, read %v, want 7.5", done, got)
	}
}

// Rule 2 (hole 4): a prefetch request that overtook the requester's own
// flush is answered with a copy that claims nothing, the same request as a
// demand parks until the flush lands, and a requester that never flushed
// the page (Own 0) waits for nothing.
func TestCopyServedPastRequestersOwnWrites(t *testing.T) {
	r := hlrcRig(3)
	home := r.hl(1)
	theirs := lrc.IntervalID{Node: 2, Seq: 1}
	if !home.covered(pg1, lrc.IntervalID{Node: 0, Seq: 0}) {
		t.Fatal("sequence 0 is not covered on a page with no applied vector")
	}
	home.handleHomeFlush(wordFlush(theirs, 1, 5))

	// The cache keeps one reply's (data, covers) pair: the copy that claims
	// nothing must not inherit the claims of the one before it.
	home.handlePageReq(&msgPageReq{From: 0, Page: pg1, Need: []lrc.IntervalID{theirs}, Prefetch: true})
	r.k.Run()
	if pg := r.hl(0).pfCache[pg1]; pg == nil || !pg.covers.has(theirs) {
		t.Fatalf("prefetch by a requester with no writes of its own was cached as %+v, want it to cover %v", pg, theirs)
	}
	home.handlePageReq(&msgPageReq{From: 0, Page: pg1, Own: 1, Need: []lrc.IntervalID{theirs}, Prefetch: true})
	r.k.Run()
	if pg := r.hl(0).pfCache[pg1]; pg == nil || len(pg.covers) != 0 {
		t.Fatalf("prefetch served ahead of the requester's flush was cached as %+v, want a copy with no covers", pg)
	}
	home.handlePageReq(&msgPageReq{From: 0, Page: pg1, Own: 1, Need: []lrc.IntervalID{theirs}})
	home.handlePageReq(&msgPageReq{From: 2, Page: pg1, Need: []lrc.IntervalID{theirs}})
	r.k.Run()
	if n, _ := r.net.KindStats(KindPageReply); n != 1 || len(home.parked[pg1]) != 1 {
		t.Fatalf("%d replies, %d parked; want node 2 served and node 0 parked behind its own flush",
			n, len(home.parked[pg1]))
	}
	home.handleHomeFlush(wordFlush(lrc.IntervalID{Node: 0, Seq: 1}, 0, 3))
	r.k.Run()
	if n, _ := r.net.KindStats(KindPageReply); n != 2 || len(home.parked[pg1]) != 0 {
		t.Fatalf("%d replies, %d parked after the flush landed; want 2 and 0", n, len(home.parked[pg1]))
	}
}

// Hole 5, and a fill driven by hand: under adp a flush that outruns the
// home's own release (the switch to home mode) is buffered and a demand
// request parks; the fill fetches the diff-era diff, replays the flush after
// it (the diff it causally follows), serves the request after both, and
// leaves applied at the switch VC plus the replayed flush. A flush-era
// straggler after a home -> diff switch still applies at once.
func TestADPEarlyFlushWaitsForTheFill(t *testing.T) {
	r := adpRig(4)
	toHome, toDiff := []HomeMove{{Page: pg1, Mode: ModeHome}}, []HomeMove{{Page: pg1, Mode: ModeDiff}}
	r.write(0, page0, 1)
	r.barrierAll(0) // everyone holds the notice for (0,1); its diff stays at node 0
	faultRead(r, 2, page0)

	// The release switching the page to home mode reaches everyone but the
	// home, node 1; node 2 overwrites the word and flushes.
	for _, i := range []int{0, 2, 3} {
		r.adp(i).applyMoves(toHome)
	}
	r.write(2, page0, 2)
	iv := r.nodes[2].closeInterval()
	r.k.Run()
	hl := r.adp(1).hl
	if st := hl.xin[pg1]; st == nil || len(st.buf) != 1 || hl.applied[pg1] != nil {
		t.Fatalf("early flush: xin %+v, applied %v; want it buffered", st, hl.applied[pg1])
	}
	served := false
	r.nodes[3].Fault(pg1, func() { served = true })
	r.k.Run()
	if served || len(hl.parked[pg1]) != 1 {
		t.Fatalf("request ahead of the fill: served=%v, %d parked, want it parked", served, len(hl.parked[pg1]))
	}
	want := r.nodes[1].vc.Clone() // the switch VC...
	want[2] = iv.ID.Seq           // ...and the flush replayed on top
	r.adp(1).applyMoves(toHome)
	if f := r.nodes[1].fetches[pg1]; f == nil || f.fillVC == nil || f.atFlush || len(f.needed) != 1 {
		t.Fatalf("the fill is the fetch %+v, want a fill on its own install waiting for node 0's diff", f)
	}
	r.k.Run()
	if got := r.read(1, page0); got != 2 || !slices.Equal(hl.applied[pg1], want) || hl.xin[pg1] != nil {
		t.Fatalf("after the fill the home reads %v (want 2), applied %v (want %v)", got, hl.applied[pg1], want)
	}
	if got := r.read(3, page0); !served || got != 2 || r.nodes[1].fetches[pg1] != nil {
		t.Fatalf("after the fill: served=%v, node 3 reads %v (want 2), fetch %+v", served, got, r.nodes[1].fetches[pg1])
	}

	// Node 2 writes again; the release that evicts the page and carries that
	// interval's record overtakes its flush.
	faultRead(r, 2, page0)
	r.write(2, page0, 3)
	next := r.nodes[2].closeInterval()
	r.nodes[1].intake([]*lrc.Interval{iv, next}, next.VC)
	r.adp(1).applyMoves(toDiff)
	r.k.Run()
	if got := pagemem.GetF64(r.nodes[1].Store.Frame(pg1), 0); got != 3 || hl.xin[pg1] != nil {
		t.Fatalf("flush-era straggler: the ex-home's frame holds %v (want 3), xin %+v", got, hl.xin[pg1])
	}
}

// The same overtaking by a demand request: it parks at a home still in diff
// mode, and the home's release must serve it even when the fill finds the
// frame current and fetches nothing: a purely consumed page has no later
// flush coming to serve it instead.
func TestADPRequestAheadOfTheHomesReleaseIsServed(t *testing.T) {
	r := adpRig(4)
	toHome := []HomeMove{{Page: pg1, Mode: ModeHome}}
	r.write(0, page0, 1)
	r.barrierAll(0)
	faultRead(r, 1, page0) // the home's copy is current: nothing to fill
	for _, i := range []int{0, 2, 3} {
		r.adp(i).applyMoves(toHome)
	}
	done := false
	r.nodes[2].Fault(pg1, func() { done = true })
	r.k.Run()
	if done || len(r.adp(1).hl.parked[pg1]) != 1 {
		t.Fatalf("request ahead of the release: done=%v, %d parked, want it parked", done, len(r.adp(1).hl.parked[pg1]))
	}
	r.adp(1).applyMoves(toHome)
	r.k.Run()
	if got := r.read(2, page0); !done || got != 1 {
		t.Fatalf("after the home's release: done=%v, read %v, want 1", done, got)
	}
}

// A page's home tenure is its only one: the root burns an evicted page, so a
// move back to home mode for a page with an exCover can only be a bug.
func TestADPSecondHomeTenureIsAnInvariantError(t *testing.T) {
	r := adpRig(4)
	c := r.adp(1)
	c.applyMoves([]HomeMove{{Page: pg1, Mode: ModeHome}})
	c.applyMoves([]HomeMove{{Page: pg1, Mode: ModeDiff}})
	if c.homeMode(pg1) || c.exCover[pg1] == nil {
		t.Fatalf("after one tenure: home mode %v, exCover %v", c.homeMode(pg1), c.exCover[pg1])
	}
	ie := invariantFrom(t, "a second switch to home mode", func() {
		c.applyMoves([]HomeMove{{Page: pg1, Mode: ModeHome}})
	})
	if !strings.Contains(ie.Msg, "home mode again") {
		t.Fatalf("raised %q, want the one-tenure rule", ie.Msg)
	}
}

// A fill's pendings are those of the switch barrier. A notice the home takes
// in for the page afterwards names a home-mode interval: its writer flushed
// the diff here and dropped it, so asking for it as a diff — what a hybrid
// fetch does with a fresh notice — would fail at the writer; the home says so.
func TestADPNoticeForAFillingPageIsAnInvariantError(t *testing.T) {
	r := adpRig(4)
	r.write(0, page0, 1)
	r.barrierAll(0)
	r.adp(1).applyMoves([]HomeMove{{Page: pg1, Mode: ModeHome}}) // the fill asks node 0 for (0,1)
	r.learn(1, lrc.IntervalID{Node: 2, Seq: 1})
	ie := invariantFrom(t, "a notice from above the switch for a filling page", func() { r.k.Run() })
	if n, _ := r.net.KindStats(KindDiffReq); n != 1 || ie.Node != 1 || !strings.Contains(ie.Msg, "missing the diff for") {
		t.Fatalf("%d diff requests (want the fill's one to node 0), error at node %d: %q", n, ie.Node, ie.Msg)
	}
}

// At most one transfer per page: a transfer still open at the second barrier
// arrival after its move marks the page Busy (the first is inside the
// policy's hold and costs no wire bytes), on the sending and the receiving
// side alike.
func TestOpenTransferMarksBusyOnSecondArrival(t *testing.T) {
	r := migrateRig(3)
	move := []HomeMove{{Page: pg1, Home: 2}}
	r.learn(1, lrc.IntervalID{Node: 0, Seq: 1})
	r.hl(1).applyMoves(move) // owes the base: (0,1)'s flush is outstanding
	r.hl(2).applyMoves(move) // expects it
	for _, i := range []int{1, 2} {
		if acc := r.hl(i).episodeAcc(); len(acc) != 0 {
			t.Fatalf("node %d: first arrival after the move carries %+v, want nothing", i, acc)
		}
		acc := r.hl(i).episodeAcc()
		if len(acc) != 1 || acc[0].Page != pg1 || !acc[0].Busy {
			t.Fatalf("node %d: second arrival carries %+v, want page 1 busy", i, acc)
		}
	}
}
