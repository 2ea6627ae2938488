package proto

import (
	"reflect"
	"runtime"
	"slices"
	"testing"

	"godsm/internal/lrc"
	"godsm/internal/netsim"
	"godsm/internal/sim"
)

// White-box tests of the chassis fetch (node.go), one for each of its rules
// that a backend's timing leans on. Like ordering_test.go they drive the
// handlers directly, so the message order under test is constructed, not
// hoped for. Page 1 is homed at node 1 under hlrc.

// A demand fetch whose asked diff lands first through a prefetch reply
// completes on that arrival: the demand reply that follows finds nothing in
// flight and only banks a duplicate.
func TestDiffFetchCompletesOnPrefetchedArrival(t *testing.T) {
	r := newRig(2)
	r.k.At(0, func() { r.write(0, page0, 42) })
	r.k.Run()
	r.barrierAll(0)
	nd := r.nodes[1]
	valid := 0
	nd.Fault(pg1, func() { valid++ })
	if f := nd.fetches[pg1]; f == nil || len(f.needed) != 1 {
		t.Fatalf("the fault is the fetch %+v, want one diff asked", f)
	}
	id := lrc.IntervalID{Node: 0, Seq: 1}
	nd.coh.(*lrcCoherence).handleDiffReply(&msgDiffReply{Page: pg1,
		Items: []diffItem{{ID: id, Diff: wordDiff(0, 42)}}, Prefetch: true})
	if nd.fetches[pg1] != nil {
		t.Fatal("the fetch is still in flight after its diff landed through a prefetch reply")
	}
	r.k.Run()
	if n, _ := r.net.KindStats(KindDiffReply); valid != 1 || n != 1 || r.read(1, page0) != 42 {
		t.Fatalf("after the demand reply: waiter ran %d times (want 1), %d demand replies, read %v (want 42)",
			valid, n, r.read(1, page0))
	}
}

// A whole-page fetch that takes in a notice mid-flight asks the home once
// more, naming only the fresh interval, and installs that second copy.
func TestPageFetchReasksOnlyTheFreshNotice(t *testing.T) {
	r := hlrcRig(3)
	home := r.hl(1)
	first, fresh := lrc.IntervalID{Node: 0, Seq: 1}, lrc.IntervalID{Node: 0, Seq: 2}
	home.handleHomeFlush(wordFlush(first, 0, 5))
	var asked [][]lrc.IntervalID
	send := r.nodes[2].Send
	r.nodes[2].Send = func(m *netsim.Message) sim.Time {
		if req, ok := m.Payload.(*msgPageReq); ok {
			asked = append(asked, req.Need)
		}
		return send(m)
	}

	r.learn(2, first)
	done := false
	r.nodes[2].Fault(pg1, func() { done = true })
	r.learn(2, fresh) // taken in while the first request is out
	home.handleHomeFlush(wordFlush(fresh, 0, 6))
	r.k.Run()
	if len(asked) != 2 || !slices.Equal(asked[1], []lrc.IntervalID{fresh}) {
		t.Fatalf("page requests asked for %v, want a second naming only %v", asked, fresh)
	}
	if got := r.read(2, page0); !done || got != 6 {
		t.Fatalf("after the second reply: done=%v, read %v, want 6", done, got)
	}
}

// A home's own fault completes at the done of the flush that covers it, as
// its handler takes it before serving the requests the flush unparks: the
// reply the same flush sends a parked requester does not delay the home.
func TestHomeFaultCompletesAtTheFlushsDone(t *testing.T) {
	r := hlrcRig(3)
	home := r.hl(1)
	id := lrc.IntervalID{Node: 0, Seq: 1}
	r.learn(2, id)
	served := false
	r.nodes[2].Fault(pg1, func() { served = true })
	r.k.Run()
	if len(home.parked[pg1]) != 1 {
		t.Fatalf("%d requests parked at the home, want node 2's", len(home.parked[pg1]))
	}
	r.learn(1, id)
	var at sim.Time
	r.nodes[1].Fault(pg1, func() { at = r.k.Now() })
	r.k.Run()

	fl := wordFlush(id, 0, 5)
	cpu := r.nodes[1].CPU
	want := cpu.Service(0, sim.CatDSM) + r.costs.DiffApply + sim.Time(r.costs.ApplyNs*float64(fl.Diff.DataBytes()))
	home.handleHomeFlush(fl)
	if after := cpu.Service(0, sim.CatDSM); after <= want {
		t.Fatalf("serving the parked request charged nothing after the flush (CPU free at %d, flush done %d)", after, want)
	}
	r.k.Run()
	if !served || at != want || r.read(1, page0) != 5 {
		t.Fatalf("home fault completed at %d, want the flush's done %d (node 2 served: %v)", at, want, served)
	}
}

// TestRecycledFetchStartsClean: a completed fetch is freed blank but for
// its lists' capacity, and the node's next fetch draws it. On one adp node
// an lrc fetch, then a fill (fillVC) and then a home wait (atFlush) each
// draw the record the one before freed, and none of them sees what its
// predecessor left: waiters, needed, asked, base, fillVC or atFlush.
func TestRecycledFetchStartsClean(t *testing.T) {
	r := adpRig(4)
	nd := r.nodes[1] // page 1's home once it is in home mode
	var rec *fetch
	freed := func(stage string) {
		t.Helper()
		if len(nd.freeFetches) != 1 || rec != nil && nd.freeFetches[0] != rec {
			t.Fatalf("%s: free list %p, want the one record %p", stage, nd.freeFetches, rec)
		}
		rec = nd.freeFetches[0]
		blank := fetch{waiters: rec.waiters[:0], needed: rec.needed[:0], asked: rec.asked[:0]}
		if !reflect.DeepEqual(*rec, blank) || slices.ContainsFunc(rec.waiters[:cap(rec.waiters)], func(w func()) bool { return w != nil }) {
			t.Fatalf("%s: freed record not blank: %+v", stage, *rec)
		}
	}
	drawn := func(stage string, waiters int, needed []lrc.IntervalID, fill, atFlush bool) {
		t.Helper()
		f := nd.fetches[pg1]
		if f != rec || len(nd.freeFetches) != 0 {
			t.Fatalf("%s: fetch %p, want the freed record %p", stage, f, rec)
		}
		if len(f.waiters) != waiters || !slices.Equal(f.needed, needed) || len(f.asked) != 0 ||
			f.base != nil || (f.fillVC != nil) != fill || f.atFlush != atFlush {
			t.Fatalf("%s: drew %+v", stage, *f)
		}
	}
	ran := 0
	onValid := func() { ran++ }

	r.write(0, page0, 1)
	r.barrierAll(0)
	nd.Fault(pg1, onValid) // diff mode: an lrc fetch
	rec = nd.fetches[pg1]
	r.k.Run()
	freed("after the lrc fetch")
	if cap(rec.waiters) == 0 || cap(rec.needed) == 0 {
		t.Fatalf("the freed record lost its lists' capacity: %+v", *rec)
	}

	r.write(0, page0, 2)
	r.barrierAll(1)
	toHome := []HomeMove{{Page: pg1, Mode: ModeHome}}
	r.adp(1).applyMoves(toHome) // the fill asks node 0 for (0,2)
	drawn("the fill", 0, []lrc.IntervalID{{Node: 0, Seq: 2}}, true, false)
	for _, i := range []int{0, 2, 3} {
		r.adp(i).applyMoves(toHome)
	}
	r.k.Run()
	freed("after the fill")

	id := lrc.IntervalID{Node: 0, Seq: 3}
	r.learn(1, id)
	nd.Fault(pg1, onValid) // home mode, the flush outstanding: a home wait
	drawn("the home wait", 1, nil, false, true)
	r.adp(1).hl.handleHomeFlush(wordFlush(id, 0, 3))
	r.k.Run()
	freed("after the home wait")
	if ran != 2 || r.read(1, page0) != 3 {
		t.Fatalf("waiters ran %d times (want 2), node 1 read %v (want 3)", ran, r.read(1, page0))
	}
}

// TestRecycledPfStateStartsClean: the prefetch record a fault retires is
// freed blank but for its list's capacity, and the node's next prefetch
// draws it, asking only for what it asks now.
func TestRecycledPfStateStartsClean(t *testing.T) {
	r := newRig(2)
	nd := r.nodes[1]
	prefetch := func(round int) *pfState {
		t.Helper()
		r.k.At(r.k.Now(), func() { r.write(0, page0, float64(round)) })
		r.k.Run()
		r.barrierAll(round)
		if sent := nd.Prefetch(pg1); sent != 1 {
			t.Fatalf("round %d: the prefetch sent %d requests, want 1", round, sent)
		}
		st := nd.pf[pg1]
		want := []lrc.IntervalID{{Node: 0, Seq: int32(round + 1)}}
		if st == nil || st.inflight != 1 || !slices.Equal(st.requested, want) {
			t.Fatalf("round %d: prefetch record %+v, want one request in flight asking %v", round, st, want)
		}
		r.k.Run()
		nd.Fault(pg1, func() {})
		r.k.Run()
		if len(nd.freePf) != 1 || nd.freePf[0] != st {
			t.Fatalf("round %d: free list %v, want the retired record %p", round, nd.freePf, st)
		}
		if !reflect.DeepEqual(*st, pfState{requested: st.requested[:0]}) || cap(st.requested) == 0 {
			t.Fatalf("round %d: retired record not blank with its list's capacity: %+v", round, *st)
		}
		return st
	}
	first := prefetch(0)
	if second := prefetch(1); second != first {
		t.Fatalf("the second prefetch drew %p, want the retired record %p", second, first)
	}
	if r.read(1, page0) != 1 {
		t.Fatalf("node 1 read %v, want 1", r.read(1, page0))
	}
}

// diffFetchAllocs is what one demand diff fetch may allocate, end to end:
// nothing, once warm. The diff the writer makes lazily is carved from the
// rig's page pool; the request and the reply are the wires the rig's pool
// got back when the previous round's were delivered, each with its list's
// capacity; the regrouped ids, the request list and the reply's items are
// node scratch; the fetch record is a recycled one; and scheduling the two
// sends, the two deliveries and the waiters' wake-up is a bound method with
// the message or the fetch as its argument.
const diffFetchAllocs = 0

// TestDiffFetchAllocs pins the allocations of one fault → diff request →
// diff reply → install round trip on a two-node lrc rig.
func TestDiffFetchAllocs(t *testing.T) {
	r := newRig(2)
	valid := 0
	onValid := func() { valid++ }
	var perRound []uint64
	for round := 0; round < 8; round++ {
		r.k.At(r.k.Now(), func() { r.write(0, page0, float64(round)) })
		r.k.Run()
		r.barrierAll(round)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r.nodes[1].Fault(pg1, onValid)
		r.k.Run()
		runtime.ReadMemStats(&after)
		perRound = append(perRound, after.Mallocs-before.Mallocs)
		if r.read(1, page0) != float64(round) {
			t.Fatalf("round %d: node 1 read %v", round, r.read(1, page0))
		}
	}
	if valid != 8 {
		t.Fatalf("waiter ran %d times over 8 fetches", valid)
	}
	// The first rounds grow the event queue, the tables and the scratch, and
	// a page's held diffs grow by doubling, so the pin is the leanest round.
	if got := slices.Min(perRound); got > diffFetchAllocs {
		t.Errorf("a diff fetch round trip allocates %d times, want at most %d (rounds: %v)",
			got, diffFetchAllocs, perRound)
	}
}

// BenchmarkDiffFetch is one fault → diff request → diff reply → install round
// trip on TestDiffFetchAllocs's two-node lrc rig. The write and the barrier
// that invalidate the page before each fetch are off the clock, and so is a
// fresh rig every 256 fetches: with no collector, a page's held diffs grow
// by one a round, and finding one is a scan.
func BenchmarkDiffFetch(b *testing.B) {
	var r *rig
	onValid := func() {}
	b.ReportAllocs()
	for i := range b.N {
		b.StopTimer()
		if i%256 == 0 {
			r = newRig(2)
		}
		r.k.At(r.k.Now(), func() { r.write(0, page0, float64(i)) })
		r.k.Run()
		r.barrierAll(i)
		b.StartTimer()
		r.nodes[1].Fault(pg1, onValid)
		r.k.Run()
	}
}
