package proto

import (
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
