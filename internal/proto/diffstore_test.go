package proto

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"godsm/internal/lrc"
	"godsm/internal/netsim"
	"godsm/internal/pagemem"
)

// White-box tests of the diff store (diffstore.go) and of the id sets the
// fetch path keeps beside it (idset.go).

// wordDiff is a diff of page 1 that sets word w to v.
func wordDiff(w int, v float64) *pagemem.Diff {
	return wordFlush(lrc.IntervalID{}, w, v).Diff
}

func TestPutDiffIgnoresDuplicates(t *testing.T) {
	n := newRig(2).nodes[0]
	a, b := lrc.IntervalID{Node: 1, Seq: 1}, lrc.IntervalID{Node: 1, Seq: 2}
	d := wordDiff(0, 1)
	wire := int64(d.WireSize())
	n.putDiff(a, pg1, d, false)
	n.putDiff(b, pg1, d, true)
	if wire <= 8 || n.diffBytes != wire || n.pfHeap != wire {
		t.Fatalf("one diff of %d bytes in each heap: diffBytes %d, pfHeap %d", wire, n.diffBytes, n.pfHeap)
	}
	// A fault-injected duplicate reply banks the same diffs again, into
	// either heap: nothing is stored or counted twice, and the first stays.
	other := wordDiff(0, 2)
	for _, prefetched := range []bool{false, true} {
		n.putDiff(a, pg1, other, prefetched)
		n.putDiff(b, pg1, other, prefetched)
	}
	if n.diffBytes != wire || n.pfHeap != wire || len(n.page(pg1).diffs) != 2 {
		t.Errorf("after duplicates: diffBytes %d, pfHeap %d, %d diffs held, want %d, %d and 2",
			n.diffBytes, n.pfHeap, len(n.page(pg1).diffs), wire, wire)
	}
	if got, ok := n.storedDiff(a, pg1); !ok || got != d {
		t.Error("a duplicate replaced the stored diff")
	}
}

func TestStoredDiffTellsEmptyFromAbsent(t *testing.T) {
	n := newRig(2).nodes[0]
	id := lrc.IntervalID{Node: 1, Seq: 1}
	if _, ok := n.storedDiff(id, pg1); ok {
		t.Error("a diff is stored on a page nothing touched")
	}
	if n.pages.Lookup(pg1) != nil {
		t.Error("asking for a diff materialised the page's table leaf")
	}
	n.putDiff(id, pg1, &pagemem.Diff{Page: pg1}, false) // what makeOwnDiff stores for an unchanged page
	n.putDiff(lrc.IntervalID{Node: 1, Seq: 2}, pg1, nil, false)
	for seq, wire := range map[int32]int{1: 8, 2: 0} {
		d, ok := n.storedDiff(lrc.IntervalID{Node: 1, Seq: seq}, pg1)
		if !ok || !d.Empty() || d.WireSize() != wire {
			t.Errorf("interval (1,%d): stored %v, %d wire bytes; want stored, empty, %d", seq, ok, d.WireSize(), wire)
		}
	}
	if _, ok := n.storedDiff(lrc.IntervalID{Node: 1, Seq: 3}, pg1); ok {
		t.Error("interval (1,3) was never stored")
	}
	if _, ok := n.storedDiff(id, pg1+1); ok {
		t.Error("page 2 holds page 1's diff")
	}
	if n.diffBytes != 8 {
		t.Errorf("diffBytes = %d, want the explicit empty diff's 8", n.diffBytes)
	}
}

// A prefetched diff lands in the prefetch heap; the demand fault that finds
// it applies it without a message and without moving it between heaps.
func TestPrefetchedThenDemandedDiff(t *testing.T) {
	r := newRig(2)
	r.k.At(0, func() { r.write(0, page0, 42) })
	r.k.Run()
	r.barrierAll(0)
	nd := r.nodes[1]
	r.k.At(r.k.Now(), func() {
		if sent := nd.Prefetch(pg1); sent != 1 {
			t.Errorf("prefetch sent %d requests, want 1", sent)
		}
	})
	r.k.Run()
	id := lrc.IntervalID{Node: 0, Seq: 1}
	d, ok := nd.storedDiff(id, pg1)
	if !ok || d.DataBytes() == 0 || nd.pfHeap != int64(d.WireSize()) || nd.diffBytes != 0 {
		t.Fatalf("prefetched diff stored %v, pfHeap %d, diffBytes %d", ok, nd.pfHeap, nd.diffBytes)
	}
	if creators, _ := r.nodes[0].storedDiff(id, pg1); creators != d {
		t.Error("the reply did not hand over the creator's own *Diff")
	}
	msgs := r.net.TotalStats().MsgsSent
	valid := false
	r.k.At(r.k.Now(), func() { nd.Fault(pg1, func() { valid = true }) })
	r.k.Run()
	if !valid || r.read(1, page0) != 42 {
		t.Fatalf("fault on the prefetched page: valid %v, read %v", valid, r.read(1, page0))
	}
	if sent := r.net.TotalStats().MsgsSent - msgs; sent != 0 || r.st[1].FaultPfHit != 1 {
		t.Errorf("the fault sent %d messages and counted %d pf-hits, want 0 and 1", sent, r.st[1].FaultPfHit)
	}
	if nd.pfHeap != int64(d.WireSize()) || nd.diffBytes != 0 || len(nd.page(pg1).diffs) != 1 {
		t.Errorf("after the fault: pfHeap %d, diffBytes %d, %d diffs held", nd.pfHeap, nd.diffBytes, len(nd.page(pg1).diffs))
	}
}

// In the steady state the store allocates for a page's growing list and
// nothing else: looking a diff up, refusing a duplicate and listing what is
// missing are free, and appending doubles.
func TestDiffStoreSteadyStateAllocs(t *testing.T) {
	n := newRig(2).nodes[0]
	d := wordDiff(0, 1)
	const held = 100
	for seq := int32(1); seq <= held; seq++ {
		n.putDiff(lrc.IntervalID{Node: 1, Seq: seq}, pg1, d, false)
	}
	ps := n.page(pg1)
	ps.pending = append(ps.pending, lrc.IntervalID{Node: 1, Seq: held}, lrc.IntervalID{Node: 1, Seq: held + 1})
	n.missingDiffs(pg1) // sizes the scratch
	seq := int32(0)
	if a := testing.AllocsPerRun(held, func() {
		seq = seq%held + 1
		id := lrc.IntervalID{Node: 1, Seq: seq}
		if _, ok := n.storedDiff(id, pg1); !ok {
			t.Fatalf("diff %v not held", id)
		}
		n.putDiff(id, pg1, d, false)
		if missing := n.missingDiffs(pg1); len(missing) != 1 || missing[0].Seq != held+1 {
			t.Fatalf("missing = %v", missing)
		}
	}); a != 0 {
		t.Errorf("lookup + duplicate put + missing list allocate %.2f times, want 0", a)
	}
	// As many puts again double the list about once: amortised growth only.
	seq = held
	if a := testing.AllocsPerRun(1, func() {
		for i := 0; i < held/2; i++ {
			seq++
			n.putDiff(lrc.IntervalID{Node: 1, Seq: seq}, pg1, d, false)
		}
	}); a > 2 {
		t.Errorf("%d puts allocated %.0f times, want amortised growth (at most 2)", held/2, a)
	}
}

// TestHeldDiffsMatchScan stores diffs in random orders, with duplicates and
// explicit empty diffs, and checks every lookup against a linear scan of the
// arrivals: the first diff stored for an id stays, and so do its bytes.
func TestHeldDiffsMatchScan(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for round := 0; round < 200; round++ {
		n := newRig(4).nodes[0]
		var arrived []heldDiff // the reference: arrival order, scanned
		scan := func(id lrc.IntervalID) (*pagemem.Diff, bool) {
			for _, a := range arrived {
				if a.id == id {
					return a.d, true
				}
			}
			return nil, false
		}
		var space []lrc.IntervalID
		for seq := int32(1); seq <= 1+int32(round%40); seq++ {
			for node := 1; node < 4; node++ {
				space = append(space, lrc.IntervalID{Node: node, Seq: seq})
			}
		}
		var wire int64
		for range 2 * len(space) {
			id := space[rng.IntN(len(space))]
			var d *pagemem.Diff
			switch rng.IntN(3) {
			case 0:
				d = wordDiff(rng.IntN(pagemem.PageSize/8), rng.Float64())
			case 1:
				d = &pagemem.Diff{Page: pg1} // what makeOwnDiff stores for an unchanged page
			}
			if _, dup := scan(id); !dup {
				arrived = append(arrived, heldDiff{id, d})
				wire += int64(d.WireSize())
			}
			n.putDiff(id, pg1, d, false)
		}
		if n.diffBytes != wire {
			t.Fatalf("round %d: diffBytes %d, want %d", round, n.diffBytes, wire)
		}
		for _, id := range space {
			want, wantOK := scan(id)
			if got, ok := n.storedDiff(id, pg1); got != want || ok != wantOK {
				t.Fatalf("round %d: storedDiff(%v) = %p, %v; the scan finds %p, %v", round, id, got, ok, want, wantOK)
			}
		}
		ps := n.page(pg1)
		ps.pending = ps.pending[:0]
		for _, i := range rng.Perm(len(space))[:len(space)/2] {
			ps.pending = append(ps.pending, space[i])
		}
		var want []lrc.IntervalID
		for _, id := range ps.pending {
			if _, ok := scan(id); !ok {
				want = append(want, id)
			}
		}
		if got := n.missingDiffs(pg1); !slices.Equal(got, want) {
			t.Fatalf("round %d: missingDiffs = %v, the scan finds %v", round, got, want)
		}
	}
}

// BenchmarkHeldDiffs is one lookup in a page's held diffs, at 2, 64 and 512
// held: a hit cycles over every held id, a miss over ids between them.
func BenchmarkHeldDiffs(b *testing.B) {
	for _, held := range []int{2, 64, 512} {
		n := newRig(4).nodes[0]
		for i := range held {
			n.putDiff(lrc.IntervalID{Node: 1 + i%3, Seq: int32(2 * (1 + i/3))}, pg1, nil, false)
		}
		ps := n.page(pg1)
		for _, hit := range []bool{true, false} {
			name := fmt.Sprintf("miss/held=%d", held)
			if hit {
				name = fmt.Sprintf("hit/held=%d", held)
			}
			b.Run(name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					j := i % held
					id := lrc.IntervalID{Node: 1 + j%3, Seq: int32(2 * (1 + j/3))}
					if !hit {
						id.Seq--
					}
					if _, ok := ps.held(id); ok != hit {
						b.Fatalf("held(%v) = %v", id, ok)
					}
				}
			})
		}
	}
}

// TestSortedIDsMatchScan adds random batches, with repeats, to a sortedIDs
// and removes random ids, checking membership against a plain list.
func TestSortedIDsMatchScan(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	var s sortedIDs
	var ref []lrc.IntervalID
	for step := 0; step < 2000; step++ {
		id := lrc.IntervalID{Node: rng.IntN(4), Seq: rng.Int32N(8)}
		if rng.IntN(2) == 0 {
			batch := []lrc.IntervalID{id, {Node: rng.IntN(4), Seq: rng.Int32N(8)}, id}
			s.addAll(batch)
			for _, x := range batch {
				if !slices.Contains(ref, x) {
					ref = append(ref, x)
				}
			}
		} else if held := slices.Index(ref, id); s.remove(id) != (held >= 0) {
			t.Fatalf("step %d: remove(%v) disagrees with the list %v", step, id, ref)
		} else if held >= 0 {
			ref = slices.Delete(ref, held, held+1)
		}
		if len(s) != len(ref) || anyOutside(ref, s) {
			t.Fatalf("step %d: set %v, list %v", step, s, ref)
		}
	}
}

func TestIDSet(t *testing.T) {
	id := func(node int, seq int32) lrc.IntervalID { return lrc.IntervalID{Node: node, Seq: seq} }
	a, b, c := id(0, 1), id(1, 1), id(0, 2)
	var s idSet
	steps := []struct {
		op   string
		id   lrc.IntervalID
		want idSet
	}{
		{"remove", a, nil}, // from the empty set
		{"add", b, idSet{b}},
		{"add", a, idSet{b, a}}, // insertion order, not id order
		{"add", b, idSet{b, a}}, // already held
		{"add", c, idSet{b, a, c}},
		{"remove", a, idSet{b, c}}, // the others keep their order
		{"remove", a, idSet{b, c}}, // twice: a duplicate reply does
		{"add", a, idSet{b, c, a}},
		{"remove", b, idSet{c, a}},
		{"remove", a, idSet{c}},
		{"remove", c, idSet{}},
		{"remove", c, idSet{}},
	}
	for i, st := range steps {
		if st.op == "add" {
			s.add(st.id)
		} else if held := s.has(st.id); s.remove(st.id) != held {
			t.Fatalf("step %d: remove(%v) reported %v", i, st.id, !held)
		}
		if !slices.Equal(s, st.want) {
			t.Fatalf("step %d (%s %v): set is %v, want %v", i, st.op, st.id, s, st.want)
		}
		for _, x := range []lrc.IntervalID{a, b, c} {
			if s.has(x) != slices.Contains(st.want, x) {
				t.Fatalf("step %d: has(%v) = %v", i, x, s.has(x))
			}
		}
	}

	if s := (sortedIDs{a, b}); anyOutside([]lrc.IntervalID{a, b}, s) || !anyOutside([]lrc.IntervalID{a, c}, s) || anyOutside(nil, nil) {
		t.Error("anyOutside disagrees with has")
	}
}

func TestGroupByNodeKeepsFirstAppearanceOrder(t *testing.T) {
	id := func(node int, seq int32) lrc.IntervalID { return lrc.IntervalID{Node: node, Seq: seq} }
	ids := []lrc.IntervalID{id(2, 1), id(0, 4), id(2, 2), id(1, 1), id(0, 5)}
	got := groupByNode([]lrc.IntervalID{id(9, 9)}, ids)
	want := []lrc.IntervalID{id(9, 9), id(2, 1), id(2, 2), id(0, 4), id(0, 5), id(1, 1)}
	if !slices.Equal(got, want) {
		t.Errorf("regrouped %v, want %v appended", got, want)
	}
	got[1] = id(7, 7)
	if ids[0] != id(2, 1) {
		t.Error("the regrouped list aliases the caller's")
	}
	if len(groupByNode(nil, nil)) != 0 {
		t.Error("no ids, yet some regrouped")
	}
}

// The requests of one diffReqs call keep their Wants after the next call
// reuses the node's scratch, and after the caller's ids are overwritten:
// each request owns a copy of its creator's run.
func TestDiffReqsOutliveTheScratch(t *testing.T) {
	id := func(node int, seq int32) lrc.IntervalID { return lrc.IntervalID{Node: node, Seq: seq} }
	n := newRig(4).nodes[3]
	ids := []lrc.IntervalID{id(2, 1), id(0, 4), id(2, 2)}
	first := slices.Clone(n.diffReqs(pg1, ids, false))
	ids[0], ids[1], ids[2] = id(1, 1), id(1, 2), id(0, 9)
	n.diffReqs(pg1, ids, true)
	wants := [][]lrc.IntervalID{{id(2, 1), id(2, 2)}, {id(0, 4)}}
	if len(first) != len(wants) {
		t.Fatalf("%d requests, want %d", len(first), len(wants))
	}
	for i, m := range first {
		req := m.Payload.(*msgDiffReq)
		if int(m.Dst) != wants[i][0].Node || !slices.Equal(req.Wants, wants[i]) || req.Prefetch {
			t.Errorf("request %d to node %d wants %v (prefetch %v), want %v", i, m.Dst, req.Wants, req.Prefetch, wants[i])
		}
	}
	// Growing one request's Wants must not write into the next's.
	_ = append(first[0].Payload.(*msgDiffReq).Wants, id(9, 9))
	if got := first[1].Payload.(*msgDiffReq).Wants; !slices.Equal(got, wants[1]) {
		t.Errorf("appending to request 0's Wants overwrote request 1's: %v", got)
	}
}

// Once askDiffs or issuePrefetch has handed its requests to sendAfter, the
// node's request scratch points at none of them: a delivered request goes
// back to the wire pool, and no scratch may keep a wire the pool hands out
// again.
func TestSentRequestsLeaveNoScratch(t *testing.T) {
	r := newRig(3)
	r.k.At(0, func() {
		r.write(0, page0, 1)
		r.write(1, page0+8, 2)
		r.write(0, page0+pagemem.PageSize, 3)
		r.write(1, page0+pagemem.PageSize+8, 4)
	})
	r.k.Run()
	r.barrierAll(0)
	nd := r.nodes[2]
	for _, send := range []func(){
		func() { nd.Fault(pg1, func() {}) },
		func() { nd.Prefetch(pg1 + 1) },
	} {
		send()
		if got := nd.msgScratch[:cap(nd.msgScratch)]; len(nd.msgScratch) != 2 || slices.ContainsFunc(got, func(m *netsim.Message) bool { return m != nil }) {
			t.Errorf("after sending %d requests the scratch still holds %v", len(nd.msgScratch), got)
		}
	}
	r.k.Run()
}
