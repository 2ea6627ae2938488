package proto

import (
	"slices"
	"testing"

	"godsm/internal/lrc"
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

	s = idSet{a, b}
	if anyOutside([]lrc.IntervalID{a, b}, s) || !anyOutside([]lrc.IntervalID{a, c}, s) || anyOutside(nil, nil) {
		t.Error("anyOutside disagrees with has")
	}
}

func TestGroupByNodeKeepsFirstAppearanceOrder(t *testing.T) {
	id := func(node int, seq int32) lrc.IntervalID { return lrc.IntervalID{Node: node, Seq: seq} }
	ids := []lrc.IntervalID{id(2, 1), id(0, 4), id(2, 2), id(1, 1), id(0, 5)}
	got := groupByNode(ids)
	want := [][]lrc.IntervalID{{id(2, 1), id(2, 2)}, {id(0, 4), id(0, 5)}, {id(1, 1)}}
	if !slices.EqualFunc(got, want, func(a, b []lrc.IntervalID) bool { return slices.Equal(a, b) }) {
		t.Errorf("groups %v, want %v", got, want)
	}
	got[0][0] = id(7, 7)
	if ids[0] != id(2, 1) {
		t.Error("a group aliases the caller's list")
	}
	if groupByNode(nil) != nil {
		t.Error("no ids, yet groups")
	}
}
