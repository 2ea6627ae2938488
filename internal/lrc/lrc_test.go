package lrc

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"godsm/internal/pagemem"
)

func TestVCCovers(t *testing.T) {
	a := VC{2, 3, 1}
	b := VC{2, 2, 1}
	if !a.Covers(b) {
		t.Error("a should cover b")
	}
	if b.Covers(a) {
		t.Error("b should not cover a")
	}
	if !a.Covers(a) {
		t.Error("covers must be reflexive")
	}
}

func TestVCMerge(t *testing.T) {
	a := VC{2, 0, 5}
	a.Merge(VC{1, 7, 5})
	if !a.Equal(VC{2, 7, 5}) {
		t.Fatalf("merge = %v", a)
	}
}

func TestVCClone(t *testing.T) {
	a := VC{1, 2}
	b := a.Clone()
	b[0] = 99
	if a[0] != 1 {
		t.Fatal("clone aliases original")
	}
}

func TestCoversInterval(t *testing.T) {
	v := VC{3, 1}
	if !v.CoversInterval(IntervalID{Node: 0, Seq: 3}) {
		t.Error("should cover (0,3)")
	}
	if v.CoversInterval(IntervalID{Node: 1, Seq: 2}) {
		t.Error("should not cover (1,2)")
	}
}

func TestHappensBeforeSameNode(t *testing.T) {
	a := NewInterval(IntervalID{0, 1}, VC{1, 0}, nil)
	b := NewInterval(IntervalID{0, 2}, VC{2, 0}, nil)
	if !HappensBefore(a, b) || HappensBefore(b, a) {
		t.Fatal("same-node intervals must be ordered by seq")
	}
}

func TestHappensBeforeCrossNode(t *testing.T) {
	// Node 0 creates interval 1; node 1 then acquires from node 0 and
	// creates its interval 1 having seen (0,1).
	a := NewInterval(IntervalID{0, 1}, VC{1, 0}, nil)
	b := NewInterval(IntervalID{1, 1}, VC{1, 1}, nil)
	if !HappensBefore(a, b) {
		t.Error("a must happen before b")
	}
	if HappensBefore(b, a) {
		t.Error("b must not happen before a")
	}
	if Concurrent(a, b) {
		t.Error("a,b not concurrent")
	}
}

func TestConcurrent(t *testing.T) {
	a := NewInterval(IntervalID{0, 1}, VC{1, 0}, nil)
	b := NewInterval(IntervalID{1, 1}, VC{0, 1}, nil)
	if !Concurrent(a, b) {
		t.Fatal("independent intervals must be concurrent")
	}
}

// randomHistory builds a random but protocol-consistent set of intervals:
// each new interval's VC covers its creator's previous VC and possibly
// merges another node's current VC (modelling an acquire).
func randomHistory(rng *rand.Rand, nodes, steps int) []*Interval {
	cur := make([]VC, nodes)
	seq := make([]int32, nodes)
	for i := range cur {
		cur[i] = NewVC(nodes)
	}
	var ivs []*Interval
	for s := 0; s < steps; s++ {
		p := rng.Intn(nodes)
		if rng.Intn(2) == 0 { // acquire from a random releaser first
			q := rng.Intn(nodes)
			cur[p].Merge(cur[q])
		}
		seq[p]++
		cur[p][p] = seq[p]
		ivs = append(ivs, NewInterval(IntervalID{Node: p, Seq: seq[p]}, cur[p].Clone(), nil))
	}
	return ivs
}

// Property: happen-before-1 is a strict partial order on protocol-
// consistent histories (irreflexive, antisymmetric, transitive).
func TestHappensBeforeStrictPartialOrderProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ivs := randomHistory(rng, 4, 20)
		for _, a := range ivs {
			if HappensBefore(a, a) {
				return false
			}
			for _, b := range ivs {
				if HappensBefore(a, b) && HappensBefore(b, a) {
					return false
				}
				for _, c := range ivs {
					if HappensBefore(a, b) && HappensBefore(b, c) && !HappensBefore(a, c) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: SortCausally produces a linear extension — no interval appears
// before one that happens-before it.
func TestSortCausallyLinearExtensionProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ivs := randomHistory(rng, 5, 30)
		rng.Shuffle(len(ivs), func(i, j int) { ivs[i], ivs[j] = ivs[j], ivs[i] })
		SortCausally(ivs)
		for i := range ivs {
			for j := i + 1; j < len(ivs); j++ {
				if HappensBefore(ivs[j], ivs[i]) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: SortCausally is deterministic regardless of input permutation.
func TestSortCausallyDeterministicProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ivs := randomHistory(rng, 4, 25)
		a := append([]*Interval(nil), ivs...)
		b := append([]*Interval(nil), ivs...)
		rng.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		SortCausally(a)
		SortCausally(b)
		for i := range a {
			if a[i].ID != b[i].ID {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// sortCausallyRef is SortCausally as it was first written: a stable sort
// that recomputes both sums in every comparison.
func sortCausallyRef(ivs []*Interval) {
	sort.SliceStable(ivs, func(i, j int) bool {
		si, sj := vcSum(ivs[i].VC), vcSum(ivs[j].VC)
		if si != sj {
			return si < sj
		}
		if ivs[i].ID.Node != ivs[j].ID.Node {
			return ivs[i].ID.Node < ivs[j].ID.Node
		}
		return ivs[i].ID.Seq < ivs[j].ID.Seq
	})
}

// SortCausally's order is the reference's, on random interval sets of every
// small size (the stack buffer and past it) at a paper-sized and a
// big-machine width, and it allocates nothing for the sizes a page's
// pending list has.
func TestSortCausallyMatchesReference(t *testing.T) {
	for _, width := range []int{8, 1024} {
		rng := rand.New(rand.NewSource(int64(width)))
		history := randomHistory(rng, width, 300)
		for round := 0; round < 200; round++ {
			rng.Shuffle(len(history), func(i, j int) { history[i], history[j] = history[j], history[i] })
			got := append([]*Interval(nil), history[:rng.Intn(40)]...)
			want := append([]*Interval(nil), got...)
			SortCausally(got)
			sortCausallyRef(want)
			if !slices.Equal(got, want) {
				t.Fatalf("width %d, %d intervals: order differs from the reference's", width, len(got))
			}
		}
		few := history[:6]
		if a := testing.AllocsPerRun(20, func() { SortCausally(few) }); a != 0 {
			t.Errorf("width %d: sorting %d intervals allocates %.0f times, want 0", width, len(few), a)
		}
	}
}

// Records carved back to back share chunks, and each VC and page list is
// cut with its capacity at its length: appending to one record's lists
// moves them and leaves the next record as it was. The carver copies what
// it is handed, so the caller's vector time and pages stay the caller's.
func TestCarvedRecordsDoNotAlias(t *testing.T) {
	var c Carver
	vc, pages := VC{1, 0, 2}, []pagemem.PageID{4, 5}
	a := c.New(IntervalID{Node: 0, Seq: 1}, vc, pages)
	vc[0], pages[0] = 2, 6
	b := c.New(IntervalID{Node: 0, Seq: 2}, vc, pages[:1])
	vc[0], pages[0] = 9, 9
	if &c.ivs[0] != a || &c.ivs[1] != b || &c.vcs[3] != &b.VC[0] || &c.pages[2] != &b.Pages[0] {
		t.Fatal("the second record was not carved right after the first")
	}
	a.VC = append(a.VC, 7)
	a.Pages = append(a.Pages, 8)
	if !slices.Equal(b.VC, VC{2, 0, 2}) || !slices.Equal(b.Pages, []pagemem.PageID{6}) {
		t.Fatalf("after appending to the first record the second reads VC %v pages %v, want [2 0 2] [6]", b.VC, b.Pages)
	}
	if !slices.Equal(a.VC, VC{1, 0, 2, 7}) || !slices.Equal(a.Pages, []pagemem.PageID{4, 5, 8}) {
		t.Fatalf("the first record reads VC %v pages %v", a.VC, a.Pages)
	}
	if a.sum != 3 || b.sum != 4 {
		t.Fatalf("carved records with sort keys %d and %d, want 3 and 4", a.sum, b.sum)
	}
}

// A carver with room in its chunks builds a record without allocating.
func TestCarverAllocs(t *testing.T) {
	const records = 101 // AllocsPerRun's warm-up run and its 100
	vc, pages := NewVC(8), []pagemem.PageID{1, 2}
	c := Carver{ivs: make([]Interval, 0, records), vcs: make([]int32, 0, records*len(vc)),
		pages: make([]pagemem.PageID, 0, records*len(pages))}
	if got := testing.AllocsPerRun(100, func() { c.New(IntervalID{}, vc, pages) }); got != 0 {
		t.Fatalf("carving a record allocates %v times, want 0", got)
	}
	if len(c.ivs) != records {
		t.Fatalf("carved %d records, want %d", len(c.ivs), records)
	}
}
