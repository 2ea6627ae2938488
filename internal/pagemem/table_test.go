package pagemem

import (
	"math/rand"
	"testing"
)

// TestTableMatchesMapModel drives a Table and a map with the same random
// PageID sequences, dense (a bump allocator's) and sparse (strays up to
// 2^20), and checks after every step that entry pointers handed out earlier
// are still the table's entries — the directory grows, leaves never move —
// and at the end that contents agree and Each walks strictly ascending over
// exactly the touched leaves.
func TestTableMatchesMapModel(t *testing.T) {
	for _, tc := range []struct {
		name  string
		limit int
	}{{"dense", 300}, {"sparse", 1 << 20}} {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(tc.limit)))
			var tab Table[int]
			model := map[PageID]int{}
			ptrs := map[PageID]*int{}
			for step := 1; step <= 2000; step++ {
				p := PageID(rng.Intn(tc.limit))
				if e := tab.Lookup(p); e != nil && *e != model[p] { // zero if never written
					t.Fatalf("step %d: page %d reads %d, want %d", step, p, *e, model[p])
				}
				e := tab.Entry(p)
				*e = step
				model[p] = step
				if old, ok := ptrs[p]; ok && old != e {
					t.Fatalf("step %d: page %d's entry moved", step, p)
				}
				ptrs[p] = e
				if tab.Lookup(p) != e {
					t.Fatalf("step %d: Lookup(%d) is not the entry Entry returned", step, p)
				}
			}
			leaves := map[PageID]bool{}
			for p, want := range model {
				if got := tab.Lookup(p); got != ptrs[p] || *got != want {
					t.Fatalf("page %d: Lookup = %p (%d), want %p (%d)", p, got, *got, ptrs[p], want)
				}
				leaves[p>>leafShift] = true
			}
			visited, last := 0, PageID(0)
			for p, e := range tab.Each {
				if visited > 0 && p <= last {
					t.Fatalf("Each went from page %d to page %d", last, p)
				}
				if !leaves[p>>leafShift] {
					t.Fatalf("Each visited page %d, in a leaf nothing touched", p)
				}
				if *e != model[p] { // zero for an untouched entry of a touched leaf
					t.Fatalf("Each: page %d = %d, want %d", p, *e, model[p])
				}
				visited, last = visited+1, p
			}
			if want := len(leaves) * leafPages; visited != want {
				t.Fatalf("Each visited %d entries, want %d (%d touched leaves)", visited, want, len(leaves))
			}
		})
	}
}

// TestTableLookupNeverAllocates: a miss on an empty table, past the
// directory, and in a directory hole all return nil and leave the table as
// it was.
func TestTableLookupNeverAllocates(t *testing.T) {
	var tab Table[int]
	if tab.Lookup(0) != nil || tab.Lookup(1<<31) != nil {
		t.Fatal("Lookup on an empty table returned an entry")
	}
	tab.Entry(10 * leafPages)
	if tab.Lookup(3*leafPages) != nil {
		t.Fatal("Lookup in a directory hole returned an entry")
	}
	if n := testing.AllocsPerRun(100, func() { tab.Lookup(3 * leafPages); tab.Lookup(1 << 31) }); n != 0 {
		t.Fatalf("Lookup allocates %v times", n)
	}
	for p := range tab.Each {
		if p>>leafShift != 10 {
			t.Fatalf("Each visited page %d; only leaf 10 was touched", p)
		}
	}
}
