package core

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"godsm/internal/pagemem"
	"godsm/internal/stats"
)

// hitRig is one processor over 16 resident pages — the shape bench's
// core.access_hit_ns rig uses, so `go test -bench AccessHit` and
// `bench -trace 1` measure the same thing. body runs as the only thread,
// after every page has been read and written once.
func hitRig(raceCheck bool, body func(e *Env, base Addr)) *stats.Report {
	cfg := DefaultConfig()
	cfg.Procs = 1
	cfg.RaceCheck = raceCheck
	sys := NewSystem(cfg)
	base := sys.Alloc.AllocPages(16)
	return sys.Run(func(e *Env) {
		for p := 0; p < 16; p++ {
			a := base + Addr(p*pagemem.PageSize)
			e.WriteF64(a, e.ReadF64(a))
		}
		body(e, base)
	})
}

var sink float64

// viewRow is the 64 float64s BenchmarkViewRow and the view tests read per
// view: a matrix row at small scale.
const viewRow = 64

func BenchmarkAccessHit(b *testing.B) {
	for _, bc := range []struct {
		name        string
		write, race bool
	}{{"read", false, false}, {"write", true, false}, {"read-race", false, true}} {
		b.Run(bc.name, func(b *testing.B) {
			hitRig(bc.race, func(e *Env, base Addr) {
				var sum float64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					a := base + Addr(8*(i&8191))
					if bc.write {
						e.WriteF64(a, sum)
					} else {
						sum += e.ReadF64(a)
					}
				}
				b.StopTimer()
				sink = sum
			})
		})
	}
}

// BenchmarkViewRow is BenchmarkAccessHit/read for a row of hits taken at
// once: one View, viewRow direct loads, one Accessed. ns/elem is comparable
// with AccessHit's ns/op.
func BenchmarkViewRow(b *testing.B) {
	hitRig(false, func(e *Env, base Addr) {
		var sum float64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, x := range e.View(base+Addr(8*viewRow*(i&127)), viewRow, false) {
				sum += x
			}
			e.Accessed(viewRow)
		}
		b.StopTimer()
		sink = sum
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/viewRow, "ns/elem")
	})
}

// TestAccessHitDoesNotAllocate: a read or write of a resident, writable
// page is one page-table lookup and allocates nothing, the same contract
// event.Bus.Emit has.
func TestAccessHitDoesNotAllocate(t *testing.T) {
	var reads, writes float64
	hitRig(false, func(e *Env, base Addr) {
		i := 0
		reads = testing.AllocsPerRun(1000, func() {
			sink += e.ReadF64(base + Addr(8*(i&8191)))
			i++
		})
		writes = testing.AllocsPerRun(1000, func() {
			e.WriteF64(base+Addr(8*(i&8191)), 1)
			i++
		})
	})
	if reads != 0 || writes != 0 {
		t.Fatalf("allocations per hit: read %v, write %v; want 0", reads, writes)
	}
}

// TestViewDoesNotAllocate: nor does a row of hits taken as a view, in either
// spelling.
func TestViewDoesNotAllocate(t *testing.T) {
	var views float64
	hitRig(false, func(e *Env, base Addr) {
		i := 0
		views = testing.AllocsPerRun(1000, func() {
			v := e.View(base+Addr(8*viewRow*(i&127)), viewRow, true)
			v[0] = v[1] + 1
			w := e.ViewI64(base+Addr(8*viewRow*(i&127)), viewRow, true)
			w[2] = w[3] + 1
			e.Accessed(4)
			i++
		})
	})
	if views != 0 {
		t.Fatalf("allocations per view: %v; want 0", views)
	}
}

// TestViewChargesLikeHits: a row read through a view and charged with
// Accessed leaves the report a row of ReadF64 hits leaves.
func TestViewChargesLikeHits(t *testing.T) {
	byElement := hitRig(false, func(e *Env, base Addr) {
		for i := 0; i < viewRow; i++ {
			sink += e.ReadF64(base + Addr(8*i))
		}
		e.Compute(1000)
	})
	byView := hitRig(false, func(e *Env, base Addr) {
		for _, x := range e.View(base, viewRow, false) {
			sink += x
		}
		e.Accessed(viewRow)
		e.Compute(1000)
	})
	if a, b := byElement.Fingerprint(), byView.Fingerprint(); a != b {
		t.Fatalf("a viewed row and a row of hits leave different reports:\nhits: %s\nview: %s", a, b)
	}
}

// TestViewContract: View is non-nil exactly when every access to the range
// would hit — 8-aligned, one page, inside the heap, valid, twinned for a
// write, race detector off — and then it is the frame's own words: what
// ReadF64 reads, where WriteF64 writes, the same memory in either spelling.
func TestViewContract(t *testing.T) {
	sys := NewSystem(smallConfig(2, 1))
	page := sys.Alloc.AllocPages(2)
	last := page + pagemem.PageSize - 8 // the last word of the first page
	check := func(what string, v []float64, want bool) {
		t.Helper()
		if (v != nil) != want {
			t.Errorf("%s: view non-nil = %v, want %v", what, v != nil, want)
		}
	}
	sys.Run(func(e *Env) {
		check("a page never accessed", e.View(page, 1, false), false)
		e.ReadF64(page)
		e.ReadF64(page + pagemem.PageSize)
		e.Barrier(0)
		if e.ThreadID() == 0 {
			e.WriteF64(page, 42)
		}
		e.Barrier(1)
		if e.ThreadID() == 1 {
			check("an invalidated page", e.View(page, 1, false), false)
			if got := e.ReadF64(page); got != 42 {
				t.Errorf("read %v after the barrier, want 42", got)
			}
			v := e.View(page, 2, false)
			check("a valid page", v, true)
			if len(v) != 2 || cap(v) != 2 || v[0] != 42 {
				t.Errorf("view of a valid page: len %d cap %d first word %v, want 2, 2, 42", len(v), cap(v), v[0])
			}
			check("a write view of an untwinned page", e.View(page, 1, true), false)
			e.WriteF64(page+8, 1)
			w := e.View(page, 2, true)
			check("a write view of a twinned page", w, true)
			w[1] = 7
			if got := e.ReadF64(page + 8); got != 7 {
				t.Errorf("read %v after writing 7 through the view: the view is not the frame", got)
			}
			ints := e.ViewI64(page, 2, true)
			if ints == nil {
				t.Fatalf("no int64 write view of a twinned page")
			}
			ints[0] = -5
			if got := e.ReadI64(page); got != -5 || int64(math.Float64bits(w[0])) != -5 {
				t.Errorf("ReadI64 reads %d and the float64 view holds bits %#x after writing -5 through the int64 view",
					got, math.Float64bits(w[0]))
			}
			e.WriteI64(page+8, 9)
			if ints[1] != 9 {
				t.Errorf("the int64 view reads %d after WriteI64(9)", ints[1])
			}
			check("the last word of a page", e.View(last, 1, false), true)
			check("a range crossing the page end", e.View(last, 2, false), false)
			check("an unaligned address", e.View(page+4, 1, false), false)
			check("an unaligned write", e.View(page+1, 1, true), false)
			if e.ViewI64(page+4, 1, false) != nil {
				t.Errorf("an unaligned int64 view is not nil")
			}
			check("n = 0", e.View(page, 0, false), false)
			check("n < 0", e.View(page, -1, false), false)
			check("n past any page", e.View(page, 1<<61, false), false)
			check("address 0", e.View(0, 1, false), false)
			check("an address past the break", e.View(page+2*pagemem.PageSize, 1, false), false)
			check("a range running past the break", e.View(page+2*pagemem.PageSize-8, 2, false), false)
			check("an address aliasing a resident page", e.View(1<<44+page, 1, false), false)
		}
		e.Barrier(2)
	})
	hitRig(true, func(e *Env, base Addr) {
		check("a hit under RaceCheck", e.View(base, 1, false), false)
		check("a write hit under RaceCheck", e.View(base, 1, true), false)
		if e.ViewI64(base, 1, false) != nil {
			t.Errorf("an int64 view under RaceCheck is not nil")
		}
	})
}

// addrFault runs body on a fresh 2-processor machine with one allocated
// page and returns the *AddrError it ends in.
func addrFault(t *testing.T, raceCheck bool, body func(e *Env, page Addr)) *AddrError {
	t.Helper()
	cfg := smallConfig(2, 1)
	cfg.RaceCheck = raceCheck
	sys := NewSystem(cfg)
	page := sys.Alloc.AllocPages(1)
	var ae *AddrError
	func() {
		defer func() {
			r := recover()
			var ok bool
			if ae, ok = r.(*AddrError); !ok {
				t.Fatalf("Run ended with %v, want an *AddrError", r)
			}
		}()
		sys.Run(func(e *Env) {
			e.Barrier(0)
			if e.ThreadID() == 1 {
				body(e, page)
			}
			e.Barrier(1)
		})
	}()
	return ae
}

// TestUnmappedAddressIsAStructuredError: address 0, an address past the
// allocator's break, one beyond 2^44 (whose page id truncates onto a low
// page) and one far above the heap but below 2^44 each end the run in an
// AddrError naming the thread, the address and the heap bounds — the same
// bytes every time, with the race detector on or off — instead of
// materialising a page or, under RaceCheck, sizing the detector's shadow
// directory by the stray address.
func TestUnmappedAddressIsAStructuredError(t *testing.T) {
	for _, tc := range []struct {
		name  string
		write bool
		addr  func(page Addr) Addr
	}{
		{"zero", false, func(Addr) Addr { return 0 }},
		{"past-brk", true, func(page Addr) Addr { return page + pagemem.PageSize }},
		{"aliases-page-0", false, func(Addr) Addr { return 1<<44 + 8 }},
		{"far-above-heap", false, func(Addr) Addr { return 1<<43 + 8 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// run returns the report and the bytes allocated from just
			// before the stray access until the run has unwound.
			run := func(raceCheck bool) (*AddrError, uint64) {
				var before, after runtime.MemStats
				ae := addrFault(t, raceCheck, func(e *Env, page Addr) {
					e.ReadF64(page) // a mapped access first: the check must not be a one-shot
					runtime.ReadMemStats(&before)
					if e.View(tc.addr(page), 1, tc.write) != nil {
						t.Errorf("View of the stray address is not nil")
					}
					if tc.write {
						e.WriteF64(tc.addr(page), 1)
					} else {
						e.ReadF64(tc.addr(page))
					}
				})
				runtime.ReadMemStats(&after)
				return ae, after.TotalAlloc - before.TotalAlloc
			}
			a, _ := run(false)
			b, _ := run(false)
			if a.Error() != b.Error() {
				t.Fatalf("two runs, two reports:\n%s\n---\n%s", a.Error(), b.Error())
			}
			checked, grew := run(true)
			if a.Error() != checked.Error() {
				t.Fatalf("RaceCheck changes the report:\n%s\n---\n%s", a.Error(), checked.Error())
			}
			if grew >= 1<<20 {
				t.Fatalf("the stray access allocated %d bytes under RaceCheck, want under 1 MB", grew)
			}
			brk := Addr(2 * pagemem.PageSize)
			if a.Addr != tc.addr(pagemem.PageSize) || a.Write != tc.write || a.Thread != 1 || a.Proc != 1 ||
				a.HeapLo != pagemem.PageSize || a.HeapHi != brk {
				t.Fatalf("wrong report: %+v", a)
			}
			want := fmt.Sprintf("0x%x by thread 1 (proc 1)", uint64(a.Addr))
			if msg := a.Error(); !strings.Contains(msg, want) || !strings.Contains(msg, "[0x1000, 0x2000)") || len(a.Events) == 0 {
				t.Fatalf("report lacks the site, the heap bounds or the event trace:\n%s", msg)
			}
		})
	}
}

// TestBigMachineTouchesOneLeafPerTable: the page tables are two-level so
// that 1024 nodes each pay for the leaves they touch, not for the heap.
// Every node reads one page of its own, far apart in the heap; the bytes
// that costs per node must stay under one frame slab plus one leaf per
// table. A flat table (or a leaf per directory slot up to the page) would
// cost tens of KB more.
func TestBigMachineTouchesOneLeafPerTable(t *testing.T) {
	const procs = 1024
	runBytes := func(touch bool) uint64 {
		cfg := DefaultConfig()
		cfg.Procs = procs
		cfg.Net.Topology = "fattree"
		cfg.Barrier = "tree"
		sys := NewSystem(cfg)
		base := sys.Alloc.AllocPages(procs)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sys.Run(func(e *Env) {
			if touch {
				e.ReadF64(base + Addr(e.ProcID()*pagemem.PageSize))
			}
		})
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	const slab = 64 * pagemem.PageSize // pagemem's frame slab, paid on a node's first frame
	const leaves = 8 << 10             // two leaves and two directories are ~5.5 KB
	perNode := (int64(runBytes(true)) - int64(runBytes(false))) / procs
	if perNode > slab+leaves {
		t.Fatalf("touching one page costs %d bytes per node, want at most %d", perNode, slab+leaves)
	}
	t.Logf("one page touched: %d bytes per node beyond the %d-byte frame slab", perNode-slab, slab)
}
