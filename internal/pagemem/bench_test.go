package pagemem

import (
	"math/rand"
	"runtime"
	"testing"
)

// benchPages builds a twin/current pair with a given modification pattern.
//
//	"unchanged": identical pages (the common validation case)
//	"sparse":    32 short scattered runs (typical pointer/scalar updates)
//	"dense":     every other 8-byte word modified (worst-case fragmentation)
//	"floats":    every float changed in 7 of its 8 bytes (an LU or SOR page)
//	"full":      the whole page rewritten (bulk producer)
func benchPages(pattern string) (twin, cur []byte) {
	rng := rand.New(rand.NewSource(42))
	twin = make([]byte, PageSize)
	rng.Read(twin)
	cur = make([]byte, PageSize)
	copy(cur, twin)
	switch pattern {
	case "unchanged":
	case "sparse":
		for i := 0; i < 32; i++ {
			off := rng.Intn(PageSize - 16)
			for j := 0; j < 4+rng.Intn(12); j++ {
				cur[off+j] ^= 0xFF
			}
		}
	case "dense":
		for off := 0; off < PageSize; off += 16 {
			for j := 0; j < 8; j++ {
				cur[off+j] ^= 0xFF
			}
		}
	case "floats":
		for off := 0; off < PageSize; off += 8 {
			for j := 0; j < 7; j++ {
				cur[off+j] ^= 0xFF
			}
		}
	case "full":
		for i := range cur {
			cur[i] ^= 0xFF
		}
	default:
		panic("unknown pattern " + pattern)
	}
	return twin, cur
}

func BenchmarkMakeDiff(b *testing.B) {
	for _, pattern := range []string{"unchanged", "sparse", "dense", "floats", "full"} {
		b.Run(pattern, func(b *testing.B) {
			twin, cur := benchPages(pattern)
			b.SetBytes(PageSize)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				MakeDiff(0, twin, cur)
			}
		})
	}
}

func BenchmarkDiffApply(b *testing.B) {
	for _, pattern := range []string{"sparse", "dense", "floats", "full"} {
		b.Run(pattern, func(b *testing.B) {
			twin, cur := benchPages(pattern)
			d := MakeDiff(0, twin, cur)
			buf := make([]byte, PageSize)
			copy(buf, twin)
			b.SetBytes(int64(d.DataBytes()))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.Apply(buf)
			}
		})
	}
}

// BenchmarkTwinCycle measures the MakeTwin/MakeDiff/DropTwin cycle the
// protocol performs for every write interval, where the twin free list and
// slab allocator matter.
func BenchmarkTwinCycle(b *testing.B) {
	s := NewStore()
	f := s.Frame(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.MakeTwin(1)
		f[i&(PageSize-1)] ^= 0xFF
		MakeDiff(1, s.Twin(1), f)
		s.DropTwin(1)
	}
}

// TestMakeDiffAllocs locks in the pooling win: an unchanged page must not
// allocate at all, and a diffed page must allocate exactly twice (the Diff
// and its encoded runs), no matter how many runs it has.
func TestMakeDiffAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop items; counts not meaningful")
	}
	twinU, curU := benchPages("unchanged")
	if got := testing.AllocsPerRun(100, func() { MakeDiff(0, twinU, curU) }); got != 0 {
		t.Errorf("MakeDiff(unchanged) allocates %.1f times per call, want 0", got)
	}
	// Warm the scratch pool so the measurement sees the steady state.
	twinD, curD := benchPages("dense")
	MakeDiff(0, twinD, curD)
	for _, pattern := range []string{"sparse", "dense", "floats", "full"} {
		twin, cur := benchPages(pattern)
		got := testing.AllocsPerRun(100, func() {
			if MakeDiff(0, twin, cur) == nil {
				t.Fatal("nil diff for a modified page")
			}
		})
		// GC pressure can evict the scratch from the sync.Pool
		// mid-measurement, so allow a little slack over the exact
		// steady-state count of 2.
		if got > 3 {
			t.Errorf("MakeDiff(%s) allocates %.1f times per call, want <= 3", pattern, got)
		}
		d := MakeDiff(0, twin, cur)
		buf := append([]byte(nil), twin...)
		if got := testing.AllocsPerRun(100, func() { d.Apply(buf) }); got != 0 {
			t.Errorf("Apply(%s) allocates %.1f times per call, want 0", pattern, got)
		}
	}
}

// TestDiffHostFootprint: what a diff retains on the host stays near what it
// is modelled to occupy on the wire. The page is LU's and SOR's: every
// float changed in 7 of its 8 bytes, 512 runs, 5 640 bytes in a message. (As
// a slice of run headers over a payload the same diff held about 20 KB.)
func TestDiffHostFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop items; allocated bytes not meaningful")
	}
	twin, cur := benchPages("floats")
	const k = 64
	held := make([]*Diff, 0, k)
	held = append(held, MakeDiff(0, twin, cur)) // warms the scratch pool
	wire := held[0].WireSize()
	if wire != 8+512*(runHeaderSize+7) {
		t.Fatalf("WireSize = %d, want 5640", wire)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for len(held) < k {
		held = append(held, MakeDiff(0, twin, cur))
	}
	runtime.ReadMemStats(&after)
	perDiff := float64(after.TotalAlloc-before.TotalAlloc) / (k - 1)
	if perDiff > 1.5*float64(wire) {
		t.Errorf("a diff of %d wire bytes holds %.0f host bytes, want at most 1.5 times as many", wire, perDiff)
	}
	runtime.KeepAlive(held)
}

// TestTwinCycleAllocs: after the first cycle, twinning reuses retired
// buffers and must not allocate.
func TestTwinCycleAllocs(t *testing.T) {
	s := NewStore()
	f := s.Frame(1)
	s.MakeTwin(1)
	s.DropTwin(1)
	got := testing.AllocsPerRun(100, func() {
		s.MakeTwin(1)
		f[0] ^= 1
		s.DropTwin(1)
	})
	if got != 0 {
		t.Errorf("twin cycle allocates %.1f times per run, want 0", got)
	}
}
