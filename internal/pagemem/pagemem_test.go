package pagemem

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
)

func TestAddrArithmetic(t *testing.T) {
	a := Addr(3*PageSize + 17)
	if PageOf(a) != 3 {
		t.Errorf("PageOf = %d, want 3", PageOf(a))
	}
	if OffsetOf(a) != 17 {
		t.Errorf("OffsetOf = %d, want 17", OffsetOf(a))
	}
	if PageID(3).Base() != 3*PageSize {
		t.Errorf("Base = %d", PageID(3).Base())
	}
}

func TestMakeDiffNilWhenUnchanged(t *testing.T) {
	twin := make([]byte, PageSize)
	cur := make([]byte, PageSize)
	if d := MakeDiff(0, twin, cur); d != nil {
		t.Fatalf("diff of identical pages = %+v, want nil", d)
	}
	s := NewStore()
	s.Frame(2)[9] = 1
	s.MakeTwin(2)
	if d := s.MakeDiff(2); d != nil || d.WireSize() != 0 {
		t.Fatalf("Store.MakeDiff of an unchanged page = %+v, want nil", d)
	}
}

// storeDiff makes page p's diff through store s, which carves it from its
// pool: twin is the page before the interval, cur after it.
func storeDiff(s *Store, p PageID, twin, cur []byte) *Diff {
	copy(s.Frame(p), twin)
	s.MakeTwin(p)
	copy(s.Frame(p), cur)
	d := s.MakeDiff(p)
	s.DropTwin(p)
	return d
}

// TestPoolDiffsDoNotAlias: diffs carved back to back from one pool, over
// several chunks of each kind, keep their own runs while later diffs are
// made, and growing one's encoding cannot write into another's.
func TestPoolDiffsDoNotAlias(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	s := NewStore()
	twin := make([]byte, PageSize)
	type made struct {
		d    *Diff
		enc  []byte // a copy of d's encoding when it was made
		want []refRun
	}
	var held []made
	for len(held) < 3*diffChunk {
		cur := append([]byte(nil), twin...)
		for range 1 + rng.Intn(60) { // up to a dense page's fragmentation
			off := rng.Intn(PageSize - 64)
			for j := range 1 + rng.Intn(64) {
				cur[off+j] ^= byte(1 + rng.Intn(255))
			}
		}
		p := PageID(1 + len(held)%5)
		d := storeDiff(s, p, twin, cur)
		if d.Page != p {
			t.Fatalf("diff %d names page %d, want %d", len(held), d.Page, p)
		}
		held = append(held, made{d, bytes.Clone(d.enc), refRuns(twin, cur)})
		twin = cur
	}
	check := func(when string) {
		t.Helper()
		for i, h := range held {
			if !bytes.Equal(h.d.enc, h.enc) || !diffHasRuns(h.d, h.want) {
				t.Fatalf("%s: diff %d no longer holds the runs it was made with", when, i)
			}
		}
	}
	check("after every diff was made")
	for _, h := range held {
		_ = append(h.d.enc, bytes.Repeat([]byte{0xFF}, 64)...)
	}
	check("after appending to each diff's encoding")
}

func TestDiffSingleRun(t *testing.T) {
	twin := make([]byte, PageSize)
	cur := make([]byte, PageSize)
	copy(cur[100:], []byte{1, 2, 3})
	d := MakeDiff(7, twin, cur)
	if d.Page != 7 || !diffHasRuns(d, []refRun{{100, []byte{1, 2, 3}}}) {
		t.Fatalf("diff = %+v", d)
	}
	if d.DataBytes() != 3 {
		t.Errorf("DataBytes = %d", d.DataBytes())
	}
	if d.WireSize() != 8+4+3 {
		t.Errorf("WireSize = %d", d.WireSize())
	}
}

func TestDiffMultipleRuns(t *testing.T) {
	twin := make([]byte, PageSize)
	cur := make([]byte, PageSize)
	cur[0] = 9
	cur[500] = 1
	cur[501] = 2
	cur[PageSize-1] = 5
	d := MakeDiff(0, twin, cur)
	if !diffHasRuns(d, []refRun{{0, []byte{9}}, {500, []byte{1, 2}}, {PageSize - 1, []byte{5}}}) {
		t.Fatalf("diff = %+v", d)
	}
}

// An empty diff is one that changes nothing, stored or not: the sizes the
// cost model reads tell the two apart.
func TestEmptyDiffs(t *testing.T) {
	var none *Diff
	stored := &Diff{Page: 4}
	if !none.Empty() || !stored.Empty() {
		t.Error("a nil or zero diff is not Empty")
	}
	if none.WireSize() != 0 || stored.WireSize() != 8 || none.DataBytes() != 0 || stored.DataBytes() != 0 {
		t.Errorf("nil diff %d/%d bytes, zero diff %d/%d, want 0/0 and 8/0",
			none.WireSize(), none.DataBytes(), stored.WireSize(), stored.DataBytes())
	}
	for range none.EachRun {
		t.Error("a nil diff has a run")
	}
	buf := make([]byte, PageSize)
	stored.Apply(buf)
	if !bytes.Equal(buf, make([]byte, PageSize)) {
		t.Error("applying an empty diff wrote the page")
	}
}

// Property: applying a diff to a copy of the twin reproduces the modified
// page exactly, for random modifications.
func TestDiffRoundTripProperty(t *testing.T) {
	f := func(seed int64, nMods uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		twin := make([]byte, PageSize)
		rng.Read(twin)
		cur := make([]byte, PageSize)
		copy(cur, twin)
		for i := 0; i < int(nMods); i++ {
			cur[rng.Intn(PageSize)] = byte(rng.Int())
		}
		d := MakeDiff(3, twin, cur)
		rebuilt := make([]byte, PageSize)
		copy(rebuilt, twin)
		if d != nil {
			d.Apply(rebuilt)
		}
		return bytes.Equal(rebuilt, cur)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: diffs from disjoint writers commute — applying them in either
// order yields the same page (the multiple-writer protocol's requirement
// in the absence of true sharing).
func TestDisjointDiffsCommuteProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := make([]byte, PageSize)
		rng.Read(base)

		curA := append([]byte(nil), base...)
		curB := append([]byte(nil), base...)
		// Writer A modifies the first half, writer B the second half.
		for i := 0; i < 50; i++ {
			curA[rng.Intn(PageSize/2)] ^= 0xFF
			curB[PageSize/2+rng.Intn(PageSize/2)] ^= 0xFF
		}
		dA := MakeDiff(0, base, curA)
		dB := MakeDiff(0, base, curB)

		ab := append([]byte(nil), base...)
		dA.Apply(ab)
		dB.Apply(ab)
		ba := append([]byte(nil), base...)
		dB.Apply(ba)
		dA.Apply(ba)
		return bytes.Equal(ab, ba)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// refRun is one run of the byte-at-a-time reference scan.
type refRun struct {
	off  int
	data []byte
}

// refRuns is the original byte-at-a-time MakeDiff, kept as the reference
// for the word-wise scanner and the encoded representation: the maximal
// stretches over which twin and current differ.
func refRuns(twin, current []byte) []refRun {
	var runs []refRun
	i := 0
	for i < PageSize {
		if twin[i] == current[i] {
			i++
			continue
		}
		start := i
		for i < PageSize && twin[i] != current[i] {
			i++
		}
		runs = append(runs, refRun{start, append([]byte(nil), current[start:i]...)})
	}
	return runs
}

// diffHasRuns reports whether d's runs, read through the iterator, are
// exactly want, and its modelled sizes the ones want implies. No runs is
// the nil diff.
func diffHasRuns(d *Diff, want []refRun) bool {
	if len(want) == 0 {
		return d == nil
	}
	if d.Empty() {
		return false
	}
	i, data := 0, 0
	for off, b := range d.EachRun {
		if i == len(want) || off != want[i].off || !bytes.Equal(b, want[i].data) {
			return false
		}
		data += len(b)
		i++
	}
	return i == len(want) && d.DataBytes() == data && d.WireSize() == 8+runHeaderSize*i+data
}

// Property: the word-wise MakeDiff produces exactly the diff the byte-wise
// reference produces, on random twin/page pairs whose modified runs
// straddle 8-byte word boundaries and the page edges.
func TestMakeDiffMatchesByteReference(t *testing.T) {
	f := func(seed int64, nRuns uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		twin := make([]byte, PageSize)
		rng.Read(twin)
		cur := make([]byte, PageSize)
		copy(cur, twin)
		for i := 0; i < int(nRuns%24); i++ {
			// Random run lengths around wordSize so many runs start or end
			// mid-word; a random XOR mask keeps some bytes equal inside the
			// dirtied range, splitting runs at arbitrary offsets.
			start := rng.Intn(PageSize)
			n := 1 + rng.Intn(3*wordSize)
			if start+n > PageSize {
				n = PageSize - start
			}
			for j := start; j < start+n; j++ {
				cur[j] ^= byte(1 + rng.Intn(255))
			}
		}
		// Explicitly exercise both page edges half the time.
		if seed%2 == 0 {
			cur[0] ^= 0xA5
			cur[PageSize-1] ^= 0x5A
		}
		return diffHasRuns(MakeDiff(9, twin, cur), refRuns(twin, cur))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Directed edge cases for the word-wise scanner: runs that start or stop at
// every offset within a word, at the very first and last bytes of the page,
// and a fully modified page.
func TestMakeDiffWordBoundaryEdges(t *testing.T) {
	check := func(name string, twin, cur []byte) {
		t.Helper()
		if got, want := MakeDiff(1, twin, cur), refRuns(twin, cur); !diffHasRuns(got, want) {
			t.Errorf("%s: word-wise diff %+v != reference %+v", name, got, want)
		}
	}
	for off := 0; off < 2*wordSize; off++ {
		for n := 1; n <= 2*wordSize; n++ {
			twin := make([]byte, PageSize)
			cur := make([]byte, PageSize)
			for j := off; j < off+n; j++ {
				cur[j] = 0xFF
			}
			check(fmt.Sprintf("run [%d,%d)", off, off+n), twin, cur)
		}
	}
	twin := make([]byte, PageSize)
	cur := make([]byte, PageSize)
	cur[PageSize-1] = 1
	check("last byte", twin, cur)
	cur[PageSize-1] = 0
	cur[0] = 1
	check("first byte", twin, cur)
	for i := range cur {
		cur[i] = 0xEE
	}
	check("full page", twin, cur)
}

// Apply's short-run paths move a run as two overlapping words: for every
// run length around them, at the page's edges and mid-word, a diff applied
// to a page other than its twin writes the run's bytes and no others.
func TestApplyWritesOnlyItsRuns(t *testing.T) {
	for n := 1; n <= 5*wordSize; n++ {
		for _, off := range []int{0, 3, 1000, PageSize - n - 1, PageSize - n} {
			twin := make([]byte, PageSize)
			cur := make([]byte, PageSize)
			for j := off; j < off+n; j++ {
				cur[j] = byte(1 + j%255)
			}
			d := MakeDiff(0, twin, cur)
			buf := bytes.Repeat([]byte{0xEE}, PageSize)
			want := append([]byte(nil), buf...)
			copy(want[off:off+n], cur[off:])
			d.Apply(buf)
			if !bytes.Equal(buf, want) {
				t.Fatalf("run [%d,%d): Apply wrote other bytes than the run's", off, off+n)
			}
		}
	}
}

// FuzzDiffRoundTrip: for any twin and any set of modified stretches, the
// diff has exactly the reference scan's runs and modelled sizes, applying
// it to the twin reproduces the page, and Store.MakeDiff encodes the same
// bytes.
func FuzzDiffRoundTrip(f *testing.F) {
	f.Add(int64(1), []byte{})
	f.Add(int64(2), []byte{0, 0, 16, 0})                  // a full-page run
	f.Add(int64(3), []byte{0xFF, 0x0F, 1, 0})             // the last byte alone
	f.Add(int64(4), []byte{0, 0, 1, 0, 2, 0, 7, 0})       // first byte, then a float's 7 bytes
	f.Add(int64(5), []byte{0xF9, 0x0F, 7, 0, 8, 0, 9, 1}) // a short run ending the page

	// One pool across inputs: their diffs are carved from shared chunks.
	store := NewStore()
	f.Fuzz(func(t *testing.T, seed int64, mods []byte) {
		rng := rand.New(rand.NewSource(seed))
		twin := make([]byte, PageSize)
		rng.Read(twin)
		cur := append([]byte(nil), twin...)
		// Each 4 bytes of mods name a stretch (offset, length) to dirty;
		// a length byte pair of 0x1000 or more dirties to the page's end.
		for ; len(mods) >= 4; mods = mods[4:] {
			off := (int(mods[0]) | int(mods[1])<<8) % PageSize
			n := int(mods[2]) | int(mods[3])<<8
			for j := off; j < min(off+n, PageSize); j++ {
				cur[j] ^= byte(1 + rng.Intn(255))
			}
		}
		d := MakeDiff(5, twin, cur)
		if want := refRuns(twin, cur); !diffHasRuns(d, want) {
			t.Fatalf("diff %+v, reference runs %+v", d, want)
		}
		// A store's diff, carved from its pool, is the same encoding.
		if sd := storeDiff(store, 5, twin, cur); (sd == nil) != (d == nil) ||
			d != nil && (sd.Page != d.Page || sd.runs != d.runs || !bytes.Equal(sd.enc, d.enc)) {
			t.Fatalf("Store.MakeDiff = %+v, MakeDiff = %+v", sd, d)
		}
		rebuilt := append([]byte(nil), twin...)
		if d != nil {
			d.Apply(rebuilt)
		}
		if !bytes.Equal(rebuilt, cur) {
			t.Fatal("Apply(MakeDiff(twin, cur), twin) != cur")
		}
	})
}

func TestStoreFrameLazyZero(t *testing.T) {
	s := NewStore()
	f := s.Frame(5)
	if len(f) != PageSize {
		t.Fatalf("frame len = %d", len(f))
	}
	for _, b := range f {
		if b != 0 {
			t.Fatal("frame not zeroed")
		}
	}
	f[0] = 42
	if g := s.Frame(5); &g[0] != &f[0] || g[0] != 42 {
		t.Fatal("frame not stable across calls")
	}
}

func TestTwinLifecycle(t *testing.T) {
	s := NewStore()
	f := s.Frame(1)
	f[10] = 7
	s.MakeTwin(1)
	if s.Twin(2) != nil {
		t.Fatal("MakeTwin(1) twinned page 2")
	}
	f[10] = 99
	if s.Twin(1)[10] != 7 {
		t.Fatal("twin mutated along with frame")
	}
	d := MakeDiff(1, s.Twin(1), f)
	if !diffHasRuns(d, []refRun{{10, []byte{99}}}) {
		t.Fatalf("diff = %+v", d)
	}
	s.DropTwin(1)
	if s.Twin(1) != nil {
		t.Fatal("twin not dropped")
	}
}

// TestFramesNeverMove pins the invariant proto's page table caches frames
// on: Frame(p) is the same backing array after a twin cycle of p and after
// other pages have grown the table and used up the slab.
func TestFramesNeverMove(t *testing.T) {
	s := NewStore()
	f := s.Frame(3)
	f[0] = 9
	same := func(when string) {
		t.Helper()
		if g := s.Frame(3); &g[0] != &f[0] || g[0] != 9 {
			t.Fatalf("frame of page 3 moved or changed after %s", when)
		}
	}
	s.MakeTwin(3)
	same("MakeTwin")
	s.DropTwin(3)
	same("DropTwin")
	for p := PageID(4); p < 40*leafPages; p += 7 { // new leaves, a longer directory, new slabs
		s.Frame(p)
		s.MakeTwin(p)
	}
	same("growth by other pages")
	s.MakeTwin(3) // takes a fresh buffer: every recycled one is in use
	s.DropTwin(3)
	same("a second twin cycle")
}

// TestPoolSlackIsOneSlab: stores drawing from one pool carve the buffers
// they touch and at most one slab more between them, not a partly used slab
// each. k is one past a power of two, where a slab sequence of each store's
// own would leave it about half empty.
func TestPoolSlackIsOneSlab(t *testing.T) {
	const stores, k = 32, 33
	var pool Pool
	ss := make([]*Store, stores)
	for i := range ss {
		ss[i] = pool.NewStore()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for p := PageID(1); p <= k; p++ {
		for _, s := range ss {
			s.Frame(p)
		}
	}
	runtime.ReadMemStats(&after)
	// Besides page buffers, each store allocates its page table: a leaf of
	// leafPages 16-byte entries and a directory, under half a page.
	got := after.TotalAlloc - before.TotalAlloc
	if most := uint64((stores*k+maxSlabPages)*PageSize + stores*PageSize/2); got > most {
		t.Errorf("%d stores touching %d pages each allocated %d pages' worth, want at most %d",
			stores, k, got/PageSize, most/PageSize)
	}
}

// TestPoolRecyclesTwinsAcrossStores: a twin one store drops is the buffer
// the next MakeTwin on another store of the same pool gets.
func TestPoolRecyclesTwinsAcrossStores(t *testing.T) {
	var pool Pool
	a, b := pool.NewStore(), pool.NewStore()
	a.Frame(1)[0] = 1
	b.Frame(1)
	a.MakeTwin(1)
	retired := &a.Twin(1)[0]
	a.DropTwin(1)
	b.MakeTwin(1)
	if tw := b.Twin(1); &tw[0] != retired || tw[0] != 0 {
		t.Fatal("MakeTwin did not take the twin another store retired, or did not overwrite it")
	}
}

// TestRecycledFrameIsZero: a frame first touched after twins have been
// recycled is all zero, though its buffer is a retired twin.
func TestRecycledFrameIsZero(t *testing.T) {
	var pool Pool
	a, b := pool.NewStore(), pool.NewStore()
	f := a.Frame(1)
	for i := range f {
		f[i] = 0xA5
	}
	a.MakeTwin(1)
	retired := &a.Twin(1)[0]
	a.DropTwin(1)
	g := b.Frame(7)
	if &g[0] != retired {
		t.Fatal("the frame first touched after a DropTwin is not the retired twin")
	}
	if i := slices.IndexFunc(g, func(v byte) bool { return v != 0 }); i >= 0 {
		t.Fatalf("a recycled frame holds %#x at offset %d, want all zero", g[i], i)
	}
}

func TestDoubleTwinPanics(t *testing.T) {
	s := NewStore()
	s.MakeTwin(1)
	defer func() {
		if recover() == nil {
			t.Fatal("second MakeTwin did not panic")
		}
	}()
	s.MakeTwin(1)
}

func TestAllocatorAlignment(t *testing.T) {
	a := NewAllocator()
	x := a.Alloc(3, 1)
	y := a.Alloc(8, 8)
	if y%8 != 0 {
		t.Fatalf("y = %d not 8-aligned", y)
	}
	if y <= x {
		t.Fatalf("allocations overlap: x=%d y=%d", x, y)
	}
	p := a.AllocPages(2)
	if p%PageSize != 0 {
		t.Fatalf("page alloc %d not page aligned", p)
	}
	if a.Brk() != p+2*PageSize {
		t.Fatalf("brk = %d", a.Brk())
	}
}

func TestAllocatorDeterminism(t *testing.T) {
	run := func() []Addr {
		a := NewAllocator()
		var out []Addr
		out = append(out, a.Alloc(100, 8), a.AllocPages(3), a.Alloc(16, 16))
		return out
	}
	x, y := run(), run()
	for i := range x {
		if x[i] != y[i] {
			t.Fatalf("allocator nondeterministic: %v vs %v", x, y)
		}
	}
}

func TestTypedAccessors(t *testing.T) {
	f := make([]byte, PageSize)
	PutU64(f, 0, 0xDEADBEEF12345678)
	if GetU64(f, 0) != 0xDEADBEEF12345678 {
		t.Fatal("u64 round trip failed")
	}
	PutU32(f, 8, 77)
	if GetU32(f, 8) != 77 {
		t.Fatal("u32 round trip failed")
	}
	PutF64(f, 16, -3.25)
	if GetF64(f, 16) != -3.25 {
		t.Fatal("f64 round trip failed")
	}
}

// TestWords: a word view of a frame is the frame's own memory, in the
// accessors' byte order, and nil where it cannot be one.
func TestWords(t *testing.T) {
	f := NewStore().Frame(1)
	w := Words[float64](f[8:32])
	if len(w) != 3 || cap(w) != 3 {
		t.Fatalf("Words of 24 bytes: len %d cap %d, want 3, 3", len(w), cap(w))
	}
	w[1] = -2.5
	if got := GetF64(f, 16); got != -2.5 {
		t.Fatalf("GetF64 reads %v after -2.5 was stored through the view", got)
	}
	PutU64(f, 24, 7)
	if got := Words[int64](f[24:32])[0]; got != 7 || math.Float64bits(w[2]) != 7 {
		t.Fatalf("the views read %d and %#x after PutU64(7)", got, math.Float64bits(w[2]))
	}
	for _, b := range [][]byte{nil, f[:7], f[4:12], f[1:]} {
		if Words[float64](b) != nil || Words[int64](b) != nil {
			t.Fatalf("Words of a %d-byte slice, short or unaligned, is not nil", len(b))
		}
	}
}

func TestScalarPropertyRoundTrip(t *testing.T) {
	f := func(v float64, off uint16) bool {
		frame := make([]byte, PageSize)
		o := int(off) % (PageSize - 8)
		PutF64(frame, o, v)
		got := GetF64(frame, o)
		return got == v || (v != v && got != got) // NaN-safe
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
