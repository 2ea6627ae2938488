// Package pagemem implements the paged shared address space that the DSM
// protocol manages: page/address arithmetic, per-node page frames, twin
// copies for the multiple-writer protocol, run-length-encoded diffs, and a
// bump allocator for the shared heap.
//
// TreadMarks detects modifications by write-protecting pages and comparing
// a dirty page against a pristine "twin"; the diff (the RLE encoding of the
// changed bytes) is what travels on the network. This package reproduces
// those data structures exactly; only the fault detection mechanism (VM
// protection in the paper, explicit access checks here) differs.
package pagemem

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"sync"
	"unsafe"
)

// PageSize is the virtual-memory page size (4 KB, as on the paper's AIX
// RS/6000 machines).
const (
	PageSize  = 4096
	PageShift = 12
)

// Addr is an address in the shared virtual address space.
type Addr uint64

// PageID identifies a shared page.
type PageID uint32

// PageOf returns the page containing a.
func PageOf(a Addr) PageID { return PageID(a >> PageShift) }

// OffsetOf returns a's offset within its page.
func OffsetOf(a Addr) int { return int(a & (PageSize - 1)) }

// Base returns the first address of page p.
func (p PageID) Base() Addr { return Addr(p) << PageShift }

// Diff is the set of modifications made to one page, relative to its twin:
// the run-length encoding TreadMarks puts on the wire, held in one buffer.
// enc is a table of the runs in page order — 4 bytes each, the run's offset
// within the page and its length as little-endian uint16s — followed by the
// runs' modified bytes back to back. A diff holds no pointer but enc and
// retains little more than its modelled size (WireSize less the 8-byte
// preamble); one made by Store.MakeDiff is carved, header and encoding,
// from its machine's Pool and costs no allocation of its own.
//
// A diff is immutable once made: the protocol hands one *Diff to every node
// that asks for it. The zero Diff (and a nil *Diff) has no runs.
type Diff struct {
	Page PageID
	runs int32
	enc  []byte
}

// runHeaderSize is the overhead per run (offset + length), on the wire and
// in Diff.enc's table.
const runHeaderSize = 4

// wordSize is the diff scanner's comparison granularity: 8 bytes compared
// per load instead of 1.
const wordSize = 8

// maxRuns bounds a page's runs: they are separated by at least one equal
// byte.
const maxRuns = PageSize / 2

// diffScratch is where the scanner builds the table and the payload before
// it knows either's size; the diff made from it holds a copy of both. The
// wordSize of slack lets a short run be copied as one whole word.
type diffScratch struct {
	table [maxRuns * runHeaderSize]byte
	data  [PageSize + wordSize]byte
	t, w  int // bytes of table and of data in use
}

// diffPool is the package-level MakeDiff's scratch: a sync.Pool keeps it
// safe to share between concurrently running callers. A Store's diffs use
// their machine Pool's scratch instead.
var diffPool = sync.Pool{New: func() any { return new(diffScratch) }}

// add records the run current[start:end].
func (sc *diffScratch) add(current []byte, start, end int) {
	n := end - start
	binary.LittleEndian.PutUint32(sc.table[sc.t:], uint32(start)|uint32(n)<<16)
	sc.t += runHeaderSize
	if n <= wordSize && start+wordSize <= PageSize {
		// The applications change floats: most runs fit one word. Copy
		// the whole word; the next run overwrites the excess.
		binary.LittleEndian.PutUint64(sc.data[sc.w:], binary.LittleEndian.Uint64(current[start:]))
	} else {
		copy(sc.data[sc.w:sc.w+n], current[start:end])
	}
	sc.w += n
}

// scan compares a modified page against its twin, a word (8 bytes) at a
// time, and records the runs where they differ into sc, which it resets
// first; none are recorded when the page is unchanged. The XOR of two
// words is reduced to one bit per differing byte, and a run starts or ends
// wherever that bit pattern, carried across words, flips.
func (sc *diffScratch) scan(twin, current []byte) {
	if len(twin) != PageSize || len(current) != PageSize {
		panic(fmt.Sprintf("pagemem: MakeDiff on %d/%d byte buffers", len(twin), len(current)))
	}
	const (
		low7   = 0x7F7F7F7F7F7F7F7F
		high   = 0x8080808080808080
		gather = 0x0102040810204080 // moves the high bit of byte k to bit 56+k
	)
	sc.t, sc.w = 0, 0
	open := -1 // where the run being scanned started; -1 between runs
	for i := 0; i < PageSize; i += wordSize {
		x := binary.LittleEndian.Uint64(twin[i:]) ^ binary.LittleEndian.Uint64(current[i:])
		if x == 0 && open < 0 {
			continue
		}
		differs := ((x&low7 + low7) | x) & high // the high bit of every byte that differs
		if differs == high && open >= 0 {
			continue
		}
		// Bit k of flips is set where byte k's state is not its
		// predecessor's: each one starts a run or ends the open one.
		m := uint32((differs >> 7) * gather >> 56)
		prev := m << 1
		if open >= 0 {
			prev |= 1
		}
		for flips := (m ^ prev) & 0xFF; flips != 0; flips &= flips - 1 {
			at := i + bits.TrailingZeros32(flips)
			if open < 0 {
				open = at
			} else {
				sc.add(current, open, at)
				open = -1
			}
		}
	}
	if open >= 0 {
		sc.add(current, open, PageSize)
	}
}

// size is the length of the encoding of the scanned runs.
func (sc *diffScratch) size() int { return sc.t + sc.w }

// encode writes the scanned runs into d, whose enc must be size() long.
func (sc *diffScratch) encode(d *Diff) {
	d.runs = int32(sc.t / runHeaderSize)
	copy(d.enc, sc.table[:sc.t])
	copy(d.enc[sc.t:], sc.data[:sc.w])
}

// MakeDiff compares a modified page against its twin and returns the RLE
// diff, or nil if the page is unchanged. Both slices must be PageSize long.
// The diff is two allocations of its own, its header and an exact-size
// encoding, whatever its fragmentation, and a clean page costs none; a
// node's diffs come from Store.MakeDiff, which allocates neither.
func MakeDiff(page PageID, twin, current []byte) *Diff {
	sc := diffPool.Get().(*diffScratch)
	defer diffPool.Put(sc)
	sc.scan(twin, current)
	if sc.size() == 0 {
		return nil
	}
	d := &Diff{Page: page, enc: make([]byte, sc.size())}
	sc.encode(d)
	return d
}

// Apply writes the diff's runs into page contents buf (PageSize long).
func (d *Diff) Apply(buf []byte) {
	if len(buf) != PageSize {
		panic("pagemem: Apply on short buffer")
	}
	enc := d.enc
	p := runHeaderSize * int(d.runs) // the next run's bytes
	table := enc[:p]
	for r := 0; r+runHeaderSize <= len(table); r += runHeaderSize {
		h := binary.LittleEndian.Uint32(table[r : r+runHeaderSize])
		off, n := int(h&0xFFFF), int(h>>16)
		if n > wordSize || p+wordSize > len(enc) {
			copy(buf[off:off+n], enc[p:p+n])
			p += n
			continue
		}
		// A changed float is a run of 7 or 8 bytes and a page of them is
		// hundreds of runs: a short run is one load, and one store or two
		// overlapping ones, instead of a memmove call.
		v := binary.LittleEndian.Uint64(enc[p : p+wordSize])
		dst := buf[off : off+n]
		switch {
		case n == 8:
			binary.LittleEndian.PutUint64(dst, v)
		case n >= 4:
			binary.LittleEndian.PutUint32(dst, uint32(v))
			binary.LittleEndian.PutUint32(dst[n-4:], uint32(v>>(8*uint(n-4)&63)))
		case n >= 2:
			binary.LittleEndian.PutUint16(dst, uint16(v))
			binary.LittleEndian.PutUint16(dst[n-2:], uint16(v>>(8*uint(n-2)&63)))
		case n == 1:
			dst[0] = byte(v)
		}
		p += n
	}
}

// EachRun yields the diff's runs in page order: each run's offset within
// the page and its modified bytes, which alias the diff and must not be
// written.
func (d *Diff) EachRun(yield func(off int, data []byte) bool) {
	if d == nil {
		return
	}
	split := runHeaderSize * int(d.runs)
	table, data := d.enc[:split], d.enc[split:]
	for ; len(table) >= runHeaderSize; table = table[runHeaderSize:] {
		h := binary.LittleEndian.Uint32(table)
		n := int(h >> 16)
		if !yield(int(h&0xFFFF), data[:n:n]) {
			return
		}
		data = data[n:]
	}
}

// Empty reports whether the diff changes nothing: a nil diff, or the
// explicit empty diff the protocol stores for an interval that wrote a page
// without changing it.
func (d *Diff) Empty() bool { return d == nil || len(d.enc) == 0 }

// WireSize returns the number of bytes the diff occupies in a message: the
// page id and run count, then a header and the modified bytes per run.
func (d *Diff) WireSize() int {
	if d == nil {
		return 0
	}
	return 8 + len(d.enc)
}

// DataBytes returns the number of modified bytes the diff carries.
func (d *Diff) DataBytes() int {
	if d == nil {
		return 0
	}
	return len(d.enc) - runHeaderSize*int(d.runs)
}

// Store holds one node's local copies of shared pages and their twins, one
// page-table entry per page. Frames are allocated lazily and are
// zero-filled, matching the convention that the shared heap starts zeroed
// everywhere.
//
// Frames never move: once Frame(p) has materialised p's buffer, every later
// Frame(p) returns the same backing array — across MakeTwin/DropTwin of p,
// table growth caused by other pages, and anything the protocol does to the
// contents. The protocol's page table caches the frame on that promise.
//
// A store draws its page buffers from its machine's Pool and hands retired
// twins back to it. A Store belongs to one simulated node and is not safe
// for concurrent use; it and its pool are never shared between Systems.
type Store struct {
	pages Table[storeEntry]
	pool  *Pool
}

type pageBuf = [PageSize]byte

// storeEntry is one page's frame and twin; nil until materialised.
type storeEntry struct{ frame, twin *pageBuf }

// Pool is one machine's page buffers and diffs: every node's Store carves
// its frames and twins from the pool's current slab, and a twin retired on
// any node serves the next buffer any node asks for, so steady-state
// twinning does not allocate and a machine carries one partly used slab,
// not one per node. Diffs are carved the same way, headers from one chunk
// and encodings from another; a diff is never handed back, and a chunk is
// freed by the collector once no diff in it is reachable. The zero Pool is
// empty and ready to use; like its stores it belongs to one machine and is
// not safe for concurrent use.
type Pool struct {
	slab   []pageBuf  // remainder of the current zeroed allocation slab
	carved int        // page buffers allocated so far, over all slabs
	free   []*pageBuf // retired twin buffers, dirty

	diffs   []Diff       // remainder of the current chunk of diff headers
	enc     []byte       // remainder of the current chunk of diff encodings
	scratch *diffScratch // the diff scanner's, made on first use
}

// The pool's first slab provides minSlabPages page buffers and each later one
// doubles what the pool holds, up to maxSlabPages a slab. A chunk of diff
// headers holds diffChunk of them and a chunk of encodings encChunk bytes,
// a dozen pages' diffs; a diff longer than what is left of a chunk starts
// the next one.
const (
	minSlabPages = 2
	maxSlabPages = 64
	diffChunk    = 64
	encChunk     = 64 << 10
)

// NewStore returns an empty store drawing from pool p.
func (p *Pool) NewStore() *Store { return &Store{pool: p} }

// NewStore returns an empty store with a pool of its own.
func NewStore() *Store { return new(Pool).NewStore() }

// get hands out a page buffer: the last retired twin, cleared if zero is
// set, else a zeroed one carved out of the current slab.
func (p *Pool) get(zero bool) *pageBuf {
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free = p.free[:n-1]
		if zero {
			*b = pageBuf{}
		}
		return b
	}
	if len(p.slab) == 0 {
		n := min(max(p.carved, minSlabPages), maxSlabPages)
		p.slab = make([]pageBuf, n)
		p.carved += n
	}
	b := &p.slab[0]
	p.slab = p.slab[1:]
	return b
}

// Frame returns the local copy of page p, allocating a zeroed frame on
// first touch.
func (s *Store) Frame(p PageID) []byte { return s.frame(s.pages.Entry(p))[:] }

func (s *Store) frame(e *storeEntry) *pageBuf {
	if e.frame == nil {
		e.frame = s.pool.get(true)
	}
	return e.frame
}

// MakeTwin snapshots page p's current contents as its twin. It panics if a
// twin already exists: the protocol must discard the old twin first.
func (s *Store) MakeTwin(p PageID) {
	e := s.pages.Entry(p)
	if e.twin != nil {
		panic(fmt.Sprintf("pagemem: twin for page %d already exists", p))
	}
	f := s.frame(e)
	e.twin = s.pool.get(false)
	*e.twin = *f // overwrites the whole buffer; no zeroing needed
}

// Twin returns page p's twin, or nil if none exists. The returned slice is
// only valid until DropTwin(p): the buffer is then recycled for a future
// twin or frame.
func (s *Store) Twin(p PageID) []byte {
	if e := s.pages.Lookup(p); e != nil && e.twin != nil {
		return e.twin[:]
	}
	return nil
}

// DropTwin discards page p's twin and hands its buffer back to the pool.
func (s *Store) DropTwin(p PageID) {
	if e := s.pages.Lookup(p); e != nil && e.twin != nil {
		s.pool.free = append(s.pool.free, e.twin)
		e.twin = nil
	}
}

// MakeDiff compares page p's frame against its twin and returns the RLE
// diff, or nil if the page is unchanged. It panics if p has no twin. The
// diff is carved from the pool: its encoding is an exact-length stretch of
// the current encoding chunk, capped so that nothing can grow it into the
// next diff's, and its header is the next of the current header chunk.
func (s *Store) MakeDiff(p PageID) *Diff {
	e := s.pages.Lookup(p)
	if e == nil || e.twin == nil {
		panic(fmt.Sprintf("pagemem: MakeDiff of page %d, which has no twin", p))
	}
	pl := s.pool
	if pl.scratch == nil {
		pl.scratch = new(diffScratch)
	}
	sc := pl.scratch
	sc.scan(e.twin[:], e.frame[:])
	n := sc.size()
	if n == 0 {
		return nil
	}
	if len(pl.enc) < n {
		pl.enc = make([]byte, encChunk) // a diff's encoding is under 11 KB
	}
	d := s.EmptyDiff(p)
	d.enc = pl.enc[:n:n]
	pl.enc = pl.enc[n:]
	sc.encode(d)
	return d
}

// EmptyDiff returns an explicit empty diff of page p, carved from the pool:
// what the protocol stores for an interval that wrote p without changing it.
func (s *Store) EmptyDiff(p PageID) *Diff {
	pl := s.pool
	if len(pl.diffs) == 0 {
		pl.diffs = make([]Diff, diffChunk)
	}
	d := &pl.diffs[0]
	pl.diffs = pl.diffs[1:]
	d.Page = p
	return d
}

// Allocator is a bump allocator for the shared heap. All nodes run the same
// allocation sequence deterministically, so addresses agree without
// communication (the applications allocate in their init phase, as the
// SPLASH-2 programs do).
type Allocator struct {
	next Addr
}

// NewAllocator returns an allocator starting at page 1 (address 0 is kept
// unmapped to catch zero-address bugs).
func NewAllocator() *Allocator { return &Allocator{next: PageSize} }

// Alloc returns a size-byte region aligned to align (which must be a power
// of two). Scalar types must use their natural alignment so no scalar ever
// straddles a page boundary.
func (a *Allocator) Alloc(size int, align int) Addr {
	if size <= 0 {
		panic("pagemem: Alloc of non-positive size")
	}
	if align <= 0 || align&(align-1) != 0 {
		panic("pagemem: alignment must be a positive power of two")
	}
	mask := Addr(align - 1)
	a.next = (a.next + mask) &^ mask
	addr := a.next
	a.next += Addr(size)
	return addr
}

// AllocPages returns a page-aligned region covering n whole pages.
func (a *Allocator) AllocPages(n int) Addr {
	return a.Alloc(n*PageSize, PageSize)
}

// Brk returns the current top of the shared heap.
func (a *Allocator) Brk() Addr { return a.next }

// Typed accessors over raw page frames. The DSM env layer resolves the
// frame and offset; these helpers only do the encoding, in the host's byte
// order: the order Words hands the same bytes out in, so a value written
// through one is read back through the other. Every simulated node shares
// the host, and diffs compare and copy bytes by position without decoding
// them, so any order is correct; the order shows only in diff sizes (which
// bytes of a changed value differ), and the committed goldens are those of
// a little-endian host.

// GetU64 reads a uint64 at off.
func GetU64(frame []byte, off int) uint64 { return binary.NativeEndian.Uint64(frame[off:]) }

// PutU64 writes a uint64 at off.
func PutU64(frame []byte, off int, v uint64) { binary.NativeEndian.PutUint64(frame[off:], v) }

// GetU32 reads a uint32 at off.
func GetU32(frame []byte, off int) uint32 { return binary.NativeEndian.Uint32(frame[off:]) }

// PutU32 writes a uint32 at off.
func PutU32(frame []byte, off int, v uint32) { binary.NativeEndian.PutUint32(frame[off:], v) }

// GetF64 reads a float64 at off.
func GetF64(frame []byte, off int) float64 { return math.Float64frombits(GetU64(frame, off)) }

// PutF64 writes a float64 at off.
func PutF64(frame []byte, off int, v float64) { PutU64(frame, off, math.Float64bits(v)) }

// Word is what a word view holds: an 8-byte value in the host's byte order.
type Word interface{ float64 | int64 }

// Words returns b as the len(b)/8 words it holds: b's own memory, not a
// copy, so a store through the result is a store to b. It is nil if b is
// shorter than a word or does not start on an 8-byte boundary. Frames are
// PageSize arrays carved from slabs, hence 8-aligned: a stretch of a frame
// at an 8-aligned offset always qualifies.
func Words[T Word](b []byte) []T {
	p := unsafe.Pointer(unsafe.SliceData(b))
	if len(b) < 8 || uintptr(p)%8 != 0 {
		return nil
	}
	return unsafe.Slice((*T)(p), len(b)/8)
}
