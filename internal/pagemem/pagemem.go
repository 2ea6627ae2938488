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
// runs' modified bytes back to back. A diff is therefore two allocations
// whatever its fragmentation, holds no pointer but enc, and retains little
// more than its modelled size (WireSize less the 8-byte preamble).
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

// diffScratch is where MakeDiff builds the table and the payload before it
// knows either's size; the returned Diff holds an exact-size copy. The
// wordSize of slack lets a short run be copied as one whole word. A
// sync.Pool keeps the scratch safe to share between concurrently running
// simulations.
type diffScratch struct {
	table [maxRuns * runHeaderSize]byte
	data  [PageSize + wordSize]byte
	t, w  int // bytes of table and of data in use
}

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

// MakeDiff compares a modified page against its twin and returns the RLE
// diff, or nil if the page is unchanged. Both slices must be PageSize long.
//
// The comparison runs a word (8 bytes) at a time: the XOR of the two words
// is reduced to one bit per differing byte, and a run starts or ends
// wherever that bit pattern, carried across words, flips. Runs are recorded
// in pooled scratch as they are found and the diff keeps an exact-size copy,
// so a call performs two allocations regardless of how fragmented the
// modifications are, and none when the page is unchanged.
func MakeDiff(page PageID, twin, current []byte) *Diff {
	if len(twin) != PageSize || len(current) != PageSize {
		panic(fmt.Sprintf("pagemem: MakeDiff on %d/%d byte buffers", len(twin), len(current)))
	}
	const (
		low7   = 0x7F7F7F7F7F7F7F7F
		high   = 0x8080808080808080
		gather = 0x0102040810204080 // moves the high bit of byte k to bit 56+k
	)
	var sc *diffScratch
	open := -1 // where the run being scanned started; -1 between runs
	for i := 0; i < PageSize; i += wordSize {
		x := binary.LittleEndian.Uint64(twin[i:]) ^ binary.LittleEndian.Uint64(current[i:])
		if x == 0 && open < 0 {
			continue
		}
		if sc == nil {
			sc = diffPool.Get().(*diffScratch)
			sc.t, sc.w = 0, 0
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
	if sc == nil {
		return nil
	}
	if open >= 0 {
		sc.add(current, open, PageSize)
	}
	enc := make([]byte, sc.t+sc.w)
	copy(enc, sc.table[:sc.t])
	copy(enc[sc.t:], sc.data[:sc.w])
	d := &Diff{Page: page, runs: int32(sc.t / runHeaderSize), enc: enc}
	diffPool.Put(sc)
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
// Page-sized buffers are carved out of multi-page slabs rather than
// allocated one by one — slabs that start small and grow with the store, so
// a node that touches a few pages (each of a big machine's thousand) holds a
// few — and twin buffers retired by DropTwin are kept on a free list for the
// next MakeTwin, so steady-state twinning does not allocate. A Store belongs
// to one simulated node and is not safe for concurrent use; concurrently
// running simulations each have their own stores.
type Store struct {
	pages Table[storeEntry]

	slab      []pageBuf  // remainder of the current zeroed allocation slab
	carved    int        // page buffers allocated so far, over all slabs
	freeTwins []*pageBuf // retired twin buffers, reused by MakeTwin
}

type pageBuf = [PageSize]byte

// storeEntry is one page's frame and twin; nil until materialised.
type storeEntry struct{ frame, twin *pageBuf }

// A store's first slab provides minSlabPages page buffers and each later one
// doubles what the store holds, up to maxSlabPages a slab: the store never
// holds more than maxSlabPages-sized slabs from the first touch would.
const (
	minSlabPages = 2
	maxSlabPages = 64
)

// NewStore returns an empty store.
func NewStore() *Store { return &Store{} }

// newPageBuf carves one zeroed page-sized buffer out of the current slab.
func (s *Store) newPageBuf() *pageBuf {
	if len(s.slab) == 0 {
		n := min(max(s.carved, minSlabPages), maxSlabPages)
		s.slab = make([]pageBuf, n)
		s.carved += n
	}
	b := &s.slab[0]
	s.slab = s.slab[1:]
	return b
}

// Frame returns the local copy of page p, allocating a zeroed frame on
// first touch.
func (s *Store) Frame(p PageID) []byte { return s.frame(s.pages.Entry(p))[:] }

func (s *Store) frame(e *storeEntry) *pageBuf {
	if e.frame == nil {
		e.frame = s.newPageBuf()
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
	if n := len(s.freeTwins); n > 0 {
		e.twin = s.freeTwins[n-1]
		s.freeTwins = s.freeTwins[:n-1]
	} else {
		e.twin = s.newPageBuf()
	}
	*e.twin = *s.frame(e) // overwrites the whole buffer; no zeroing needed
}

// Twin returns page p's twin, or nil if none exists. The returned slice is
// only valid until DropTwin(p): the buffer is then recycled for a future
// twin.
func (s *Store) Twin(p PageID) []byte {
	if e := s.pages.Lookup(p); e != nil && e.twin != nil {
		return e.twin[:]
	}
	return nil
}

// DropTwin discards page p's twin and recycles its buffer.
func (s *Store) DropTwin(p PageID) {
	if e := s.pages.Lookup(p); e != nil && e.twin != nil {
		s.freeTwins = append(s.freeTwins, e.twin)
		e.twin = nil
	}
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
