// Package lrc implements the bookkeeping of lazy release consistency:
// vector timestamps, intervals, write notices, and the happen-before-1
// partial order that dictates the order in which diffs are applied.
//
// Terminology follows Keleher et al.: each processor's execution is divided
// into intervals delimited by synchronization releases (and, in this
// reproduction, by remote diff/prefetch requests that split an interval).
// A write notice records that a page was modified during some interval.
// When a processor acquires a synchronization object it learns, via
// piggybacked write notices, of every interval that happened before the
// acquire, and invalidates the named pages.
package lrc

import (
	"cmp"
	"fmt"
	"slices"

	"godsm/internal/pagemem"
)

// VC is a vector timestamp with one entry per processor. Entry p counts the
// intervals of processor p that the owner has seen (i.e. the owner has seen
// intervals 1..VC[p] of processor p; interval sequence numbers start at 1).
type VC []int32

// NewVC returns a zero vector timestamp for n processors.
func NewVC(n int) VC { return make(VC, n) }

// Clone returns an independent copy of v.
func (v VC) Clone() VC { return append(VC(nil), v...) }

// Covers reports whether v >= o element-wise: the owner of v has seen every
// interval the owner of o has seen.
func (v VC) Covers(o VC) bool {
	for i := range v {
		if v[i] < o[i] {
			return false
		}
	}
	return true
}

// CoversInterval reports whether v includes interval id.
func (v VC) CoversInterval(id IntervalID) bool { return v[id.Node] >= id.Seq }

// Merge sets v to the element-wise maximum of v and o.
func (v VC) Merge(o VC) {
	for i := range v {
		if o[i] > v[i] {
			v[i] = o[i]
		}
	}
}

// Equal reports element-wise equality.
func (v VC) Equal(o VC) bool {
	for i := range v {
		if v[i] != o[i] {
			return false
		}
	}
	return true
}

func (v VC) String() string { return fmt.Sprintf("%v", []int32(v)) }

// IntervalID names one interval: the Seq-th interval of processor Node.
type IntervalID struct {
	Node int
	Seq  int32
}

// Interval is the metadata a processor publishes about one of its
// intervals: its identity, the creator's vector timestamp at creation, and
// the pages written during it (the write notices). Build one with
// NewInterval or a Carver, which compute the causal sort key once.
type Interval struct {
	ID    IntervalID
	VC    VC // creator's vector time when the interval began
	Pages []pagemem.PageID

	sum int64 // SortCausally's key: the sum of VC's entries
}

// NewInterval returns the record of interval id, created at vector time vc,
// which wrote pages. The record keeps vc and pages; callers hand over their
// own copies.
func NewInterval(id IntervalID, vc VC, pages []pagemem.PageID) *Interval {
	return initInterval(new(Interval), id, vc, pages)
}

// initInterval fills iv as the record of interval id and returns it.
func initInterval(iv *Interval, id IntervalID, vc VC, pages []pagemem.PageID) *Interval {
	*iv = Interval{ID: id, VC: vc, Pages: pages, sum: vcSum(vc)}
	return iv
}

// carveChunk is the size, in entries, of the chunks a Carver cuts from.
const carveChunk = 128

// A Carver builds interval records from chunks: the record, its copy of the
// vector time and its copy of the pages are each cut from a chunk of
// carveChunk entries (or of the request, if larger), so a record costs an
// allocation per chunk, not three. There is no free list: records are
// immutable and the interval log keeps them for the run. The zero value is
// ready to use; a machine has one, since its nodes never run at once.
type Carver struct {
	ivs   []Interval
	vcs   []int32
	pages []pagemem.PageID
}

// New returns the record of interval id, created at vector time vc, which
// wrote pages: like NewInterval, but with vc and pages copied into the
// carver's chunks, so the caller keeps its own.
func (c *Carver) New(id IntervalID, vc VC, pages []pagemem.PageID) *Interval {
	if len(c.ivs) == cap(c.ivs) {
		c.ivs = make([]Interval, 0, carveChunk)
	}
	c.ivs = c.ivs[:len(c.ivs)+1]
	return initInterval(&c.ivs[len(c.ivs)-1], id, carve(&c.vcs, []int32(vc)), carve(&c.pages, pages))
}

// carve copies src into the next len(src) entries of *chunk, allocating a
// chunk when the current one lacks room, and returns the copy. Its capacity
// ends at its length, so an append to it reallocates rather than write into
// the copy carved next.
func carve[E any](chunk *[]E, src []E) []E {
	k := len(src)
	if cap(*chunk)-len(*chunk) < k {
		*chunk = make([]E, 0, max(k, carveChunk))
	}
	l := len(*chunk)
	*chunk = append(*chunk, src...)
	return (*chunk)[l : l+k : l+k]
}

// HappensBefore reports whether interval a happened before interval b under
// happen-before-1: true iff b's creator had seen a when b was created.
// Two intervals of the same processor are ordered by sequence number.
func HappensBefore(a, b *Interval) bool {
	if a.ID.Node == b.ID.Node {
		return a.ID.Seq < b.ID.Seq
	}
	return b.VC.CoversInterval(a.ID)
}

// Concurrent reports whether neither interval happened before the other.
func Concurrent(a, b *Interval) bool {
	return !HappensBefore(a, b) && !HappensBefore(b, a)
}

// SortCausally orders intervals such that whenever a happens-before b, a
// precedes b; concurrent intervals are ordered by (Node, Seq) for
// determinism. Diffs applied in this order respect happen-before-1, which
// is the correctness requirement for the multiple-writer protocol
// (concurrent diffs touch disjoint bytes in correct programs, so their
// relative order is immaterial).
//
// The sum of the VC entries is a valid linearization key given the protocol
// invariant that an interval's creation VC covers the creation VCs of every
// interval it has seen (write notices propagate transitively): if a hb b,
// then b.VC >= a.VC element-wise and strictly greater in b's own
// coordinate, so sum(b.VC) > sum(a.VC).
//
// (sum, Node, Seq) is a strict total order — no two intervals share an id —
// so the result does not depend on the input order. The sum is O(N) in the
// machine's width, so it is computed once per record, not per sort.
func SortCausally(ivs []*Interval) {
	slices.SortFunc(ivs, func(a, b *Interval) int {
		return cmp.Or(cmp.Compare(a.sum, b.sum),
			cmp.Compare(a.ID.Node, b.ID.Node), cmp.Compare(a.ID.Seq, b.ID.Seq))
	})
}

func vcSum(v VC) int64 {
	var s int64
	for _, x := range v {
		s += int64(x)
	}
	return s
}
