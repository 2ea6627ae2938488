package proto

import (
	"slices"

	"godsm/internal/lrc"
)

// idSet is a set of interval ids kept in insertion order: the records the
// barrier manager's server role defers, which flushDeferred invalidates in
// the order they were taken. Ranging over one is ranging over a slice — in
// an order that is the same on every run, which a map's is not. The zero
// value is the empty set; len and range apply directly.
type idSet []lrc.IntervalID

func (s idSet) has(id lrc.IntervalID) bool { return slices.Contains(s, id) }

// add inserts id unless the set already holds it.
func (s *idSet) add(id lrc.IntervalID) {
	if !s.has(id) {
		*s = append(*s, id)
	}
}

// remove deletes id, keeping the others' order, and reports whether the set
// held it. Removing an id the set does not hold is a no-op: a fault-injected
// duplicate reply removes twice.
func (s *idSet) remove(id lrc.IntervalID) bool {
	i := slices.Index(*s, id)
	if i >= 0 {
		*s = slices.Delete(*s, i, i+1)
	}
	return i >= 0
}

// sortedIDs is a set of interval ids in idLess order, bisected: a fetch's
// needed and asked ids, a prefetch's requested ones, an hlrc copy's covers.
// Nothing ranges over one. The zero value is the empty set.
type sortedIDs []lrc.IntervalID

// search bisects s for id: its index if held, else where it would go.
func (s sortedIDs) search(id lrc.IntervalID) (int, bool) {
	lo, hi := 0, len(s)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if idLess(s[m], id) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(s) && s[lo] == id
}

func (s sortedIDs) has(id lrc.IntervalID) bool { _, ok := s.search(id); return ok }

// addAll inserts ids, repeats allowed, growing the set once for the batch.
func (s *sortedIDs) addAll(ids []lrc.IntervalID) {
	*s = slices.Grow(*s, len(ids))
	for _, id := range ids {
		if i, ok := s.search(id); !ok {
			*s = slices.Insert(*s, i, id)
		}
	}
}

// remove deletes id and reports whether it was held (replies can repeat).
func (s *sortedIDs) remove(id lrc.IntervalID) bool {
	i, ok := s.search(id)
	if ok {
		*s = slices.Delete(*s, i, i+1)
	}
	return ok
}

// anyOutside reports whether some id is not in set.
func anyOutside(ids []lrc.IntervalID, set sortedIDs) bool {
	for _, id := range ids {
		if !set.has(id) {
			return true
		}
	}
	return false
}
