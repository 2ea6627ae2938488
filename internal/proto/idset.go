package proto

import (
	"slices"

	"godsm/internal/lrc"
)

// idSet is a set of interval ids kept in insertion order: what a fetch
// still needs, what a prefetch asked for, which records wait deferred. The
// sets on these paths hold the handful of intervals pending on one page, so
// membership is a scan and ranging over one is ranging over a slice — in an
// order that is the same on every run, which a map's is not. The zero value
// is the empty set; len and range apply directly.
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

// anyOutside reports whether some id is not in set.
func anyOutside(ids []lrc.IntervalID, set idSet) bool {
	for _, id := range ids {
		if !set.has(id) {
			return true
		}
	}
	return false
}
