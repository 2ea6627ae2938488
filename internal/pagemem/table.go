package pagemem

// leafPages is how many consecutive pages one table leaf covers.
const (
	leafShift = 6
	leafPages = 1 << leafShift
)

// Table is a two-level page table: a directory, indexed by the high bits of
// a PageID, of fixed leafPages-entry leaves indexed by the low bits. Page
// ids come from a bump allocator starting at page 1, so they are small and
// dense, and a lookup is two indexed loads instead of a hash probe.
//
// Leaves are allocated on first touch and never moved, so a *E stays valid
// for the table's life even as the directory grows, and a node of a large
// machine pays only for the leaves it touches. An entry of an allocated
// leaf that was never written holds E's zero value; users give the zero
// value the meaning "never touched". The zero Table is empty and ready to
// use.
type Table[E any] struct {
	dir []*[leafPages]E
}

// Lookup returns p's entry, or nil if p's leaf was never allocated. It
// never allocates.
func (t *Table[E]) Lookup(p PageID) *E {
	if i := int(p >> leafShift); i < len(t.dir) {
		if leaf := t.dir[i]; leaf != nil {
			return &leaf[p&(leafPages-1)]
		}
	}
	return nil
}

// Entry returns p's entry, allocating its leaf (and growing the directory)
// on first touch. The directory is sized by the largest page id ever
// passed, so callers bound p (core.Env rejects addresses outside the
// shared heap before any table sees their page).
func (t *Table[E]) Entry(p PageID) *E {
	i := int(p >> leafShift)
	if i >= len(t.dir) {
		t.dir = append(t.dir, make([]*[leafPages]E, i+1-len(t.dir))...)
	}
	leaf := t.dir[i]
	if leaf == nil {
		leaf = new([leafPages]E)
		t.dir[i] = leaf
	}
	return &leaf[p&(leafPages-1)]
}

// Each yields every entry of every allocated leaf, in strictly ascending
// page order; range over it. The loop body may call Entry: a leaf
// allocated above the current page is visited, one below it is not.
func (t *Table[E]) Each(yield func(PageID, *E) bool) {
	for i := 0; i < len(t.dir); i++ {
		leaf := t.dir[i]
		if leaf == nil {
			continue
		}
		for j := range leaf {
			if !yield(PageID(i<<leafShift|j), &leaf[j]) {
				return
			}
		}
	}
}
