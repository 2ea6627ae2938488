package proto

import (
	"cmp"
	"fmt"
	"slices"

	"godsm/internal/lrc"
	"godsm/internal/pagemem"
)

// Pluggable home assignment for the home-based backends. A homeTable maps
// every page to its current home node; it starts as the static mod-N map
// and is updated in lockstep at barrier releases, so every node's replica
// is identical at every point where the assignment is consulted. A
// HomePolicy decides, at the barrier root, which pages move where, from
// per-page access counters the arrivals piggyback.

// PageAcc is one node's access record for one page over one barrier
// episode, piggybacked on barrier arrivals when a dynamic policy runs.
// Static policies attach none, keeping the arrival wire format (and the
// whole run) byte-identical to the fixed mod-N engine.
type PageAcc struct {
	Page   pagemem.PageID
	Node   int32
	Writes int32 // intervals closed here that wrote the page
	Faults int32 // faults taken here on the page
	Busy   bool  // a home transfer of the page has been open here since before the previous arrival
	Bytes  int64 // diff bytes this node shipped for the page
}

// pageAccWire is the estimated on-wire size of one PageAcc record.
const pageAccWire = 24

// Home-move modes (HomeMove.Mode). Pure home-policy moves use ModeNone;
// the adaptive backend uses ModeHome/ModeDiff to switch a page's protocol.
const (
	ModeNone uint8 = iota
	ModeHome
	ModeDiff
)

// HomeMove is one root decision distributed with the barrier releases:
// either "page's home is now Home" (home policies) or "page now runs in
// mode Mode" (the adaptive backend; Home is ignored there).
type HomeMove struct {
	Page pagemem.PageID
	Home int32
	Mode uint8
}

// homeMoveWire is the estimated on-wire size of one HomeMove record.
const homeMoveWire = 16

// homeTable is one node's replica of the page → home assignment.
type homeTable struct {
	n         int
	overrides map[pagemem.PageID]int32 // absent: static mod-N
}

func newHomeTable(n int) *homeTable {
	return &homeTable{n: n, overrides: make(map[pagemem.PageID]int32)}
}

func (t *homeTable) home(p pagemem.PageID) int {
	if h, ok := t.overrides[p]; ok {
		return int(h)
	}
	return int(p) % t.n
}

// pageTotals aggregates every node's episode counters for one page.
type pageTotals struct {
	page   pagemem.PageID
	writes []int64 // per node
	faults []int64
	bytes  int64
	busy   bool // some node still has a home transfer of the page open
}

func (t *pageTotals) total() (writes, faults int64) {
	for q := range t.writes {
		writes += t.writes[q]
		faults += t.faults[q]
	}
	return
}

// writers returns how many nodes wrote the page and the lowest-numbered one.
func (t *pageTotals) writers() (count, sole int) {
	sole = -1
	for q := range t.writes {
		if t.writes[q] > 0 {
			count++
			if sole < 0 {
				sole = q
			}
		}
	}
	return
}

// score is the policies' access weight: writes count double since each one
// implies a diff the home must receive.
func (t *pageTotals) score(q int) int64 { return 2*t.writes[q] + t.faults[q] }

// aggregateAcc merges the per-node records into per-page totals, sorted by
// page id so every consumer iterates deterministically.
func aggregateAcc(nprocs int, acc []PageAcc) []pageTotals {
	byPage := make(map[pagemem.PageID]int)
	var out []pageTotals
	for _, a := range acc {
		i, ok := byPage[a.Page]
		if !ok {
			i = len(out)
			byPage[a.Page] = i
			out = append(out, pageTotals{
				page:   a.Page,
				writes: make([]int64, nprocs),
				faults: make([]int64, nprocs),
			})
		}
		t := &out[i]
		t.writes[a.Node] += int64(a.Writes)
		t.faults[a.Node] += int64(a.Faults)
		t.bytes += a.Bytes
		t.busy = t.busy || a.Busy
	}
	slices.SortFunc(out, func(a, b pageTotals) int { return cmp.Compare(a.page, b.page) }) // byPage keeps pages unique
	return out
}

// HomePolicy decides page→home assignment for the home-based backends.
// Decide runs only at the barrier root, once per episode; the moves it
// returns ride the releases and are applied by every replica in lockstep.
type HomePolicy interface {
	Name() string

	// Dynamic reports whether the policy may ever move a home. False keeps
	// every dynamic code path (counter collection, the barrier wire
	// extensions, the notice filter) disabled, so the run stays
	// byte-identical to the fixed mod-N engine.
	Dynamic() bool

	// Decide returns the home moves for this episode given the aggregated
	// access totals and the current (pre-move) table.
	Decide(tbl *homeTable, agg []pageTotals) []HomeMove
}

// staticPolicy is the fixed page-mod-N assignment (the paper's HLRC).
type staticPolicy struct{}

func (staticPolicy) Name() string                               { return "static" }
func (staticPolicy) Dynamic() bool                              { return false }
func (staticPolicy) Decide(*homeTable, []pageTotals) []HomeMove { return nil }

// firstTouchPolicy assigns each page's home once, to the node with the
// highest access score in the episode where the page first shows traffic
// (ties go to the lowest node id). The assignment then freezes: an override
// present in the table means the page has been claimed.
type firstTouchPolicy struct{}

func (firstTouchPolicy) Name() string  { return "firsttouch" }
func (firstTouchPolicy) Dynamic() bool { return true }

func (firstTouchPolicy) Decide(tbl *homeTable, agg []pageTotals) []HomeMove {
	var moves []HomeMove
	for i := range agg {
		t := &agg[i]
		if _, claimed := tbl.overrides[t.page]; claimed {
			continue
		}
		best, bestScore := -1, int64(0)
		for q := range t.writes {
			if s := t.score(q); s > bestScore {
				best, bestScore = q, s
			}
		}
		if best < 0 {
			continue
		}
		moves = append(moves, HomeMove{Page: t.page, Home: int32(best)})
	}
	return moves
}

// migratePolicy re-homes a page whenever some node's access score dominates
// the current home's by more than 2x (with a minimum absolute score, and at
// most one move per page every migrateHold episodes — hysteresis against
// ping-ponging). A page some node reports Busy stays where it is: its
// previous transfer is still open, and a page has at most one.
type migratePolicy struct {
	episode  int64
	lastMove map[pagemem.PageID]int64
}

const (
	migrateMinScore = 2
	migrateHold     = 2
)

func (*migratePolicy) Name() string  { return "migrate" }
func (*migratePolicy) Dynamic() bool { return true }

func (m *migratePolicy) Decide(tbl *homeTable, agg []pageTotals) []HomeMove {
	m.episode++
	var moves []HomeMove
	for i := range agg {
		t := &agg[i]
		if last, ok := m.lastMove[t.page]; t.busy || ok && m.episode-last < migrateHold {
			continue
		}
		cur := tbl.home(t.page)
		best, bestScore := cur, t.score(cur)
		for q := range t.writes {
			if s := t.score(q); s > bestScore {
				best, bestScore = q, s
			}
		}
		if best == cur || bestScore < migrateMinScore || bestScore <= 2*t.score(cur) {
			continue
		}
		moves = append(moves, HomeMove{Page: t.page, Home: int32(best)})
		m.lastMove[t.page] = m.episode
	}
	return moves
}

// HomePolicies returns the selectable home-policy names in presentation
// order (front ends list them in flag help).
func HomePolicies() []string { return []string{"static", "firsttouch", "migrate"} }

// newHomePolicy resolves a policy name; empty selects static.
func newHomePolicy(name string) (HomePolicy, error) {
	switch name {
	case "", "static":
		return staticPolicy{}, nil
	case "firsttouch":
		return firstTouchPolicy{}, nil
	case "migrate":
		return &migratePolicy{lastMove: make(map[pagemem.PageID]int64)}, nil
	default:
		return nil, fmt.Errorf("unknown home policy %q (have: static, firsttouch, migrate)", name)
	}
}

// accCell is one page's local counters for the episode in progress.
type accCell struct {
	writes, faults int32
	busy           bool
	bytes          int64
}

// accSet collects this node's per-page access counters between barriers.
// Pages are tracked in first-touch order and sorted at drain time, so the
// piggybacked records are deterministic without ranging over the map.
type accSet struct {
	cells map[pagemem.PageID]*accCell
	order []pagemem.PageID
}

func newAccSet() *accSet {
	return &accSet{cells: make(map[pagemem.PageID]*accCell)}
}

func (s *accSet) cell(p pagemem.PageID) *accCell {
	c, ok := s.cells[p]
	if !ok {
		c = &accCell{}
		s.cells[p] = c
		s.order = append(s.order, p)
	}
	return c
}

// drain empties the set into wire records sorted by page.
func (s *accSet) drain(node int) []PageAcc {
	if len(s.order) == 0 {
		return nil
	}
	slices.Sort(s.order) // cell adds each page once
	out := make([]PageAcc, 0, len(s.order))
	for _, p := range s.order {
		c := s.cells[p]
		out = append(out, PageAcc{
			Page: p, Node: int32(node),
			Writes: c.writes, Faults: c.faults, Busy: c.busy, Bytes: c.bytes,
		})
		delete(s.cells, p)
	}
	s.order = s.order[:0]
	return out
}

// noticeFilter is implemented by backends that can prove a write notice's
// data is already in the local frame (a home whose applied vector covers
// the interval), suppressing the invalidation.
type noticeFilter interface {
	filterNotice(p pagemem.PageID, id lrc.IntervalID) bool
}
