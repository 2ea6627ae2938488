// Package race is a deterministic happens-before data-race detector for the
// simulated machine. The DSM protocols the repo compares (LRC, ERC, HLRC)
// are only correct for data-race-free programs — release consistency may
// legally return stale data whenever two accesses are not ordered by
// Lock/Unlock/Barrier — so a racy application silently produces
// protocol-dependent results and poisons every cross-protocol comparison.
// The detector makes that contract checkable: core calls in at the machine's
// choke points (Env.access, Lock/Unlock, Barrier, thread exit) and the first
// pair of unordered conflicting accesses panics with a structured
// *RaceError naming both sites.
//
// The algorithm is FastTrack-style (Flanagan & Freund, PLDI 2009): each
// thread carries a vector clock; each tracked location carries the last
// write as a single epoch (clock, thread) and the reads as an epoch that is
// promoted to a full read vector clock only once two unordered reads are
// observed. Happens-before edges come from the machine's synchronization
// operations only:
//
//   - Unlock(l) → next Lock(l): the releaser's vector clock is stored per
//     lock ID and joined into the next acquirer (release→acquire order).
//   - Barrier: an episode cut — when the last live thread arrives, the join
//     of all arrivers' clocks is redistributed to every live thread.
//   - Thread start/exit: all threads are created by System.Run before any
//     shared access, and the host inspects memory only after Run returns,
//     so both edges are implicit; ThreadExit just removes the thread from
//     the barrier's live count.
//
// Because the simulator is fully deterministic and the detector is a
// synchronous hook (it emits no events, charges no simulated time, and
// allocates no shared state observed by the model), detection is exact and
// replayable: the same configuration either always reports the same first
// race, byte for byte, or never reports one. When Config.RaceCheck is off
// the detector is not constructed at all and the default path is untouched.
package race

import (
	"fmt"

	"godsm/internal/pagemem"
)

// Granularity selects the conflict unit the detector tracks.
type Granularity int

const (
	// Word tracks 8-byte words — exact for the repo's apps, which access
	// shared memory exclusively through the Env's 8-byte (and 4-byte,
	// word-aligned) accessors.
	Word Granularity = iota
	// Page tracks whole coherence pages. Coarse (false sharing within a
	// page reports as a race) but mirrors the protocol's own conflict
	// resolution unit; useful to find the access pairs that force diffs.
	Page
)

func (g Granularity) String() string {
	switch g {
	case Word:
		return "word"
	case Page:
		return "page"
	}
	panic(fmt.Sprintf("race: unknown granularity %d", int(g)))
}

func (g Granularity) shift() uint {
	if g == Page {
		return pagemem.PageShift
	}
	return 3 // 8-byte words
}

// ParseGranularity maps the user-facing spelling to a Granularity. The
// empty string selects the default (word).
func ParseGranularity(s string) (Granularity, error) {
	switch s {
	case "", "word":
		return Word, nil
	case "page":
		return Page, nil
	}
	return 0, fmt.Errorf("unknown race granularity %q (want word or page)", s)
}

// Config sizes a Detector for one simulated machine.
type Config struct {
	Threads        int         // total simulated threads, IDs 0..Threads-1
	ThreadsPerProc int         // for reporting a site's processor
	Granularity    Granularity // conflict unit
	Now            func() int64
}

// vclock is a fixed-width vector clock, indexed by thread ID.
type vclock []uint64

func (v vclock) join(o vclock) {
	for i, c := range o {
		if c > v[i] {
			v[i] = c
		}
	}
}

// epoch packs one (clock, thread) scalar timestamp. The zero epoch is the
// bottom element ⊥ (no access recorded): thread clocks start at 1, so a
// real epoch is never zero. Bit 63 is never part of an epoch — a shadow cell
// keeps a flag there — which leaves the clock 47 bits.
type epoch uint64

const epochTIDBits = 16

// MaxThreads bounds Config.Threads: a thread id must fit an epoch's 16-bit
// field, so a detector takes fewer than MaxThreads threads.
const MaxThreads = 1 << epochTIDBits

func makeEpoch(tid int, clk uint64) epoch {
	return epoch(clk<<epochTIDBits | uint64(tid))
}

func (e epoch) tid() int      { return int(e & (1<<epochTIDBits - 1)) }
func (e epoch) clock() uint64 { return uint64(e) >> epochTIDBits }

// ordered reports e ≤ v, i.e. the access at e happens before anything the
// thread owning v does from now on.
func (e epoch) ordered(v vclock) bool { return e.clock() <= v[e.tid()] }

// Shadow memory is paged: a directory of fixed-size shadow pages, each
// allocated when its first granule is touched. A granule's key is its
// address shifted by the granularity; the key's low cellShift bits index the
// cell within its shadow page and the rest index the directory. At word
// granularity one shadow page covers exactly one coherence page; at page
// granularity it covers 512 of them.
const (
	cellShift = 9
	pageCells = 1 << cellShift
)

// A cell keeps one flag in bit 63 of each of its epoch words.
const (
	// exemptBit, in cell.w, marks a granule that was touched inside an
	// Exempt region: races on it are audited as benign and never reported.
	// It belongs to the granule, so every write carries it over.
	exemptBit epoch = 1 << 63
	// sharedBit, in cell.r, marks FastTrack's read-shared state: the other
	// 63 bits index the granule's stripe in Detector.shared.
	sharedBit epoch = 1 << 63
)

// cell is the per-granule shadow state: the last write as an epoch and the
// reads adaptively as either one epoch or, after the first pair of
// concurrent reads, a stripe of per-thread read clocks held out of line.
// The *At fields remember each recorded access's virtual time purely for
// error reporting. A cell holds no pointer, so the collector allocates a
// shadow page as one no-scan block and never walks it.
type cell struct {
	w   epoch // last write, with exemptBit
	r   epoch // last read (⊥ if none), or sharedBit | stripe index
	wAt int64
	rAt int64
}

type shadowPage [pageCells]cell

// readSlot is one thread's entry in a read-shared stripe: the clock and
// virtual time of its last read. clk 0 = the thread has not read.
type readSlot struct {
	clk uint64
	at  int64
}

// Detector holds the happens-before state of one simulated machine. It is
// owned by the kernel's event loop (all calls arrive from simulated-thread
// context, which the kernel serializes), so it needs no locking.
//
// The shadow directory is sized by the largest address Access is handed, so
// callers bound addr (core.Env rejects an address outside the shared heap
// before the detector sees it).
type Detector struct {
	cfg    Config
	shift  uint
	vcs    []vclock // per-thread clocks; vcs[t][t] is t's own epoch clock
	locks  map[int]vclock
	shadow pagemem.Table[*shadowPage]
	exempt []int // per-thread Exempt nesting depth

	// Read-shared side table: shared[i] is stripe i, Threads wide, indexed
	// by thread. free lists the stripes an ordered write has collapsed: all
	// zero, ready for reuse.
	shared [][]readSlot
	free   []int

	// Barrier episode state: arrivals are joined into barVC; when every
	// live thread has arrived the join is redistributed.
	barVC   vclock
	arrived []bool
	barN    int
	live    int
	exited  []bool
}

// NewDetector returns a detector with every thread at its initial clock.
func NewDetector(cfg Config) *Detector {
	if cfg.Threads <= 0 || cfg.Threads >= MaxThreads {
		panic(fmt.Sprintf("race: %d threads out of range", cfg.Threads))
	}
	d := &Detector{
		cfg:     cfg,
		shift:   cfg.Granularity.shift(),
		vcs:     make([]vclock, cfg.Threads),
		locks:   make(map[int]vclock),
		exempt:  make([]int, cfg.Threads),
		barVC:   make(vclock, cfg.Threads),
		arrived: make([]bool, cfg.Threads),
		live:    cfg.Threads,
		exited:  make([]bool, cfg.Threads),
	}
	for t := range d.vcs {
		d.vcs[t] = make(vclock, cfg.Threads)
		d.vcs[t][t] = 1
	}
	return d
}

func (d *Detector) loc(key uint64) *cell {
	pg := d.shadow.Entry(pagemem.PageID(key >> cellShift))
	if *pg == nil {
		*pg = new(shadowPage)
	}
	return &(*pg)[key&(pageCells-1)]
}

// newStripe returns the index of an all-zero stripe: a recycled one if any,
// else a fresh one appended to the table.
func (d *Detector) newStripe() int {
	if n := len(d.free); n > 0 {
		i := d.free[n-1]
		d.free = d.free[:n-1]
		return i
	}
	d.shared = append(d.shared, make([]readSlot, d.cfg.Threads))
	return len(d.shared) - 1
}

// Access records a shared-memory access by thread t and panics with a
// *RaceError on the first conflicting unordered pair.
func (d *Detector) Access(t int, addr uint64, write bool) {
	key := addr >> d.shift
	s := d.loc(key)
	ct := d.vcs[t]
	if d.exempt[t] > 0 {
		s.w |= exemptBit
	}
	if write {
		d.write(t, key, s, ct)
	} else {
		d.read(t, key, s, ct)
	}
}

func (d *Detector) read(t int, key uint64, s *cell, ct vclock) {
	now := d.cfg.Now()
	if w := s.w &^ exemptBit; w != 0 && !w.ordered(ct) {
		d.report(key, s, prevWrite(s), Access{Write: false, Thread: t, Clock: ct[t], At: now})
	}
	if s.r&sharedBit != 0 {
		d.shared[s.r&^sharedBit][t] = readSlot{ct[t], now}
		return
	}
	if s.r == 0 || s.r.tid() == t || s.r.ordered(ct) {
		// Exclusive read: the previous read (if any) happens before this
		// one, so one epoch keeps representing all reads.
		s.r = makeEpoch(t, ct[t])
		s.rAt = now
		return
	}
	// Two concurrent reads: promote to a read-shared stripe.
	i := d.newStripe()
	st := d.shared[i]
	st[s.r.tid()] = readSlot{s.r.clock(), s.rAt}
	st[t] = readSlot{ct[t], now}
	s.r = sharedBit | epoch(i)
}

func (d *Detector) write(t int, key uint64, s *cell, ct vclock) {
	now := d.cfg.Now()
	cur := Access{Write: true, Thread: t, Clock: ct[t], At: now}
	if w := s.w &^ exemptBit; w != 0 && !w.ordered(ct) {
		d.report(key, s, prevWrite(s), cur)
	}
	if s.r&sharedBit == 0 {
		if s.r != 0 && !s.r.ordered(ct) {
			d.report(key, s, Access{Write: false, Thread: s.r.tid(), Clock: s.r.clock(), At: s.rAt}, cur)
		}
	} else {
		i := int(s.r &^ sharedBit)
		st := d.shared[i]
		for u, rd := range st {
			if rd.clk > ct[u] {
				d.report(key, s, Access{Write: false, Thread: u, Clock: rd.clk, At: rd.at}, cur)
			}
		}
		// All shared reads are ordered before this write; collapse the
		// read state back to ⊥ (FastTrack's write-shared transition) and
		// hand the stripe back, zeroed.
		clear(st)
		d.free = append(d.free, i)
		s.r = 0
	}
	s.w = makeEpoch(t, ct[t]) | s.w&exemptBit
	s.wAt = now
}

func prevWrite(s *cell) Access {
	w := s.w &^ exemptBit
	return Access{Write: true, Thread: w.tid(), Clock: w.clock(), At: s.wAt}
}

// report panics with a structured *RaceError — unless the granule was ever
// touched inside an Exempt region, in which case the race is audited as
// benign and recording simply continues.
func (d *Detector) report(key uint64, s *cell, prev, cur Access) {
	if s.w&exemptBit != 0 {
		return
	}
	base := key << d.shift
	prev.Proc = prev.Thread / d.cfg.ThreadsPerProc
	cur.Proc = cur.Thread / d.cfg.ThreadsPerProc
	panic(&RaceError{
		Addr:        base,
		Page:        int64(base >> pagemem.PageShift),
		Granularity: d.cfg.Granularity.String(),
		Prev:        prev,
		Curr:        cur,
	})
}

// Acquire records thread t acquiring lock l: the previous releaser's clock
// (if any) is joined into t, creating the release→acquire edge.
func (d *Detector) Acquire(t, l int) {
	if lv := d.locks[l]; lv != nil {
		d.vcs[t].join(lv)
	}
}

// Release records thread t releasing lock l: t's clock is published to the
// lock and t moves to a fresh epoch.
func (d *Detector) Release(t, l int) {
	lv := d.locks[l]
	if lv == nil {
		lv = make(vclock, d.cfg.Threads)
		d.locks[l] = lv
	}
	copy(lv, d.vcs[t])
	d.vcs[t][t]++
}

// BarrierArrive records thread t arriving at the (single, phase-reused)
// barrier. When the last live thread arrives, every live thread's clock
// becomes the join of all arrivals — the episode cut — and each moves to a
// fresh epoch.
func (d *Detector) BarrierArrive(t int) {
	if d.arrived[t] {
		panic(fmt.Sprintf("race: thread %d arrived twice in one barrier episode", t))
	}
	d.arrived[t] = true
	d.barVC.join(d.vcs[t])
	d.barN++
	d.maybeReleaseBarrier()
}

// ThreadExit removes t from the barrier's live count (the simulated barrier
// only waits for live threads). An exited thread's clock is left as is: its
// final accesses stay unordered with respect to everything that does not
// synchronize with them, exactly like the machine.
func (d *Detector) ThreadExit(t int) {
	if d.exited[t] {
		return
	}
	d.exited[t] = true
	d.live--
	d.maybeReleaseBarrier()
}

func (d *Detector) maybeReleaseBarrier() {
	if d.barN == 0 || d.barN < d.live {
		return
	}
	for t := range d.vcs {
		if d.exited[t] {
			continue
		}
		copy(d.vcs[t], d.barVC)
		d.vcs[t][t]++
		d.arrived[t] = false
	}
	for i := range d.barVC {
		d.barVC[i] = 0
	}
	d.barN = 0
}

// ExemptPush enters an audited-benign region for thread t: every granule
// the thread touches until the matching ExemptPop is permanently excluded
// from reporting (on both sides — the exemption travels with the granule,
// not the thread). Regions nest.
func (d *Detector) ExemptPush(t int) { d.exempt[t]++ }

// ExemptPop leaves the innermost Exempt region.
func (d *Detector) ExemptPop(t int) {
	if d.exempt[t] == 0 {
		panic("race: ExemptPop without matching ExemptPush")
	}
	d.exempt[t]--
}
