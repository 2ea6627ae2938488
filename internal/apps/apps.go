// Package apps re-implements the paper's eight benchmark applications
// against the godsm API: FFT, LU-CONT, LU-NCONT, OCEAN, RADIX, SOR,
// WATER-NSQ and WATER-SP. Each application
//
//   - runs real computation through the shared-memory system (so protocol
//     bugs corrupt results and are caught),
//   - carries hand-inserted non-binding prefetches guarded by
//     Env.Prefetching() (executed only in prefetching configurations), and
//   - verifies its output against a sequential golden implementation when
//     built with verification enabled.
//
// Applications decompose work over Env.NumThreads() workers, so the same
// code runs single-threaded, multithreaded, and combined configurations.
package apps

import (
	"fmt"
	"slices"

	"godsm/dsm"
	"godsm/internal/event"
	"godsm/internal/pagemem"
)

// Scale selects input sizes.
type Scale int

// Scales: Unit is for fast unit tests, Small for the default harness runs,
// Paper for the paper's input sizes (slow).
const (
	Unit Scale = iota
	Small
	Paper
)

var scaleNames = []string{"unit", "small", "paper"}

// String returns the scale's name.
func (s Scale) String() string {
	if s >= 0 && int(s) < len(scaleNames) {
		return scaleNames[s]
	}
	return fmt.Sprintf("Scale(%d)", int(s))
}

// sized returns the entry of sizes — unit, small, paper — for sc; a scale
// past those is Paper.
func sized[P any](sc Scale, sizes [3]P) P {
	if sc != Unit && sc != Small {
		sc = Paper
	}
	return sizes[sc]
}

// ParseScale converts a scale name.
func ParseScale(s string) (Scale, error) {
	if i := slices.Index(scaleNames, s); i >= 0 {
		return Scale(i), nil
	}
	return 0, fmt.Errorf("unknown scale %q (want unit, small or paper)", s)
}

// Instance is a built application ready to run on one System.
type Instance struct {
	Name string
	// Run is the thread body passed to System.Run.
	Run func(*dsm.Env)
	// Err reports verification failure; call after System.Run returns.
	// Always nil when built without verification.
	Err func() error
}

// Options control application construction.
type Options struct {
	Scale  Scale
	Verify bool // run the golden comparison after the timed region
}

// Spec names an application and its builder.
type Spec struct {
	Name  string
	Build func(sys *dsm.System, opt Options) *Instance
}

// Run builds the application on a fresh System for cfg and runs it to
// completion — the one NewSystem → Build → RunChecked → Err sequence behind
// every front end. sinks subscribe to the system's event bus before the run.
// The error is the application's own fault (dsm.RunChecked) or its failed
// golden verification.
func (s Spec) Run(cfg dsm.Config, opt Options, sinks ...event.Sink) (*dsm.System, *dsm.Report, error) {
	sys := dsm.NewSystem(cfg)
	for _, sink := range sinks {
		sys.K.Bus().Subscribe(sink)
	}
	inst := s.Build(sys, opt)
	rep, err := dsm.RunChecked(sys, inst.Run)
	if err != nil {
		return nil, nil, err
	}
	if err := inst.Err(); err != nil {
		return nil, nil, fmt.Errorf("verification failed: %w", err)
	}
	return sys, rep, nil
}

// All lists the eight applications in the paper's figure order.
var All = []Spec{
	{"FFT", BuildFFT},
	{"LU-NCONT", BuildLUNcont},
	{"LU-CONT", BuildLUCont},
	{"OCEAN", BuildOcean},
	{"RADIX", BuildRadix},
	{"SOR", BuildSOR},
	{"WATER-NSQ", BuildWaterNsq},
	{"WATER-SP", BuildWaterSp},
}

// ByName returns the named application spec. Besides All, it resolves the
// intentionally-racy race-detector fixtures (racy.go), which are reachable
// only by explicit name and never via "all"-style selections over All.
func ByName(name string) (Spec, error) {
	for _, s := range All {
		if s.Name == name {
			return s, nil
		}
	}
	for _, s := range Fixtures {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("unknown application %q", name)
}

// errBox collects a verification error from inside the thread body. The
// simulation is strictly sequential (one goroutine at a time), so a plain
// field suffices.
type errBox struct{ err error }

func (b *errBox) set(err error) {
	if b.err == nil {
		b.err = err
	}
}
func (b *errBox) get() error { return b.err }

// chunk splits n items over parts workers; returns [lo, hi) for worker id.
// The first n%parts workers get one extra item.
func chunk(n, parts, id int) (lo, hi int) {
	start := func(id int) int { return id*(n/parts) + min(id, n%parts) }
	return start(id), start(id + 1)
}

// threadChunkFor is Env.ThreadRange for an arbitrary global thread id.
func threadChunkFor(n, procs, tpp, threadID int) (lo, hi int) {
	pLo, pHi := chunk(n, procs, threadID/tpp)
	tLo, tHi := chunk(pHi-pLo, tpp, threadID%tpp)
	return pLo + tLo, pLo + tHi
}

// A shared word is a float64 or an int64, and words is a page-aligned
// shared array of them: f64s or i64s.
type (
	word          interface{ float64 | int64 }
	words[T word] struct{ base dsm.Addr }
	f64s          = words[float64]
	i64s          = words[int64]
)

func allocWords[T word](sys *dsm.System, n int) words[T] {
	return words[T]{base: sys.Alloc.Alloc(8*n, dsm.PageSize)}
}

func (a words[T]) at(i int) dsm.Addr { return a.base + dsm.Addr(8*i) }

// The applications' kernels run on page views (dsm.Env.View): a row of
// shared words that all hit is the frame's own []float64 or []int64, so a
// kernel written over slices runs unchanged on views and on a sequential
// golden's plain slices. Where a page does not hit, the same kernel runs at
// width one on a scratch copy of one cell's operands, read and written back
// through Read*/Write*, which fault, twin and charge as always. A thread's
// views are dead once it yields, so a run asks for them again after every
// cell it makes through the accessors.

// inPage returns how many words, counting the one at a, lie between a and
// the end of a's page: the longest run at a that one view can cover.
func inPage(a dsm.Addr) int { return (dsm.PageSize - pagemem.OffsetOf(a)) / 8 }

// pageView is a view of as many of the n words at a as a's page holds, or
// nil: Env.View or Env.ViewI64, by T.
func pageView[T word](e *dsm.Env, a dsm.Addr, n int, write bool) []T {
	n = min(n, inPage(a))
	if _, f := any(T(0)).(float64); f {
		return any(e.View(a, n, write)).([]T)
	}
	return any(e.ViewI64(a, n, write)).([]T)
}

// readWord and writeWord are the accessors for T.
func readWord[T word](e *dsm.Env, a dsm.Addr) T {
	if _, f := any(T(0)).(float64); f {
		return T(e.ReadF64(a))
	}
	return T(e.ReadI64(a))
}

func writeWord[T word](e *dsm.Env, a dsm.Addr, v T) {
	if _, f := any(T(0)).(float64); f {
		e.WriteF64(a, float64(v))
	} else {
		e.WriteI64(a, int64(v))
	}
}

// A lane is one row of words under a run of cells: the run's first word in
// it is at a, and w words of the run need w+halo of its words, writable if
// write is set. A run has up to four lanes; one whose a is 0 is none.
type lane struct {
	a     dsm.Addr
	halo  int
	write bool
}

// at is the address of the lane's word under word x of the run.
func (l lane) at(x int) dsm.Addr { return l.a + dsm.Addr(8*x) }

// eachRun walks the n words of a run, step words to a cell, charging each
// cell per accesses and cost of computation. Where the next stretch of every
// lane lies in pages that hit, row gets the lanes' views, the stretch's
// first word x and its q cells, and returns how many of them it did: all,
// unless a view of its own is not there. Where a page does not hit, elem(x)
// makes the cell at word x through the accessors, and the run asks again.
func eachRun[T word](e *dsm.Env, lanes [4]lane, n, step, per int, cost dsm.Time,
	row func(v [4][]T, x, q int) int, elem func(x int)) {
	nl := 0
	for nl < len(lanes) && lanes[nl].a != 0 {
		nl++
	}
	var v [4][]T
	for x := 0; x < n; {
		w := n - x
		for _, l := range lanes[:nl] {
			w = min(w, inPage(l.at(x))-l.halo)
		}
		ok := w > 0
		for k := 0; ok && k < nl; k++ {
			v[k] = pageView[T](e, lanes[k].at(x), w+lanes[k].halo, lanes[k].write)
			ok = v[k] != nil
		}
		if ok {
			q := (w + step - 1) / step
			did := row(v, x, q)
			e.Accessed(per * did)
			e.Compute(dsm.Time(did) * cost)
			if x += step * did; did == q {
				continue
			}
		}
		elem(x)
		e.Compute(cost)
		x += step
	}
}

// writeWords stores vals at a, a+8, …, charging cost of computation after
// each store.
func writeWords[T word](e *dsm.Env, a dsm.Addr, vals []T, cost dsm.Time) {
	eachRun(e, [4]lane{{a: a, write: true}}, len(vals), 1, 1, cost,
		func(v [4][]T, x, q int) int { return copy(v[0], vals[x:]) },
		func(x int) { writeWord(e, a+dsm.Addr(8*x), vals[x]) })
}

// firstDiff reads len(want) words at a, a+8, … and returns the index of the
// first that is not the one in want, and its value; -1 if all match.
func firstDiff[T word](e *dsm.Env, a dsm.Addr, want []T) (int, T) {
	for i := 0; i < len(want); {
		w := 1
		if v := pageView[T](e, a, len(want)-i, false); v != nil {
			for x, got := range v {
				if got != want[i+x] {
					e.Accessed(x + 1)
					return i + x, got
				}
			}
			w = len(v)
			e.Accessed(w)
		} else if got := readWord[T](e, a); got != want[i] {
			return i, got
		}
		i, a = i+w, a+dsm.Addr(8*w)
	}
	return -1, 0
}

// Per-operation busy costs (virtual ns), calibrated to a ~133 MHz scalar
// processor: these are charged on top of the per-access cost for the
// floating-point and index arithmetic of each inner-loop operation.
const (
	costStencil   = 400  // 5-point stencil update (~50 cycles at 133 MHz)
	costButterfly = 2500 // complex butterfly incl. memory-hierarchy stalls
	costCmul      = 1200 // complex multiply (twiddle path)
	costMulSub    = 150  // multiply-subtract in the LU inner loop
	costKeyOp     = 120  // shared-structure bookkeeping step
	costRadixOp   = 3000 // radix sort per-key work incl. memory system effects
	costPairForce = 4000 // pairwise force evaluation (WATER: many flops/pair)
	costIntegrate = 2000 // per-molecule integration step
)
