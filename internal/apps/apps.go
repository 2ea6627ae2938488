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

// String returns the scale's name.
func (s Scale) String() string {
	switch s {
	case Unit:
		return "unit"
	case Small:
		return "small"
	case Paper:
		return "paper"
	default:
		return fmt.Sprintf("Scale(%d)", int(s))
	}
}

// ParseScale converts a scale name.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "unit":
		return Unit, nil
	case "small":
		return Small, nil
	case "paper":
		return Paper, nil
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
	base := n / parts
	rem := n % parts
	lo = id*base + min(id, rem)
	hi = lo + base
	if id < rem {
		hi++
	}
	return lo, hi
}

// threadChunkFor is Env.ThreadRange for an arbitrary global thread id.
func threadChunkFor(n, procs, tpp, threadID int) (lo, hi int) {
	pLo, pHi := chunk(n, procs, threadID/tpp)
	tLo, tHi := chunk(pHi-pLo, tpp, threadID%tpp)
	return pLo + tLo, pLo + tHi
}

// f64s is a shared array of float64.
type f64s struct{ base dsm.Addr }

func allocF64s(sys *dsm.System, n int) f64s {
	return f64s{base: sys.Alloc.Alloc(8*n, dsm.PageSize)}
}

func (a f64s) at(i int) dsm.Addr { return a.base + dsm.Addr(8*i) }

// The applications' kernels run on page views (dsm.Env.View): a row of
// shared float64s that all hit is the frame's own []float64, so a kernel
// written over []float64 rows runs unchanged on views and on a sequential
// golden's plain slices. A thread's views are dead once it yields: the
// applications re-take them after every access they make through
// Read*/Write*.

// inPage returns how many words, counting the one at a, lie between a and
// the end of a's page: the longest run at a that one view can cover.
func inPage(a dsm.Addr) int { return (dsm.PageSize - pagemem.OffsetOf(a)) / 8 }

// pageView is a view of as many of the n float64s at a as a's page holds,
// or nil.
func pageView(e *dsm.Env, a dsm.Addr, n int, write bool) []float64 {
	return e.View(a, min(n, inPage(a)), write)
}

// pageViewI64 is pageView for int64s.
func pageViewI64(e *dsm.Env, a dsm.Addr, n int, write bool) []int64 {
	return e.ViewI64(a, min(n, inPage(a)), write)
}

// writeF64s stores vals at a, a+8, …, charging cost of computation after
// each store, a page's worth per view where the page is writable.
func writeF64s(e *dsm.Env, a dsm.Addr, vals []float64, cost dsm.Time) {
	for len(vals) > 0 {
		n := 1
		if v := pageView(e, a, len(vals), true); v != nil {
			n = copy(v, vals)
			e.Accessed(n)
		} else {
			e.WriteF64(a, vals[0])
		}
		e.Compute(dsm.Time(n) * cost)
		a, vals = a+dsm.Addr(8*n), vals[n:]
	}
}

// writeI64s is writeF64s for int64s.
func writeI64s(e *dsm.Env, a dsm.Addr, vals []int64, cost dsm.Time) {
	for len(vals) > 0 {
		n := 1
		if v := pageViewI64(e, a, len(vals), true); v != nil {
			n = copy(v, vals)
			e.Accessed(n)
		} else {
			e.WriteI64(a, vals[0])
		}
		e.Compute(dsm.Time(n) * cost)
		a, vals = a+dsm.Addr(8*n), vals[n:]
	}
}

// firstDiff reads len(want) float64s at a, a+8, … and returns the index of
// the first that is not the one in want, and its value; -1 if all match.
func firstDiff(e *dsm.Env, a dsm.Addr, want []float64) (int, float64) {
	for i := 0; i < len(want); {
		w := 1
		if v := pageView(e, a, len(want)-i, false); v != nil {
			for x, got := range v {
				if got != want[i+x] {
					e.Accessed(x + 1)
					return i + x, got
				}
			}
			w = len(v)
			e.Accessed(w)
		} else if got := e.ReadF64(a); got != want[i] {
			return i, got
		}
		i, a = i+w, a+dsm.Addr(8*w)
	}
	return -1, 0
}

// i64s is a shared array of int64.
type i64s struct{ base dsm.Addr }

func allocI64s(sys *dsm.System, n int) i64s {
	return i64s{base: sys.Alloc.Alloc(8*n, dsm.PageSize)}
}

func (a i64s) at(i int) dsm.Addr { return a.base + dsm.Addr(8*i) }

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
