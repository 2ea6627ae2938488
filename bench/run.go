package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"time"

	"godsm/dsm"
	"godsm/internal/apps"
	"godsm/internal/event"
	"godsm/internal/harness"
)

// span indexes the four layer calls a cell is made of.
const (
	spanNewSystem = iota // dsm.NewSystem
	spanBuild            // apps.Spec.Build
	spanRun              // System.Run (the golden comparison runs inside it)
	spanVerify           // Instance.Err
	numSpans
)

// cellRun is one execution of one cell.
type cellRun struct {
	spans   [numSpans]time.Duration
	mallocs uint64 // heap allocations during System.Run
	bytes   uint64 // heap bytes allocated during System.Run
	rep     *dsm.Report
	sys     *dsm.System // kept so the caller can measure the live heap
	err     error
}

func (r *cellRun) total() time.Duration {
	var t time.Duration
	for _, s := range r.spans {
		t += s
	}
	return t
}

// runCell constructs and simulates c once. A non-nil sink is subscribed on
// the kernel's bus before the run. Any failure — golden mismatch, race
// report, invariant panic — comes back as r.err; it never escapes.
func runCell(c cell, sink event.Sink) (r cellRun) {
	defer func() {
		if p := recover(); p != nil {
			r.err = fmt.Errorf("panic: %v", p)
		}
	}()
	spec, err := apps.ByName(c.App)
	if err != nil {
		r.err = err
		return r
	}
	cfg := c.config()

	t0 := harness.Wallclock()
	sys := dsm.NewSystem(cfg)
	t1 := harness.Wallclock()
	inst := spec.Build(sys, apps.Options{Scale: apps.Small, Verify: true})
	t2 := harness.Wallclock()
	r.spans[spanNewSystem], r.spans[spanBuild] = t1.Sub(t0), t2.Sub(t1)
	r.sys = sys
	if sink != nil {
		sys.K.Bus().Subscribe(sink)
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t3 := harness.Wallclock()
	r.rep = sys.Run(inst.Run)
	t4 := harness.Wallclock()
	runtime.ReadMemStats(&m1)
	r.spans[spanRun] = t4.Sub(t3)
	r.mallocs, r.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc

	t5 := harness.Wallclock()
	r.err = inst.Err()
	r.spans[spanVerify] = harness.Wallclock().Sub(t5)
	return r
}

// counter is the count pass's event.Sink: per-kind event counts and operand
// sums, plus how many kernel dispatches resumed a sim.Proc.
type counter struct {
	n        [256]int64
	arg      [256]int64
	switches int64
	isSwitch map[uintptr]bool // dispatched function's code pointer → resumes a Proc
}

func (c *counter) Event(e event.Event) {
	c.n[e.Kind]++
	c.arg[e.Kind] += e.Arg
	if e.Kind != event.KindDispatch || e.Fn == nil {
		return
	}
	pc := reflect.ValueOf(e.Fn).Pointer()
	sw, ok := c.isSwitch[pc]
	if !ok {
		if c.isSwitch == nil {
			c.isSwitch = make(map[uintptr]bool)
		}
		// Proc.Wake/WakeAt/Sleep dispatch the method value p.transfer and
		// Kernel.Spawn a closure around it; both names start the same way.
		name := event.FuncName(e.Fn)
		sw = strings.Contains(name, "sim.(*Proc).transfer") || strings.Contains(name, "sim.(*Kernel).Spawn")
		c.isSwitch[pc] = sw
	}
	if sw {
		c.switches++
	}
}

func (c *counter) add(o *counter) {
	for i := range c.n {
		c.n[i] += o.n[i]
		c.arg[i] += o.arg[i]
	}
	c.switches += o.switches
}

func (c *counter) emitted() int64 {
	var t int64
	for _, v := range c.n {
		t += v
	}
	return t
}

// cellResult gathers everything measured for one cell of a workload.
type cellResult struct {
	cell    cell
	times   []float64           // seconds per timed rep, all four spans
	spans   [numSpans][]float64 // seconds per timed rep
	mallocs []float64
	bytes   []float64
	ran     bool     // virt and fp hold the first successful run's values
	virt    dsm.Time // Report.Elapsed
	fp      uint64   // hash of Report.Fingerprint
	failure string   // why the cell failed; empty if it did not

	// Count pass.
	counts    counter
	countTime float64 // seconds, all four spans, with the sink subscribed
	heap      uint64  // HeapAlloc after GC with the finished System reachable
	rep       *dsm.Report
}

func (cr *cellResult) fail(format string, args ...any) {
	if cr.failure == "" {
		cr.failure = fmt.Sprintf(format, args...)
		if len(cr.failure) > 300 {
			cr.failure = cr.failure[:300] + "..."
		}
	}
}

// record folds one run into the cell's result and cross-checks it against
// the earlier runs: every rep must report the same simulated time and the
// same fingerprint.
func (cr *cellResult) record(r *cellRun) {
	if r.err != nil {
		cr.fail("%v", r.err)
		return
	}
	h := fnv.New64a()
	h.Write([]byte(r.rep.Fingerprint()))
	fp := h.Sum64()
	if !cr.ran {
		cr.ran, cr.virt, cr.fp = true, r.rep.Elapsed, fp
	} else {
		if r.rep.Elapsed != cr.virt {
			cr.fail("virtual time differs between runs: %d vs %d ns", r.rep.Elapsed, cr.virt)
		}
		if fp != cr.fp {
			cr.fail("report fingerprint differs between runs")
		}
	}
}

// result is one workload's measurements.
type result struct {
	cells   []*cellResult
	setupS  float64   // median over batches of the mean time to construct every cell once
	passes  []float64 // seconds per timed pass, summed over cells
	gcN     uint32    // GC cycles during the timed phase
	gcPause uint64    // GC pause ns during the timed phase
}

// setupBatches is how many groups the setup phase's rounds are split into;
// setup_s is the median over the groups of the group's mean round time, so
// collector work is averaged within a group and a stall spoils one group.
const setupBatches = 10

// measure runs the three phases of w: setup, timed, count.
func measure(w workload, seed int64, seconds float64) *result {
	res := &result{}
	for _, c := range w.Cells {
		res.cells = append(res.cells, &cellResult{cell: c})
	}

	// Setup phase: construct every cell SetupK times and discard.
	batches := min(setupBatches, w.SetupK)
	rounds := w.SetupK / batches
	var batchMeans []float64
	runtime.GC()
	for b := 0; b < batches; b++ {
		t0 := harness.Wallclock()
		for k := 0; k < rounds; k++ {
			for _, c := range w.Cells {
				construct(c)
			}
		}
		batchMeans = append(batchMeans, harness.Wallclock().Sub(t0).Seconds()/float64(rounds))
	}
	res.setupS = median(batchMeans)

	// Timed phase: whole passes over the cells, in an order drawn from the
	// seed, until the rep floor and the time budget are both met.
	rng := rand.New(rand.NewSource(seed))
	var g0, g1 runtime.MemStats
	runtime.ReadMemStats(&g0)
	var spent float64
	for rep := 0; ; rep++ {
		if rep >= w.Reps && spent+spent/float64(rep) > seconds {
			break // the floor is met and one more pass would overrun the budget
		}
		var pass float64
		for _, i := range rng.Perm(len(res.cells)) {
			cr := res.cells[i]
			runtime.GC() // every run starts from the same collected heap
			r := runCell(cr.cell, nil)
			cr.record(&r)
			t := r.total().Seconds()
			cr.times = append(cr.times, t)
			for s := range r.spans {
				cr.spans[s] = append(cr.spans[s], r.spans[s].Seconds())
			}
			cr.mallocs = append(cr.mallocs, float64(r.mallocs))
			cr.bytes = append(cr.bytes, float64(r.bytes))
			pass += t
		}
		res.passes = append(res.passes, pass)
		spent += pass
	}
	runtime.ReadMemStats(&g1)
	res.gcN, res.gcPause = g1.NumGC-g0.NumGC, g1.PauseTotalNs-g0.PauseTotalNs

	// Count pass: once more with a counting sink on the bus.
	for _, cr := range res.cells {
		runtime.GC()
		r := runCell(cr.cell, &cr.counts)
		cr.record(&r)
		cr.countTime = r.total().Seconds()
		cr.rep = r.rep
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		cr.heap = m.HeapAlloc
		runtime.KeepAlive(r.sys)
	}
	return res
}

// construct builds a cell's System and application instance and drops them.
func construct(c cell) {
	defer func() { _ = recover() }() // a cell that cannot be built fails in the timed phase
	spec, err := apps.ByName(c.App)
	if err != nil {
		return
	}
	spec.Build(dsm.NewSystem(c.config()), apps.Options{Scale: apps.Small, Verify: true})
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(v))
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
