// Package harness regenerates every table and figure of the paper's
// evaluation: Figure 1 (baseline breakdown), Figure 2 + Table 1 + Figure 3
// (prefetching), Figure 4 + Table 2 (multithreading), and Figure 5
// (combined). Each experiment runs the applications under the relevant
// configurations and renders the same rows/series the paper reports.
package harness

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"godsm/dsm"
	"godsm/internal/apps"
)

// Variant names a run configuration using the paper's labels: "O"
// (original), "P" (prefetching), "2T"/"4T"/"8T" (multithreading), and
// "2TP"/"4TP"/"8TP" (combined: multithreading on synchronization only,
// prefetching for memory latency).
type Variant string

// The paper's configurations.
const (
	VarO   Variant = "O"
	VarP   Variant = "P"
	Var2T  Variant = "2T"
	Var4T  Variant = "4T"
	Var8T  Variant = "8T"
	Var2TP Variant = "2TP"
	Var4TP Variant = "4TP"
	Var8TP Variant = "8TP"
)

// threadsOf decodes the leading thread count ("4TP" → 4); 1 for O/P.
func threadsOf(v Variant) int {
	switch v[0] {
	case '2':
		return 2
	case '4':
		return 4
	case '8':
		return 8
	default:
		return 1
	}
}

// prefetching reports whether the variant executes inserted prefetches.
func prefetching(v Variant) bool {
	return v == VarP || v[len(v)-1] == 'P'
}

// AllVariants lists the paper's eight configurations in Figure 5 order.
var AllVariants = []Variant{VarO, Var2T, Var4T, Var8T, VarP, Var2TP, Var4TP, Var8TP}

// Options configure a harness session.
type Options struct {
	Procs int
	Scale apps.Scale
	// Verify re-checks application output against the goldens (slower).
	Verify bool
	// Apps restricts the application list (nil = all eight).
	Apps []string
	// Workers bounds how many simulations may run concurrently
	// (0 = runtime.GOMAXPROCS(0)). Each simulation is single-threaded and
	// deterministic; parallelism exists only between independent
	// simulations, so results are identical for every worker count.
	Workers int
	// Faults injects deterministic network faults into every run of the
	// session (the zero plan injects nothing). The faults experiment uses
	// its own escalating schedules instead.
	Faults dsm.FaultPlan
	// Protocol selects the coherence backend for every run of the session
	// ("" = the default, lrc). The protocols experiment compares all
	// backends regardless of this option.
	Protocol string
	// HomePolicy selects the home-based backend's page→home assignment for
	// every run of the session ("" = static). Meaningful only when Protocol
	// is "hlrc"; the adaptive experiment sweeps policies regardless.
	HomePolicy string
	// NodeScaleProcs overrides the nodescale experiment's processor sweep
	// (nil = NodeScaleDefaultProcs). Fat-tree routing assumes powers of two.
	NodeScaleProcs []int
	// NodeScaleJSON, when non-empty, makes the nodescale experiment write
	// its machine-readable snapshot to this path.
	NodeScaleJSON string
	// RaceCheck runs every simulation of the session under the
	// happens-before race detector (dsm.Config.RaceCheck): a data race in
	// any application surfaces as a run error carrying the *dsm.RaceError.
	// The racecheck experiment forces this on regardless of the option.
	RaceCheck bool
}

// Session caches run results so that experiments sharing configurations
// (e.g. Table 1 and Figure 3) do not re-simulate, and fans independent
// runs out over a bounded worker pool.
//
// Thread-safety contract: every Session method may be called from any
// number of goroutines concurrently. Sim deduplicates in-flight work
// (singleflight): concurrent calls for the same configuration trigger exactly
// one simulation and all receive the same *dsm.Report. The number of
// simulations executing at once never exceeds Options.Workers, no matter
// how many goroutines call in; excess callers queue. Experiment render
// functions may therefore run concurrently against one shared Session.
type Session struct {
	Opt Options

	sem chan struct{} // counting semaphore bounding concurrent simulations

	mu    sync.Mutex
	cache map[string]*flight

	simCount atomic.Int64 // simulations executed (cache misses)
	simWall  atomic.Int64 // cumulative wall nanoseconds spent simulating
}

// flight is one cached (possibly still running) simulation.
type flight struct {
	done chan struct{} // closed when rep/err are valid
	rep  *dsm.Report
	err  error
}

// NewSession creates a harness session.
func NewSession(opt Options) *Session {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Session{
		Opt:   opt,
		sem:   make(chan struct{}, workers),
		cache: make(map[string]*flight),
	}
}

// Workers returns the effective worker-pool size.
func (s *Session) Workers() int { return cap(s.sem) }

// SimStats returns how many simulations have executed and their cumulative
// single-threaded wall time. Comparing the latter with the session's
// overall wall time gives the effective parallel speedup.
func (s *Session) SimStats() (runs int64, wall time.Duration) {
	return s.simCount.Load(), time.Duration(s.simWall.Load())
}

// AppNames resolves an application list against -apps, the one place the
// option is honoured: the selection when there is one, else the given
// default subset (nodescale and netsweep keep their sweeps affordable with
// one), else all eight in figure order.
func (s *Session) AppNames(def ...string) []string {
	if len(s.Opt.Apps) > 0 {
		return s.Opt.Apps
	}
	if len(def) > 0 {
		return def
	}
	names := make([]string, len(apps.All))
	for i, a := range apps.All {
		names[i] = a.Name
	}
	return names
}

// Config builds the dsm.Config for an application/variant pair, encoding
// the paper's mode choices: "nT" switches on misses as well as on
// synchronization; "nTP" on synchronization only (Section 5); RADIX throttles every other prefetch
// in combined mode (Section 5.1).
func (s *Session) Config(app string, v Variant) dsm.Config {
	cfg := dsm.DefaultConfig()
	cfg.Procs = s.Opt.Procs
	cfg.ThreadsPerProc = threadsOf(v)
	cfg.Prefetch = prefetching(v)
	cfg.SwitchOnMiss = cfg.ThreadsPerProc > 1 && !cfg.Prefetch // combined mode spins on misses
	if app == "RADIX" && cfg.Prefetch && cfg.ThreadsPerProc > 1 {
		cfg.ThrottlePf = 2
	}
	cfg.Protocol = s.Opt.Protocol
	cfg.HomePolicy = s.Opt.HomePolicy
	cfg.Net.Faults = s.Opt.Faults
	cfg.RaceCheck = s.Opt.RaceCheck
	return cfg
}

// Run simulates one application under one of the paper's variants: Sim on
// the session's configuration for the pair, verified when the session is.
func (s *Session) Run(app string, v Variant) (*dsm.Report, error) {
	rep, err := s.Sim(app, s.Config(app, v), s.Opt.Verify)
	if err != nil {
		err = fmt.Errorf("%s/%s: %w", app, v, err)
	}
	return rep, err
}

// simKey renders the identity of one simulation. The simulator is
// deterministic, so (app, verify, cfg) determines the report completely;
// %#v quotes strings and covers every field of cfg, nested structs and
// slices included, so no field list needs maintaining (TestSimKey guards
// the assumptions).
func simKey(app string, cfg dsm.Config, verify bool) string {
	return fmt.Sprintf("%q|%t|%#v", app, verify, cfg)
}

// Sim simulates one application under one configuration, with golden-output
// verification when verify is set. It is the session's only way to run a
// simulation: results are cached under the configuration itself, and
// concurrent calls for the same (app, cfg, verify) trigger exactly one
// simulation whose result all of them receive (singleflight) — so Fig2's
// "O" run and Fig4's "O" run, or the adaptive experiment's hlrc column and
// the protocols experiment's, simulate once even when the experiments render
// concurrently. A configuration NewSystem could not build is a plain error,
// reported before the call takes a worker slot.
func (s *Session) Sim(app string, cfg dsm.Config, verify bool) (*dsm.Report, error) {
	spec, err := apps.ByName(app)
	if err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	key := simKey(app, cfg, verify)
	s.mu.Lock()
	f, ok := s.cache[key]
	if !ok {
		f = &flight{done: make(chan struct{})}
		s.cache[key] = f
	}
	s.mu.Unlock()
	if ok {
		<-f.done
		return f.rep, f.err
	}
	f.rep, f.err = s.simulate(spec, cfg, verify)
	close(f.done)
	return f.rep, f.err
}

// simulate builds and runs one simulation on a worker slot.
func (s *Session) simulate(spec apps.Spec, cfg dsm.Config, verify bool) (*dsm.Report, error) {
	s.sem <- struct{}{}
	defer func() { <-s.sem }()
	start := Wallclock()
	_, rep, err := spec.Run(cfg, apps.Options{Scale: s.Opt.Scale, Verify: verify})
	s.simCount.Add(1)
	s.simWall.Add(int64(Wallclock().Sub(start)))
	return rep, err
}

// RunAll simulates the given cells on the session's own machine across the
// worker pool and blocks until all complete, returning the first error. A
// cell of a grid with axes names another machine: run its grid.
func (s *Session) RunAll(cells []Cell) error {
	return each(len(cells), func(i int) error {
		if cells[i].Labels != (Cell{}).Labels {
			return fmt.Errorf("%s: not a cell of the session's own machine", cells[i])
		}
		_, err := s.Run(cells[i].App, cells[i].Variant)
		return err
	})
}

// each runs job(0) … job(n-1) concurrently, waits for all of them, and
// returns the lowest-index error. Jobs end in Sim, which bounds actual
// simulation concurrency at the session's worker pool — each itself spawns
// freely.
func each(n int, job func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = job(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
