package harness

import (
	"bytes"
	"io"
	"strings"
	"sync"
	"testing"

	"godsm/dsm"
	"godsm/internal/apps"
)

func testSession() *Session {
	return NewSession(Options{Procs: 4, Scale: apps.Unit})
}

// protoSim runs one golden-verified cell under a named protocol and home
// policy, the way the protocols and adaptive experiments do.
func protoSim(s *Session, app string, v Variant, protocol, policy string) (*dsm.Report, error) {
	cfg := s.Config(app, v)
	cfg.Protocol, cfg.HomePolicy = protocol, policy
	return s.Sim(app, cfg, true)
}

// render runs one experiment by id.
func render(id string, s *Session, w io.Writer) error {
	e, err := ByID(id)
	if err != nil {
		return err
	}
	return e.Run(s, w)
}

// TestEveryExperimentRuns executes each experiment end to end at unit scale
// on a reduced app set and sanity-checks the rendered output — under the
// default backend and under every other one a session can select, since an
// experiment that sweeps backends (or ablates a knob the session's backend
// lacks) must not trip over the session's own.
func TestEveryExperimentRuns(t *testing.T) {
	wantMarker := map[string]string{
		"fig1":      "Figure 1",
		"fig2":      "speedup",
		"table1":    "Covrge%",
		"fig3":      "pf-hit%",
		"fig4":      "multithreading",
		"table2":    "AvgStall",
		"fig5":      "best:",
		"faults":    "schedule totals:",
		"protocols": "relative to lrc",
		"racecheck": "0 data races",
	}
	for _, b := range [][2]string{{"", ""}, {"erc", ""}, {"adp", ""},
		{"hlrc", ""}, {"hlrc", "firsttouch"}, {"hlrc", "migrate"}} {
		s := NewSession(Options{Procs: 4, Scale: apps.Unit, Apps: []string{"SOR", "FFT"},
			NodeScaleProcs: []int{8, 64}, Protocol: b[0], HomePolicy: b[1]})
		for _, e := range Experiments {
			var buf bytes.Buffer
			if err := e.Run(s, &buf); err != nil {
				t.Fatalf("%s under %q: %v", e.ID, b, err)
			}
			out := buf.String()
			if !strings.Contains(out, wantMarker[e.ID]) {
				t.Errorf("%s under %q: output missing %q:\n%s", e.ID, b, wantMarker[e.ID], out)
			}
			if !strings.Contains(out, "SOR") {
				t.Errorf("%s under %q: output missing app row", e.ID, b)
			}
			if na := strings.Contains(out, "n/a ("); na != (e.ID == "ablation" && b[0] != "" && b[0] != "erc") {
				t.Errorf("%s under %q: n/a line present = %v:\n%s", e.ID, b, na, out)
			}
		}
	}
}

// TestSessionCaching: repeated runs of the same configuration must come
// from the cache (same pointer), and rendering after the experiments' cells
// have run re-simulates nothing.
func TestSessionCaching(t *testing.T) {
	s := testSession()
	a, err := s.Run("SOR", VarO)
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Run("SOR", VarO)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("session did not cache the report")
	}

	s = NewSession(Options{Procs: 4, Scale: apps.Unit, Apps: []string{"SOR"}, Workers: 2})
	keys := PrewarmKeys(s, Experiments[:4]) // fig1..fig3: SOR × {O, P}
	if len(keys) != 2 {
		t.Fatalf("prewarm keys = %v, want SOR×{O,P}", keys)
	}
	if err := s.RunAll(keys); err != nil {
		t.Fatal(err)
	}
	if runs, _ := s.SimStats(); runs != 2 {
		t.Fatalf("%d simulations after RunAll, want 2", runs)
	}
	if err := render("fig2", s, io.Discard); err != nil {
		t.Fatal(err)
	}
	if runs, _ := s.SimStats(); runs != 2 {
		t.Errorf("rendering after RunAll re-simulated: 2 -> %d runs", runs)
	}
}

// runGrids runs one grid on a fresh session per option set and returns the
// results in the same order.
func runGrids(t *testing.T, g Grid, opts ...Options) []Results {
	t.Helper()
	res := make([]Results, len(opts))
	for i, opt := range opts {
		s := NewSession(opt)
		var err error
		if res[i], err = s.RunGrid(g); err != nil {
			t.Fatal(err)
		}
		if runs, _ := s.SimStats(); runs != int64(len(res[i].Runs)) {
			t.Errorf("workers=%d simulated %d runs, want %d (no duplicates)", opt.Workers, runs, len(res[i].Runs))
		}
	}
	return res
}

// TestCrossWorkerDeterminism proves the parallel runner's central claim:
// every app/variant pair produces a byte-identical dsm.Report (elapsed,
// breakdowns, all counters) whether simulations run strictly sequentially
// (workers=1) or fanned out over 8 workers.
func TestCrossWorkerDeterminism(t *testing.T) {
	optSeq := Options{Procs: 4, Scale: apps.Unit, Workers: 1}
	optPar := optSeq
	optPar.Workers = 8
	res := runGrids(t, Grid{Variants: AllVariants}, optPar, optSeq)
	for i, a := range res[1].Runs {
		if fa, fb := a.Fingerprint(), res[0].Runs[i].Fingerprint(); fa != fb {
			t.Errorf("%s: workers=1 and workers=8 reports differ:\nseq: %s\npar: %s", a.Cell, fa, fb)
		}
	}
}

// TestFaultedCrossWorkerDeterminism extends the determinism claim to faulty
// networks: with a fault plan set on the session, every app/variant report —
// including the retransmission and duplicate-suppression counters — must be
// byte-identical across worker counts, and a rerun with the same seed must
// reproduce it again.
func TestFaultedCrossWorkerDeterminism(t *testing.T) {
	plan := dsm.FaultPlan{Seed: 77, Loss: 0.02, Dup: 0.01,
		Reorder: 0.05, MaxJitter: dsm.Millisecond}
	optSeq := Options{Procs: 4, Scale: apps.Unit, Apps: []string{"SOR", "OCEAN"},
		Verify: true, Faults: plan, Workers: 1}
	optPar := optSeq
	optPar.Workers = 8
	res := runGrids(t, Grid{Variants: FaultVariants}, optPar, optSeq, optSeq)
	var exercised int64
	for i, a := range res[1].Runs {
		fa, fb, fc := a.Fingerprint(), res[0].Runs[i].Fingerprint(), res[2].Runs[i].Fingerprint()
		if fa != fb {
			t.Errorf("%s: faulted reports differ across worker counts:\nseq: %s\npar: %s", a.Cell, fa, fb)
		}
		if fa != fc {
			t.Errorf("%s: same fault seed did not reproduce:\n1st: %s\n2nd: %s", a.Cell, fa, fc)
		}
		exercised += a.N.Retransmits + a.N.Timeouts + a.N.DupSuppressed + a.N.AcksSent
	}
	if exercised == 0 {
		t.Error("fault plan never exercised the reliable transport")
	}
}

// TestCrossProtocolDeterminism extends the determinism claim to every
// registered coherence protocol: each protocol-grid cell must produce a
// byte-identical report whether simulations run sequentially (workers=1) or
// fanned out over 8 workers, and a rerun must reproduce it again.
func TestCrossProtocolDeterminism(t *testing.T) {
	optSeq := Options{Procs: 4, Scale: apps.Unit, Apps: []string{"SOR", "FFT"}, Workers: 1}
	optPar := optSeq
	optPar.Workers = 8
	registered := Axis{Name: "protocol"}
	for _, name := range dsm.Protocols() {
		registered.Points = append(registered.Points, Point{name, backend(name, "")})
	}
	grid := Grid{Outer: []Axis{registered}, Variants: ProtocolVariants, Verify: true}
	res := runGrids(t, grid, optPar, optPar, optSeq)
	for i, a := range res[2].Runs {
		fa, fb, fd := a.Fingerprint(), res[0].Runs[i].Fingerprint(), res[1].Runs[i].Fingerprint()
		if fa != fb {
			t.Errorf("%s: workers=1 and workers=8 reports differ:\nseq: %s\npar: %s", a.Cell, fa, fb)
		}
		if fb != fd {
			t.Errorf("%s: rerun did not reproduce:\n1st: %s\n2nd: %s", a.Cell, fb, fd)
		}
	}
}

// TestSingleflight: many goroutines racing on the same configuration — an
// explicit one no variant names, as the sweeps and ablations use — must
// trigger exactly one simulation and all observe the same report pointer.
func TestSingleflight(t *testing.T) {
	s := NewSession(Options{Procs: 4, Scale: apps.Unit, Workers: 4})
	cfg := s.Config("SOR", VarO)
	cfg.Net.PropDelay *= 2
	const callers = 16
	reps := make([]*dsm.Report, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rep, err := s.Sim("SOR", cfg, false)
			if err != nil {
				t.Error(err)
				return
			}
			reps[i] = rep
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if reps[i] != reps[0] {
			t.Fatal("concurrent callers got different report pointers")
		}
	}
	if runs, _ := s.SimStats(); runs != 1 {
		t.Fatalf("%d simulations ran, want 1 (singleflight)", runs)
	}
}

// TestConcurrentExperimentRendering: all experiments rendering at once
// against one session must produce exactly the output sequential rendering
// produces.
func TestConcurrentExperimentRendering(t *testing.T) {
	run := func(workers int) map[string]string {
		s := NewSession(Options{Procs: 4, Scale: apps.Unit,
			Apps: []string{"SOR", "FFT"}, Workers: workers})
		out := make([]bytes.Buffer, len(Experiments))
		var wg sync.WaitGroup
		for i, e := range Experiments {
			wg.Add(1)
			go func(i int, e Experiment) {
				defer wg.Done()
				if err := e.Run(s, &out[i]); err != nil {
					t.Error(err)
				}
			}(i, e)
		}
		wg.Wait()
		m := make(map[string]string)
		for i, e := range Experiments {
			m[e.ID] = out[i].String()
		}
		return m
	}
	seq := run(1)
	par := run(8)
	for id, want := range seq {
		if par[id] != want {
			t.Errorf("%s rendered differently under 8 workers:\n--- workers=1\n%s--- workers=8\n%s",
				id, want, par[id])
		}
	}
}

// TestVariantDecoding checks the paper-label decoding.
func TestVariantDecoding(t *testing.T) {
	cases := []struct {
		v        Variant
		threads  int
		prefetch bool
	}{
		{VarO, 1, false}, {VarP, 1, true},
		{Var2T, 2, false}, {Var4T, 4, false}, {Var8T, 8, false},
		{Var2TP, 2, true}, {Var4TP, 4, true}, {Var8TP, 8, true},
	}
	for _, c := range cases {
		if got := threadsOf(c.v); got != c.threads {
			t.Errorf("threadsOf(%s) = %d, want %d", c.v, got, c.threads)
		}
		if got := prefetching(c.v); got != c.prefetch {
			t.Errorf("prefetching(%s) = %v, want %v", c.v, got, c.prefetch)
		}
	}
}

// TestConfigModes: nT switches on both events; nTP on sync only; RADIX
// combined mode throttles prefetches.
func TestConfigModes(t *testing.T) {
	s := testSession()
	cfg := s.Config("FFT", Var4T)
	if !cfg.SwitchOnMiss || cfg.Prefetch {
		t.Errorf("4T config = %+v", cfg)
	}
	cfg = s.Config("FFT", Var4TP)
	if cfg.SwitchOnMiss || !cfg.Prefetch {
		t.Errorf("4TP config = %+v", cfg)
	}
	if s.Config("RADIX", Var2TP).ThrottlePf == 0 {
		t.Error("RADIX combined mode should throttle prefetches")
	}
	if s.Config("RADIX", VarP).ThrottlePf != 0 {
		t.Error("RADIX P mode should not throttle")
	}
	if s.Config("FFT", Var2TP).ThrottlePf != 0 {
		t.Error("only RADIX throttles")
	}
}

// TestByID resolves every listed experiment and rejects unknown ids.
func TestByID(t *testing.T) {
	for _, e := range Experiments {
		got, err := ByID(e.ID)
		if err != nil || got.ID != e.ID {
			t.Errorf("ByID(%s) = %v, %v", e.ID, got.ID, err)
		}
	}
	if _, err := ByID("nope"); err == nil {
		t.Error("ByID accepted an unknown id")
	}
}

// TestVerifiedExperimentRun: an experiment with verification enabled must
// still succeed (the goldens hold under the harness configs).
func TestVerifiedExperimentRun(t *testing.T) {
	s := NewSession(Options{Procs: 4, Scale: apps.Unit, Verify: true,
		Apps: []string{"OCEAN"}})
	if err := render("fig2", s, io.Discard); err != nil {
		t.Fatal(err)
	}
}
