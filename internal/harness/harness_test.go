package harness

import (
	"bytes"
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

// TestEveryExperimentRuns executes each experiment end to end at unit scale
// on a reduced app set and sanity-checks the rendered output.
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
	s := NewSession(Options{Procs: 4, Scale: apps.Unit, Apps: []string{"SOR", "FFT"}})
	for _, e := range Experiments {
		var buf bytes.Buffer
		if err := e.Run(s, &buf); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		out := buf.String()
		if !strings.Contains(out, wantMarker[e.ID]) {
			t.Errorf("%s output missing %q:\n%s", e.ID, wantMarker[e.ID], out)
		}
		if !strings.Contains(out, "SOR") {
			t.Errorf("%s output missing app row", e.ID)
		}
	}
}

// TestSessionCaching: repeated runs of the same configuration must come
// from the cache (same pointer).
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
}

// TestCrossWorkerDeterminism proves the parallel runner's central claim:
// every app/variant pair produces a byte-identical dsm.Report (elapsed,
// breakdowns, all counters) whether simulations run strictly sequentially
// (workers=1) or fanned out over 8 workers.
func TestCrossWorkerDeterminism(t *testing.T) {
	opt := Options{Procs: 4, Scale: apps.Unit}
	optSeq, optPar := opt, opt
	optSeq.Workers = 1
	optPar.Workers = 8
	seq := NewSession(optSeq)
	par := NewSession(optPar)
	if err := par.RunAll(par.Grid(AllVariants)); err != nil {
		t.Fatal(err)
	}
	if err := seq.RunAll(seq.Grid(AllVariants)); err != nil {
		t.Fatal(err)
	}
	for _, k := range seq.Grid(AllVariants) {
		a, err := seq.Run(k.App, k.Variant)
		if err != nil {
			t.Fatal(err)
		}
		b, err := par.Run(k.App, k.Variant)
		if err != nil {
			t.Fatal(err)
		}
		if fa, fb := a.Fingerprint(), b.Fingerprint(); fa != fb {
			t.Errorf("%s/%s: workers=1 and workers=8 reports differ:\nseq: %s\npar: %s",
				k.App, k.Variant, fa, fb)
		}
	}
	if runs, _ := par.SimStats(); runs != int64(len(par.Grid(AllVariants))) {
		t.Errorf("parallel session simulated %d runs, want %d (no duplicates)",
			runs, len(par.Grid(AllVariants)))
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
	opt := Options{Procs: 4, Scale: apps.Unit, Apps: []string{"SOR", "OCEAN"},
		Verify: true, Faults: plan}
	optSeq, optPar := opt, opt
	optSeq.Workers = 1
	optPar.Workers = 8
	seq, par := NewSession(optSeq), NewSession(optPar)
	grid := seq.Grid(FaultVariants)
	if err := par.RunAll(par.Grid(FaultVariants)); err != nil {
		t.Fatal(err)
	}
	if err := seq.RunAll(grid); err != nil {
		t.Fatal(err)
	}
	rerun := NewSession(optSeq)
	if err := rerun.RunAll(grid); err != nil {
		t.Fatal(err)
	}
	var exercised int64
	for _, k := range grid {
		a, _ := seq.Run(k.App, k.Variant)
		b, _ := par.Run(k.App, k.Variant)
		c, _ := rerun.Run(k.App, k.Variant)
		fa, fb, fc := a.Fingerprint(), b.Fingerprint(), c.Fingerprint()
		if fa != fb {
			t.Errorf("%s/%s: faulted reports differ across worker counts:\nseq: %s\npar: %s",
				k.App, k.Variant, fa, fb)
		}
		if fa != fc {
			t.Errorf("%s/%s: same fault seed did not reproduce:\n1st: %s\n2nd: %s",
				k.App, k.Variant, fa, fc)
		}
		n := a.Sum()
		exercised += n.Retransmits + n.Timeouts + n.DupSuppressed + n.AcksSent
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
	opt := Options{Procs: 4, Scale: apps.Unit, Apps: []string{"SOR", "FFT"}}
	optSeq, optPar := opt, opt
	optSeq.Workers = 1
	optPar.Workers = 8
	seq, par, rerun := NewSession(optSeq), NewSession(optPar), NewSession(optPar)

	type pcell struct {
		app   string
		v     Variant
		proto string
	}
	var grid []pcell
	for _, proto := range dsm.Protocols() {
		for _, app := range opt.Apps {
			for _, v := range ProtocolVariants {
				grid = append(grid, pcell{app, v, proto})
			}
		}
	}
	for _, s := range []*Session{par, rerun, seq} {
		s := s
		if err := each(len(grid), func(i int) error {
			c := grid[i]
			_, err := protoSim(s, c.app, c.v, c.proto, "")
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range grid {
		a, _ := protoSim(seq, c.app, c.v, c.proto, "")
		b, _ := protoSim(par, c.app, c.v, c.proto, "")
		d, _ := protoSim(rerun, c.app, c.v, c.proto, "")
		fa, fb, fd := a.Fingerprint(), b.Fingerprint(), d.Fingerprint()
		if fa != fb {
			t.Errorf("%s/%s under %s: workers=1 and workers=8 reports differ:\nseq: %s\npar: %s",
				c.app, c.v, c.proto, fa, fb)
		}
		if fb != fd {
			t.Errorf("%s/%s under %s: rerun did not reproduce:\n1st: %s\n2nd: %s",
				c.app, c.v, c.proto, fb, fd)
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

// TestPrewarm: prewarming the grid leaves rendering with pure cache hits.
func TestPrewarm(t *testing.T) {
	s := NewSession(Options{Procs: 4, Scale: apps.Unit, Apps: []string{"SOR"}, Workers: 2})
	keys := PrewarmKeys(s, Experiments[:4]) // fig1..fig3: SOR × {O, P}
	if len(keys) != 2 {
		t.Fatalf("prewarm keys = %v, want SOR×{O,P}", keys)
	}
	s.Prewarm(keys)
	if err := s.RunAll(keys); err != nil {
		t.Fatal(err)
	}
	runsBefore, _ := s.SimStats()
	if runsBefore != 2 {
		t.Fatalf("%d simulations after prewarm, want 2", runsBefore)
	}
	var buf bytes.Buffer
	if err := RunFig2(s, &buf); err != nil {
		t.Fatal(err)
	}
	if runsAfter, _ := s.SimStats(); runsAfter != runsBefore {
		t.Errorf("rendering after prewarm re-simulated: %d -> %d runs", runsBefore, runsAfter)
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
	if !cfg.SwitchOnMiss || !cfg.SwitchOnSync || cfg.Prefetch {
		t.Errorf("4T config = %+v", cfg)
	}
	cfg = s.Config("FFT", Var4TP)
	if cfg.SwitchOnMiss || !cfg.SwitchOnSync || !cfg.Prefetch {
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
	var buf bytes.Buffer
	if err := RunFig2(s, &buf); err != nil {
		t.Fatal(err)
	}
}
