package apps

import (
	"testing"

	"godsm/dsm"
	"godsm/internal/sim"
)

// testConfig builds a config for correctness tests at unit scale.
func testConfig(procs, threads int, prefetch bool) dsm.Config {
	cfg := dsm.DefaultConfig()
	cfg.Procs = procs
	cfg.ThreadsPerProc = threads
	if threads > 1 {
		cfg.SwitchOnMiss = true
	}
	cfg.Prefetch = prefetch
	cfg.Limit = 10000 * sim.Second
	return cfg
}

// runVerified builds and runs the named app with verification and fails the
// test on any verification error.
func runVerified(t *testing.T, spec Spec, cfg dsm.Config, sc Scale) *dsm.Report {
	t.Helper()
	sys := dsm.NewSystem(cfg)
	inst := spec.Build(sys, Options{Scale: sc, Verify: true})
	rep := sys.Run(inst.Run)
	if err := inst.Err(); err != nil {
		t.Fatalf("%s verification failed (procs=%d threads=%d pf=%v): %v",
			spec.Name, cfg.Procs, cfg.ThreadsPerProc, cfg.Prefetch, err)
	}
	if rep.Elapsed <= 0 {
		t.Fatalf("%s: non-positive elapsed time", spec.Name)
	}
	return rep
}

// configMatrix is the set of configurations every application must produce
// correct results under: original, prefetching, multithreading, combined.
func configMatrix() []dsm.Config {
	return []dsm.Config{
		testConfig(1, 1, false),
		testConfig(4, 1, false),
		testConfig(4, 1, true),
		func() dsm.Config { // 4 procs, 2 threads, switch on everything
			c := testConfig(4, 2, false)
			return c
		}(),
		func() dsm.Config { // combined: MT on sync only + prefetch
			c := testConfig(4, 2, true)
			c.SwitchOnMiss = false
			return c
		}(),
	}
}

func testAppAllConfigs(t *testing.T, name string) {
	spec, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range configMatrix() {
		cfg := cfg
		runVerified(t, spec, cfg, Unit)
	}
}

func TestSORAllConfigs(t *testing.T)      { testAppAllConfigs(t, "SOR") }
func TestFFTAllConfigs(t *testing.T)      { testAppAllConfigs(t, "FFT") }
func TestLUNcontAllConfigs(t *testing.T)  { testAppAllConfigs(t, "LU-NCONT") }
func TestLUContAllConfigs(t *testing.T)   { testAppAllConfigs(t, "LU-CONT") }
func TestOceanAllConfigs(t *testing.T)    { testAppAllConfigs(t, "OCEAN") }
func TestRadixAllConfigs(t *testing.T)    { testAppAllConfigs(t, "RADIX") }
func TestWaterNsqAllConfigs(t *testing.T) { testAppAllConfigs(t, "WATER-NSQ") }
func TestWaterSpAllConfigs(t *testing.T)  { testAppAllConfigs(t, "WATER-SP") }

// TestPrefetchingImprovesSOR checks the headline direction: with prefetch
// annotations on, SOR at unit scale must not be slower than the original,
// and must record prefetch activity.
func TestPrefetchingImprovesSOR(t *testing.T) {
	spec, _ := ByName("SOR")
	repO := runVerified(t, spec, testConfig(4, 1, false), Unit)
	repP := runVerified(t, spec, testConfig(4, 1, true), Unit)
	s := repP.Sum()
	if s.PfCalls == 0 {
		t.Fatal("prefetching run issued no prefetches")
	}
	if s.FaultPfHit == 0 {
		t.Error("no prefetch hits recorded")
	}
	if repP.Elapsed > repO.Elapsed*11/10 {
		t.Errorf("prefetching slowed SOR down: O=%dµs P=%dµs",
			repO.Elapsed/sim.Microsecond, repP.Elapsed/sim.Microsecond)
	}
}

// TestDeterminismAcrossRuns: the full application stack must be bit-for-bit
// deterministic.
func TestDeterminismAcrossRuns(t *testing.T) {
	spec, _ := ByName("SOR")
	r1 := runVerified(t, spec, testConfig(4, 2, true), Unit)
	r2 := runVerified(t, spec, testConfig(4, 2, true), Unit)
	if r1.Elapsed != r2.Elapsed || r1.MsgsTotal != r2.MsgsTotal || r1.BytesTotal != r2.BytesTotal {
		t.Fatalf("nondeterministic SOR: (%d,%d,%d) vs (%d,%d,%d)",
			r1.Elapsed, r1.MsgsTotal, r1.BytesTotal, r2.Elapsed, r2.MsgsTotal, r2.BytesTotal)
	}
}

// TestGCUnderApps runs SOR and WATER-NSQ with a tiny GC threshold so that
// diff garbage collection fires repeatedly mid-run; results must still
// verify bitwise under every configuration.
func TestGCUnderApps(t *testing.T) {
	for _, name := range []string{"SOR", "WATER-NSQ"} {
		spec, _ := ByName(name)
		for _, cfg := range configMatrix() {
			cfg := cfg
			cfg.GCThreshold = 2048
			rep := runVerified(t, spec, cfg, Unit)
			if rep.Sum().GCRuns == 0 && cfg.Procs > 1 {
				// (single-proc runs never store remote diffs)
				t.Errorf("%s (procs=%d threads=%d pf=%v): GC never ran despite tiny threshold",
					name, cfg.Procs, cfg.ThreadsPerProc, cfg.Prefetch)
			}
		}
	}
}

// TestPrefetchDropStorm: with the drop threshold at its minimum every
// prefetch message is lost in flight; correctness must be unaffected (the
// real access falls back to reliable demand fetches) and drops must be
// observed.
func TestPrefetchDropStorm(t *testing.T) {
	spec, _ := ByName("SOR")
	cfg := testConfig(4, 1, true)
	cfg.Net.DropThreshold = 1
	rep := runVerified(t, spec, cfg, Unit)
	s := rep.Sum()
	if s.PfMsgs == 0 {
		t.Fatal("no prefetch messages issued")
	}
	if rep.Drops == 0 {
		t.Fatal("drop storm produced no drops")
	}
	if s.FaultPfLate == 0 {
		t.Fatal("dropped prefetches should classify as late at the fault")
	}
}

// TestZeroLatencyNetwork: a degenerate (free) network must still produce
// correct results — guards against divide-by-zero or ordering assumptions
// tied to latency.
func TestZeroLatencyNetwork(t *testing.T) {
	spec, _ := ByName("WATER-NSQ")
	cfg := testConfig(4, 1, false)
	cfg.Net.PropDelay = 0
	cfg.Net.SwitchLatency = 1 // loopback needs a nonzero tick
	cfg.Net.NsPerByte = 0
	runVerified(t, spec, cfg, Unit)
}

// TestSingleProcessorDegenerate: every app must run and verify on one
// processor (no communication at all).
func TestSingleProcessorDegenerate(t *testing.T) {
	for _, spec := range All {
		rep := runVerified(t, spec, testConfig(1, 1, true), Unit)
		if rep.TotalMisses() != 0 {
			t.Errorf("%s: %d remote misses on a single processor", spec.Name, rep.TotalMisses())
		}
	}
}
