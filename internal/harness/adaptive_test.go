package harness

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"godsm/dsm"
	"godsm/internal/apps"
	"godsm/internal/event"
)

// Adaptive-experiment determinism tests: the whole backend grid — including
// the adaptive backend's mode switches and the dynamic home policies — must
// render byte-identically at any worker count, stay byte-identical in its
// trace output, and run clean under the happens-before race detector.

// TestAdaptiveCrossWorkerDeterminism renders the adaptive experiment with
// workers=1 and workers=8 and demands byte-identical output, then compares
// every backend cell's report fingerprint across the two sessions. Every
// cell also golden-verifies (RunAdaptive runs with verification on).
func TestAdaptiveCrossWorkerDeterminism(t *testing.T) {
	opt := Options{Procs: 4, Scale: apps.Unit, Apps: []string{"SOR", "FFT"}}
	optSeq, optPar := opt, opt
	optSeq.Workers = 1
	optPar.Workers = 8
	seq, par := NewSession(optSeq), NewSession(optPar)

	var bufSeq, bufPar bytes.Buffer
	if err := render("adaptive", par, &bufPar); err != nil {
		t.Fatal(err)
	}
	if err := render("adaptive", seq, &bufSeq); err != nil {
		t.Fatal(err)
	}
	if bufSeq.String() != bufPar.String() {
		t.Errorf("adaptive output differs across worker counts:\nworkers=1:\n%s\nworkers=8:\n%s",
			bufSeq.String(), bufPar.String())
	}

	a, err := seq.RunGrid(adaptiveGrid)
	if err != nil {
		t.Fatal(err)
	}
	c, err := par.RunGrid(adaptiveGrid)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range a.Runs {
		if fa, fb := r.Fingerprint(), c.Runs[i].Fingerprint(); fa != fb {
			t.Errorf("%s: workers=1 and workers=8 reports differ:\nseq: %s\npar: %s", r.Cell, fa, fb)
		}
	}
}

// adaptiveTraceRun runs one FFT simulation under the adaptive backend with
// a trace sink subscribed and returns the trace bytes. FFT is the cell
// whose pages actually switch modes, so the trace carries mode-switch and
// home-flush events.
func adaptiveTraceRun(t *testing.T) []byte {
	t.Helper()
	spec, err := apps.ByName("FFT")
	if err != nil {
		t.Fatal(err)
	}
	cfg := dsm.DefaultConfig()
	cfg.Procs = 4
	cfg.Protocol = "adp"
	cfg.Prefetch = true
	var buf bytes.Buffer
	sys := dsm.NewSystem(cfg)
	tw := event.NewTraceWriter(&buf)
	sys.K.Bus().Subscribe(tw)
	inst := spec.Build(sys, apps.Options{Scale: apps.Unit, Verify: true})
	sys.Run(inst.Run)
	if err := inst.Err(); err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestAdaptiveTraceDeterministic: same configuration, same seed,
// byte-identical adaptive trace JSON, with the adaptive events present.
func TestAdaptiveTraceDeterministic(t *testing.T) {
	a := adaptiveTraceRun(t)
	b := adaptiveTraceRun(t)
	if !bytes.Equal(a, b) {
		t.Fatalf("two identical adaptive runs produced different traces (%d vs %d bytes)", len(a), len(b))
	}
	if !json.Valid(a) {
		t.Fatal("adaptive trace is not valid JSON")
	}
	out := string(a)
	for _, frag := range []string{`"mode-switch"`, `"home-flush"`} {
		if !strings.Contains(out, frag) {
			t.Errorf("adaptive trace lacks %q", frag)
		}
	}
}

// TestAdaptiveGridRaceCheckClean runs every adaptive-grid cell under the
// happens-before race detector with verification on: the apps are race-free
// under every backend, and checking must not break a single cell.
func TestAdaptiveGridRaceCheckClean(t *testing.T) {
	s := NewSession(Options{Procs: 4, Scale: apps.Unit, Apps: []string{"SOR", "FFT"}, RaceCheck: true})
	if _, err := s.RunGrid(adaptiveGrid); err != nil {
		t.Error(err)
	}
}
