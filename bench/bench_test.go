package main

import (
	"bytes"
	"os"
	"regexp"
	"slices"
	"testing"

	"godsm/internal/harness"
)

func names(defs []metricDef) []string {
	var n []string
	for _, d := range defs {
		n = append(n, d.Name)
	}
	slices.Sort(n)
	return n
}

func emitted(out output) []string {
	var n []string
	for k := range out.Metrics {
		n = append(n, k)
	}
	slices.Sort(n)
	return n
}

// TestQuickRuns smoke-runs every workload (one cell, one rep) and checks
// what the contract and ISSUE 12 promise about the result line: each mode
// emits exactly its list, nothing fails, and the simulated quantities repeat.
func TestQuickRuns(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			traced := options{seed: 1, trace: 1, quick: true}
			res := measure(quickened(w), traced.seed, 0)
			vals := values(res, traced)

			for _, mode := range []struct {
				opt  options
				want []metricDef
			}{
				{options{trace: 0}, endToEnd},
				{options{trace: 1}, perLayer},
				{options{trace: 1, every: true}, slices.Concat(endToEnd, perLayer)},
			} {
				out := emit(res, vals, mode.opt)
				if got, want := emitted(out), names(mode.want); !slices.Equal(got, want) {
					t.Errorf("trace %d every %v: emitted %v, want %v", mode.opt.trace, mode.opt.every, got, want)
				}
				if !out.Correct || out.Failed != 0 || out.Attempted != 1 {
					t.Errorf("result line says correct=%v attempted=%d failed=%d", out.Correct, out.Attempted, out.Failed)
				}
				for name, v := range out.Metrics {
					if i := slices.IndexFunc(mode.want, func(d metricDef) bool { return d.Name == name }); v.Unit != mode.want[i].Unit {
						t.Errorf("%s emitted with unit %q, declared %q", name, v.Unit, mode.want[i].Unit)
					}
				}
			}
			if vals["fail_ratio"] != 0 {
				t.Errorf("fail_ratio = %v", vals["fail_ratio"])
			}
			if w.Name != "big_machine" && vals["est.switch_share"] <= 0 {
				// The switch count recognises sim's resume functions by name.
				t.Errorf("est.switch_share = %v: no dispatch was recognised as a Proc resume", vals["est.switch_share"])
			}

			// A second run under another seed must simulate the same thing.
			again := values(measure(quickened(w), 2, 0), options{seed: 2, quick: true})
			for _, exact := range []string{"virt_ms", "sim.events", "event.emitted", "netsim.msgs"} {
				if vals[exact] != again[exact] || vals[exact] <= 0 {
					t.Errorf("%s = %v, then %v: must repeat exactly and be positive", exact, vals[exact], again[exact])
				}
			}
		})
	}
}

// TestFailingCell runs a cell that must fail — the RACY fixture under the
// race detector — and checks the failure is counted, not fatal.
func TestFailingCell(t *testing.T) {
	w := workload{Name: "racy", Reps: 1, SetupK: 1, Cells: []cell{
		{App: "RACY", Variant: harness.VarO, Backend: "lrc", Procs: 8, Race: true},
		{App: "FFT", Variant: harness.VarO, Backend: "lrc", Procs: 8},
	}}
	res := measure(w, 1, 0)
	opt := options{every: true}
	out := emit(res, values(res, opt), opt)
	if out.Correct || out.Failed != 1 || out.Attempted != 2 {
		t.Fatalf("correct=%v attempted=%d failed=%d, want false/2/1", out.Correct, out.Attempted, out.Failed)
	}
	if got := out.Metrics["fail_ratio"].Value; got != 0.5 {
		t.Errorf("fail_ratio = %v, want 0.5", got)
	}
	if res.cells[0].failure == "" || res.cells[1].failure != "" {
		t.Errorf("failures: RACY %q, FFT %q", res.cells[0].failure, res.cells[1].failure)
	}
}

// TestManifest keeps BENCHMARK.json equal to the lists in code and the lists
// inside the contract's limits.
func TestManifest(t *testing.T) {
	committed, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(committed, manifest()) {
		t.Error("BENCHMARK.json differs from the lists in code; run `go run ./bench -manifest > BENCHMARK.json`")
	}

	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q is outside [A-Za-z0-9_.-]{1,64}", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) > 200 || len(w.Cells) == 0 || w.Reps < 3 {
			t.Errorf("workload %s: why of %d chars, %d cells, %d reps", w.Name, len(w.Why), len(w.Cells), w.Reps)
		}
	}
	for _, d := range slices.Concat(endToEnd, perLayer) {
		check(d.Name)
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") || d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("metric %+v is outside the contract", d)
		}
	}
	if !seen["setup_s"] || len(workloads) != 5 || len(perLayer) > 128 {
		t.Errorf("setup_s declared: %v; %d workloads; %d per-layer metrics", seen["setup_s"], len(workloads), len(perLayer))
	}
}

func TestQuartiles(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}
