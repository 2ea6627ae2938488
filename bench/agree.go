package main

import (
	"fmt"
	"math"
	"os"
	"slices"
)

// exactMetrics must read the same on every invocation of one build: they
// are simulated quantities, and the simulator is deterministic.
var exactMetrics = []string{"virt_ms", "sim.events", "fail_ratio"}

// quartiles returns the three cut points of v as Python's
// statistics.quantiles(v, n=4) computes them (the exclusive method).
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := slices.Sorted(slices.Values(v))
	if len(s) < 2 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// agree runs two interleaved sets of n invocations — A1 B1 A2 B2 … — of this
// binary, every workload in its own process, invocation i of both sets with
// seed opt.seed+i. It prints, per workload and end-to-end metric, both
// medians, their quartiles, the spread (interquartile distance over the
// median) and the bound, as a Markdown table, and reports whether the sets
// agree: every pair of medians within the metric's bound, every spread
// within it too, and the exact metrics identical across all 2n invocations.
func agree(n int, opt options) bool {
	opt.every, opt.trace = true, 0
	// samples[set][workload][metric] holds one value per invocation.
	var samples [2]map[string]map[string][]float64
	for s := range samples {
		samples[s] = make(map[string]map[string][]float64)
		for _, w := range workloads {
			samples[s][w.Name] = make(map[string][]float64)
		}
	}
	for i := 0; i < n; i++ {
		for s := range samples {
			run := opt
			run.seed += int64(i)
			for _, w := range workloads {
				out, err := child(w.Name, run)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return false
				}
				for name, v := range out.Metrics {
					samples[s][w.Name][name] = append(samples[s][w.Name][name], v.Value)
				}
			}
			fmt.Fprintf(os.Stderr, "bench: agree: set %c invocation %d/%d done\n", 'A'+s, i+1, n)
		}
	}

	ok := true
	fmt.Printf("| workload | metric | median A [q1, q3] | median B [q1, q3] | B vs A | spread A | spread B | bound | verdict |\n")
	fmt.Printf("|---|---|---|---|---|---|---|---|---|\n")
	for _, w := range workloads {
		for _, d := range endToEnd {
			a1, a2, a3 := quartiles(samples[0][w.Name][d.Name])
			b1, b2, b3 := quartiles(samples[1][w.Name][d.Name])
			diff := (b2 - a2) / a2
			spreadA, spreadB := (a3-a1)/a2, (b3-b1)/b2
			verdict := "ok"
			switch {
			case math.Abs(diff) > d.Bound:
				verdict, ok = "MEDIANS DIFFER", false
			case d.Name != "setup_s" && max(spreadA, spreadB) > d.Bound:
				verdict, ok = "SPREAD OVER BOUND", false
			case math.Abs(diff) > d.Bound/2 || (d.Name != "setup_s" && max(spreadA, spreadB) > d.Bound/3):
				verdict = "ok (close)"
			}
			fmt.Printf("| %s | %s | %.6g [%.6g, %.6g] | %.6g [%.6g, %.6g] | %+.2f %% | %.2f %% | %.2f %% | %g %% | %s |\n",
				w.Name, d.Name, a2, a1, a3, b2, b1, b3, 100*diff, 100*spreadA, 100*spreadB, 100*d.Bound, verdict)
		}
	}
	fmt.Println()
	for _, w := range workloads {
		for _, name := range exactMetrics {
			all := slices.Concat(samples[0][w.Name][name], samples[1][w.Name][name])
			same := true
			for _, v := range all {
				same = same && v == all[0]
			}
			if !same {
				ok = false
				fmt.Printf("%s %s DIFFERS between invocations: %v\n", w.Name, name, all)
			} else {
				fmt.Printf("%s %s = %v on all %d invocations\n", w.Name, name, all[0], len(all))
			}
		}
	}
	if ok {
		fmt.Println("\nagree: PASS")
	} else {
		fmt.Println("\nagree: FAIL")
	}
	return ok
}
