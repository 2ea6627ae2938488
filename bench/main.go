// Command bench is godsm's benchmark: five workloads, each a list of
// golden-verified simulations, measured for host time (what the simulator
// costs) and simulated time (what the modelled machine takes, which must
// repeat exactly). See README.md for why each workload exists and
// NOISE.md for how steady the host-time figures are.
//
//	go run ./bench -workload paper_grid            one workload, end-to-end metrics
//	go run ./bench -workload paper_grid -trace 1   one workload, per-layer metrics
//	go run ./bench                                 every workload, each in its own process
//	go run ./bench -layers                         the same, per-layer metrics
//	go run ./bench -agree 5                        two interleaved sets of 5 invocations, compared
//	go run ./bench -manifest > BENCHMARK.json      regenerate the manifest after editing a list
//
// With one workload the last line of standard output is one JSON object:
// correct, attempted, failed, and metrics (name → value and unit).
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the timed phase's budget.
const defaultSeconds = 10

// value is one emitted metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// output is the result line of a one-workload run.
type output struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// options are the flags a one-workload run and its parent share.
type options struct {
	seed    int64
	seconds float64
	trace   int
	quick   bool
	every   bool
}

func main() {
	var opt options
	name := flag.String("workload", "all", "workload to run, or all (each in its own process)")
	flag.Int64Var(&opt.seed, "seed", 1, "seed for the order cells run in; simulated results do not depend on it")
	flag.Float64Var(&opt.seconds, "seconds", defaultSeconds, "timed-phase budget; every cell still runs its least number of reps")
	flag.IntVar(&opt.trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	layers := flag.Bool("layers", false, "same as -trace 1")
	flag.BoolVar(&opt.quick, "quick", false, "smoke run: one cell per workload, one rep")
	flag.BoolVar(&opt.every, "every", false, "emit every metric this run measured, of both lists (used by -agree)")
	agreeN := flag.Int("agree", 0, "run two interleaved sets of N invocations and compare their medians")
	printManifest := flag.Bool("manifest", false, "print BENCHMARK.json as the tables in this package define it")
	flag.Parse()
	if *layers {
		opt.trace = 1
	}
	if flag.NArg() > 0 || opt.trace < 0 || opt.trace > 1 {
		flag.Usage()
		os.Exit(2)
	}

	switch {
	case *printManifest:
		os.Stdout.Write(manifest())
	case *agreeN > 0:
		if !agree(*agreeN, opt) {
			os.Exit(1)
		}
	case *name == "all":
		ok := true
		for _, w := range workloads {
			out, err := child(w.Name, opt)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				os.Exit(1)
			}
			printTable(w.Name, out)
			ok = ok && out.Correct
		}
		if !ok {
			os.Exit(1)
		}
	default:
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		out := runWorkload(w, opt)
		line, err := json.Marshal(out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		fmt.Println(string(line)) // failed cells are in the result, not the exit code
	}
}

// quickened cuts w down to a smoke run.
func quickened(w workload) workload {
	w.Cells, w.Reps, w.SetupK = w.Cells[:1], 1, 2
	return w
}

// runWorkload measures w in this process, on one P, and selects the metrics
// the trace mode asks for.
func runWorkload(w workload, opt options) output {
	runtime.GOMAXPROCS(1)
	seconds := opt.seconds
	if opt.quick {
		w, seconds = quickened(w), 0
	}
	fmt.Fprintf(os.Stderr, "bench: %s: %d cells, seed %d, nproc %d, GOMAXPROCS %d, %s, commit %s\n",
		w.Name, len(w.Cells), opt.seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
	res := measure(w, opt.seed, seconds)
	for _, cr := range res.cells {
		if cr.failure != "" {
			fmt.Fprintf(os.Stderr, "bench: %s: cell %s FAILED: %s\n", w.Name, cr.cell, cr.failure)
		}
	}

	vals := values(res, opt)
	if spread := vals["bench.rep_spread_pct"]; spread > 15 {
		fmt.Fprintf(os.Stderr, "bench: warning: %s: timed passes spread %.1f %% (noisy neighbour?); host times of this run are suspect\n",
			w.Name, spread)
	}
	return emit(res, vals, opt)
}

// values computes every metric the run's trace mode measures.
func values(res *result, opt options) map[string]float64 {
	vals := res.countValues()
	if opt.trace == 1 {
		unit := unitCosts(opt.quick)
		res.estimateShares(unit, vals)
		for k, v := range unit {
			vals[k] = v
		}
	}
	for k, v := range res.endToEndValues() {
		vals[k] = v
	}
	return vals
}

// emit selects the result line's metrics: the contract's list for the trace
// mode, complete, or with -every whatever of both lists was measured.
func emit(res *result, vals map[string]float64, opt options) output {
	defs := endToEnd
	switch {
	case opt.every:
		defs = slices.Concat(endToEnd, perLayer)
	case opt.trace == 1:
		defs = perLayer
	}
	out := output{Attempted: len(res.cells), Failed: res.failed(), Metrics: make(map[string]value)}
	out.Correct = out.Failed == 0
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok && !opt.every {
			panic("bench: metric " + d.Name + " was not measured")
		}
		if ok {
			out.Metrics[d.Name] = value{v, d.Unit}
		}
	}
	return out
}

// child runs one workload in a fresh process of this binary, so heap and
// collector state never leak between workloads, and parses its result line.
func child(name string, opt options) (output, error) {
	var out output
	exe, err := os.Executable()
	if err != nil {
		return out, err
	}
	args := []string{"-workload", name, "-seed", strconv.FormatInt(opt.seed, 10),
		"-seconds", strconv.FormatFloat(opt.seconds, 'g', -1, 64), "-trace", strconv.Itoa(opt.trace)}
	if opt.quick {
		args = append(args, "-quick")
	}
	if opt.every {
		args = append(args, "-every")
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output() // waits for the child to exit
	if err != nil {
		return out, fmt.Errorf("%s: %w", name, err)
	}
	if err := json.Unmarshal(lastLine(stdout), &out); err != nil {
		return out, fmt.Errorf("%s: no result line: %w", name, err)
	}
	return out, nil
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	return b[bytes.LastIndexByte(b, '\n')+1:]
}

// printTable prints one workload's metrics in the order the lists declare.
func printTable(name string, out output) {
	fmt.Printf("%s: %d/%d cells correct\n", name, out.Attempted-out.Failed, out.Attempted)
	for _, d := range slices.Concat(endToEnd, perLayer) {
		if v, ok := out.Metrics[d.Name]; ok {
			fmt.Printf("  %-30s %16.6g %s\n", d.Name, v.Value, v.Unit)
		}
	}
}

// commit returns the VCS revision the binary was built from, if stamped.
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}
