// Command dsmbench regenerates the paper's tables and figures.
//
// Usage:
//
//	dsmbench [-exp all|fig1|fig2|table1|fig3|fig4|table2|fig5|...]
//	         [-scale unit|small|paper] [-procs N] [-apps FFT,SOR,...]
//	         [-protocol lrc|erc|hlrc|adp] [-workers N] [-json FILE] [-verify]
//	         [-cpuprofile cpu.prof] [-memprofile mem.prof]
//
// Each experiment prints the same rows/series as the corresponding artifact
// in "Comparative Evaluation of Latency Tolerance Techniques for Software
// Distributed Shared Memory" (HPCA-4, 1998). The default scale is "small"
// (scaled-down inputs, minutes of wall time); "paper" uses the paper's
// input sizes.
//
// Independent simulations fan out over a worker pool (-workers, default
// GOMAXPROCS): the experiments run concurrently, each queueing its whole
// grid at once, while output still appears in paper order. Every
// simulation is single-threaded and deterministic, so standard output is
// byte-identical for any worker count, host and rerun; wall-clock timing
// goes to standard error. -json writes a machine-readable summary (wall
// clock per experiment, aggregate simulation time, effective speedup over a
// sequential run) for tracking performance across commits. -cpuprofile and
// -memprofile write pprof profiles of the host process: CPU time, and
// allocations with what is live at the end.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"godsm/dsm"
	"godsm/internal/apps"
	"godsm/internal/harness"
	"godsm/internal/hostprof"
)

// benchResult is the machine-readable summary written by -json.
type benchResult struct {
	Date     string  `json:"date"`
	Scale    string  `json:"scale"`
	Procs    int     `json:"procs"`
	Workers  int     `json:"workers"`
	NumCPU   int     `json:"num_cpu"`
	TotalSec float64 `json:"total_wall_s"`
	// SimSec is the cumulative single-threaded simulation time: what a
	// sequential run of the same grid would have cost. SimSec/TotalSec is
	// the effective speedup from the parallel runner.
	SimSec      float64           `json:"sim_wall_s"`
	SimRuns     int64             `json:"sim_runs"`
	Speedup     float64           `json:"speedup_vs_sequential"`
	Experiments []experimentTimes `json:"experiments"`
	// Note records free-form context about the run environment (-note), so
	// a snapshot taken on an atypical box explains itself.
	Note string `json:"note,omitempty"`
}

type experimentTimes struct {
	ID    string  `json:"id"`
	WallS float64 `json:"wall_s"`
}

func main() {
	ids := "all"
	for _, e := range harness.Experiments {
		ids += ", " + e.ID
	}
	exp := flag.String("exp", "all", "experiment id ("+ids+")")
	scale := flag.String("scale", "small", "input scale: unit, small or paper")
	procs := flag.Int("procs", 8, "number of simulated processors")
	appList := flag.String("apps", "", "comma-separated application subset (default all)")
	protocol := flag.String("protocol", "", "coherence protocol for every run: "+strings.Join(dsm.Protocols(), ", ")+" (default lrc; the protocols experiment always compares all)")
	homePolicy := flag.String("home-policy", "", "hlrc page-home assignment for every run: "+strings.Join(dsm.HomePolicies(), ", ")+" (default static; the adaptive experiment always sweeps)")
	verify := flag.Bool("verify", false, "verify application output against sequential goldens")
	workers := flag.Int("workers", 0, "max simulations running concurrently (0 = GOMAXPROCS)")
	jsonPath := flag.String("json", "BENCH_dsmbench.json", "write a machine-readable timing summary here ('' = off)")
	note := flag.String("note", "", "free-form environment note recorded in the -json summary")
	nsProcs := flag.String("nodescale-procs", "", "comma-separated processor sweep for the nodescale experiment (default 8,64,256,1024)")
	nsJSON := flag.String("nodescale-json", "", "write the nodescale experiment's snapshot here ('' = off)")
	raceCheck := flag.Bool("race-check", false, "run every simulation under the happens-before race detector (the racecheck experiment always does)")
	cpuProfile := flag.String("cpuprofile", "", "write a pprof CPU profile of the host process to this file")
	memProfile := flag.String("memprofile", "", "write a pprof allocation profile of the host process to this file")
	flag.Parse()

	sc, err := apps.ParseScale(*scale)
	if err != nil {
		fatal(err)
	}
	opt := harness.Options{Procs: *procs, Scale: sc, Verify: *verify, Workers: *workers, Protocol: *protocol,
		HomePolicy: *homePolicy, NodeScaleJSON: *nsJSON, RaceCheck: *raceCheck}
	if *nsProcs != "" {
		for _, f := range strings.Split(*nsProcs, ",") {
			var p int
			if _, err := fmt.Sscanf(strings.TrimSpace(f), "%d", &p); err != nil || p < 1 {
				fatal(fmt.Errorf("bad -nodescale-procs entry %q", f))
			}
			opt.NodeScaleProcs = append(opt.NodeScaleProcs, p)
		}
	}
	if *appList != "" {
		for _, a := range strings.Split(*appList, ",") {
			name := strings.TrimSpace(a)
			if _, err := apps.ByName(name); err != nil {
				fatal(err)
			}
			opt.Apps = append(opt.Apps, name)
		}
	}
	session := harness.NewSession(opt)
	// Every run starts from the session's base machine, so a bad -procs,
	// -protocol or -home-policy is reported once, here; machines an
	// experiment derives (e.g. -nodescale-procs) are checked by Session.Sim.
	if err := session.Config("", harness.VarO).Validate(); err != nil {
		fatal(err)
	}

	var selected []harness.Experiment
	if *exp == "all" {
		selected = harness.Experiments
	} else {
		e, err := harness.ByID(*exp)
		if err != nil {
			fatal(err)
		}
		selected = []harness.Experiment{e}
	}

	stop, err := hostprof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fatal(err)
	}
	start := harness.Wallclock()
	// Every experiment starts at once, so the worker pool is busy end to
	// end; each renders into a buffer and they print in paper order.
	type rendered struct {
		out  string
		err  error
		wall time.Duration
	}
	results := make([]chan rendered, len(selected))
	for i, e := range selected {
		results[i] = make(chan rendered, 1)
		go func() {
			var out strings.Builder
			t0 := harness.Wallclock()
			err := e.Run(session, &out)
			results[i] <- rendered{out.String(), err, harness.Wallclock().Sub(t0)}
		}()
	}

	var times []experimentTimes
	for i, e := range selected {
		r := <-results[i]
		if r.err != nil {
			_ = stop() // keep the profiles up to the failure; the failure is the error to report
			fatal(fmt.Errorf("%s: %w", e.ID, r.err))
		}
		if i > 0 {
			fmt.Println()
		}
		os.Stdout.WriteString(r.out)
		fmt.Fprintf(os.Stderr, "[%s done in %.1fs wall]\n", e.ID, r.wall.Seconds())
		times = append(times, experimentTimes{ID: e.ID, WallS: r.wall.Seconds()})
	}
	total := harness.Wallclock().Sub(start)
	if err := stop(); err != nil {
		fatal(err)
	}

	simRuns, simWall := session.SimStats()
	speedup := 0.0
	if total > 0 {
		speedup = simWall.Seconds() / total.Seconds()
	}
	fmt.Fprintf(os.Stderr, "%d simulations, %.1fs simulation time on %d workers, %.1fs wall (%.2fx vs sequential)\n",
		simRuns, simWall.Seconds(), session.Workers(), total.Seconds(), speedup)

	if *jsonPath != "" {
		res := benchResult{
			Date:        harness.Wallclock().UTC().Format(time.RFC3339),
			Scale:       *scale,
			Procs:       *procs,
			Workers:     session.Workers(),
			NumCPU:      runtime.NumCPU(),
			TotalSec:    total.Seconds(),
			SimSec:      simWall.Seconds(),
			SimRuns:     simRuns,
			Speedup:     speedup,
			Experiments: times,
			Note:        *note,
		}
		buf, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*jsonPath, append(buf, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *jsonPath)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dsmbench:", err)
	os.Exit(1)
}
