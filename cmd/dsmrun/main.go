// Command dsmrun runs one or more applications under one explicit
// configuration and prints their full measurement reports — the quickest
// way to explore one point of the design space.
//
// Usage:
//
//	dsmrun -app SOR [-procs 8] [-threads 1] [-prefetch]
//	       [-switch-miss] [-scale unit|small|paper]
//	       [-protocol lrc|erc|hlrc|adp] [-home-policy static|firsttouch|migrate]
//	       [-gc-threshold N]
//	       [-topology single|fattree] [-fattree-radix N]
//	       [-barrier central|tree] [-barrier-fanout N]
//	       [-gossip] [-gossip-fanout N] [-gossip-seed N]
//	       [-throttle N] [-verify] [-workers N]
//	       [-loss P] [-dup P] [-fault-seed N] [-faults light|moderate|heavy]
//	       [-trace out.json]
//	       [-race-check] [-race-granularity word|page]
//
// -protocol selects the coherence backend from the protocol table
// (default lrc, the TreadMarks baseline). Unknown names and knob
// combinations the backend cannot honor (e.g. hlrc with -gc-threshold,
// which only the diff-based backends use) are rejected up front — as are
// machine shapes the simulator cannot build, like a fat tree over a
// non-power-of-two -procs.
//
// -topology, -barrier and -gossip select the scalable-machine pieces (the
// nodescale experiment's configuration): a multi-switch fat tree, the
// combining-tree barrier, and gossip write-notice dissemination for the
// diff-based protocols. The defaults — single switch, centralized barrier,
// no gossip — are the paper's machine, byte-identical to every earlier
// version of the simulator.
//
// A nonzero -loss or -dup enables deterministic fault injection (seeded by
// -fault-seed) and automatically switches the protocol onto its reliable
// ack/retransmit transport; the report then includes the transport's
// recovery counters. -faults instead takes the whole fault plan of one of
// the chaos soak's schedules (dsmbench -exp faults) — loss, duplication,
// reordering, link brown-outs and NIC stalls — so that one cell of the soak
// can be rerun on its own.
//
// -race-check runs the application under the deterministic happens-before
// race detector: every shared access is checked against the ordering
// induced by Lock/Unlock and Barrier, and the first conflicting unordered
// pair aborts the run (exit 1) with a structured report naming both access
// sites. Checking charges no simulated time, so a clean checked run prints
// byte-identical output to an unchecked one. -race-granularity picks the
// conflict unit: word (8-byte, the default) or page (whole coherence pages,
// which also flags false sharing). Besides the eight applications, -app
// accepts the intentionally-racy fixtures RACY, RACY-STALE and RACY-EXEMPT
// (never part of "all") for exercising the detector.
//
// An application that wedges — the fixture STUCK deadlocks at a barrier —
// also exits 1, with a report naming every unfinished thread and the page,
// lock or barrier it waits for; never a panic or a goroutine dump.
//
// -trace streams the run's event bus as Chrome trace_event JSON, loadable
// in Perfetto (ui.perfetto.dev) or chrome://tracing: one track per simulated
// processor plus a network track. Same seed, same trace — byte for byte.
//
// -app accepts a single name, a comma-separated list, or "all". With more
// than one application the independent simulations fan out over a worker
// pool (-workers, default GOMAXPROCS) and the reports print in the
// requested order; each simulation stays single-threaded and
// deterministic, so the reports are identical for any worker count.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"godsm/dsm"
	"godsm/internal/apps"
	"godsm/internal/event"
	"godsm/internal/harness"
	"godsm/internal/netsim"
	"godsm/internal/proto"
	"godsm/internal/sim"
)

// options is everything the command line selects: the machine to simulate
// (cfg) and how to run and report it.
type options struct {
	cfg       dsm.Config
	specs     []apps.Spec // applications, in the requested order
	scale     apps.Scale
	verify    bool
	kinds     bool
	tracePath string
	workers   int
}

// parseFlags registers the flags on fs — each machine flag bound straight
// onto the dsm.Config field it sets — parses args, and checks the result.
// A returned error is a usage error: incoherent flag combinations and
// machines the simulator cannot build (cfg.Validate) are rejected here
// rather than silently running something the user did not ask for.
func parseFlags(fs *flag.FlagSet, args []string) (*options, error) {
	o := &options{cfg: dsm.DefaultConfig()}
	cfg, faults := &o.cfg, &o.cfg.Net.Faults
	app := fs.String("app", "SOR", "application name(s): FFT, LU-NCONT, LU-CONT, OCEAN, RADIX, SOR, WATER-NSQ, WATER-SP; comma-separated list or \"all\"")
	fs.IntVar(&cfg.Procs, "procs", 8, "simulated processors")
	fs.IntVar(&cfg.ThreadsPerProc, "threads", 1, "user-level threads per processor")
	fs.BoolVar(&cfg.Prefetch, "prefetch", false, "execute inserted prefetches")
	fs.BoolVar(&cfg.SwitchOnMiss, "switch-miss", false, "switch threads on remote misses")
	scale := fs.String("scale", "small", "input scale: unit, small or paper")
	fs.StringVar(&cfg.Protocol, "protocol", "", "coherence protocol: "+strings.Join(dsm.Protocols(), ", ")+" (default lrc)")
	fs.StringVar(&cfg.HomePolicy, "home-policy", "", "hlrc page-home assignment: "+strings.Join(dsm.HomePolicies(), ", ")+" (default static)")
	fs.Int64Var(&cfg.GCThreshold, "gc-threshold", 0, "diff-GC trigger in bytes at barriers, diff-based protocols only (0 = off)")
	fs.StringVar(&cfg.Net.Topology, "topology", "", "interconnect topology: single (default, the paper's one-switch LAN) or fattree")
	fs.IntVar(&cfg.Net.FatTreeRadix, "fattree-radix", 0, "fat-tree downward ports per switch, a power of two >= 2 (0 = default)")
	fs.StringVar(&cfg.Barrier, "barrier", "", "barrier algorithm: central (default) or tree (combining tree)")
	fs.IntVar(&cfg.BarrierFanout, "barrier-fanout", 0, "combining-tree arity, >= 2 (0 = default)")
	fs.BoolVar(&cfg.Gossip, "gossip", false, "disseminate write notices by gossip instead of erc's release broadcast (diff-based protocols only)")
	fs.IntVar(&cfg.GossipFanout, "gossip-fanout", 0, "peers per gossip round (0 = default)")
	fs.Int64Var(&cfg.GossipSeed, "gossip-seed", 0, "gossip peer-selection seed")
	fs.IntVar(&cfg.ThrottlePf, "throttle", 0, "drop every k-th prefetch (0 = off)")
	fs.BoolVar(&o.verify, "verify", false, "verify output against the sequential golden")
	fs.BoolVar(&o.kinds, "kinds", false, "print per-message-kind traffic table")
	fs.StringVar(&o.tracePath, "trace", "", "write a Chrome/Perfetto trace_event JSON of the run to this file (single app only)")
	fs.IntVar(&o.workers, "workers", 0, "max simulations running concurrently (0 = GOMAXPROCS)")
	fs.BoolVar(&cfg.RaceCheck, "race-check", false, "detect data races against the Lock/Barrier happens-before order (exit 1 on the first race)")
	fs.StringVar(&cfg.RaceGranularity, "race-granularity", "", "race-detector conflict unit: word (default) or page")
	fs.Float64Var(&faults.Loss, "loss", 0, "message loss probability (nonzero enables fault injection)")
	fs.Float64Var(&faults.Dup, "dup", 0, "message duplication probability")
	fs.Int64Var(&faults.Seed, "fault-seed", 1, "fault-injection PRNG seed")
	schedule := fs.String("faults", "", "replay a chaos-soak fault schedule: light, moderate or heavy (instead of -loss/-dup/-fault-seed)")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}

	var err error
	if o.scale, err = apps.ParseScale(*scale); err != nil {
		return nil, err
	}
	// Any nonzero value turns the plan on; cfg.Validate rejects the ones
	// that are not probabilities.
	faultsOn := faults.Loss != 0 || faults.Dup != 0

	// Reject dependent knobs whose master switch is off: silently ignoring
	// them would run a different machine than the user asked for.
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *schedule != "" {
		for _, f := range []string{"loss", "dup", "fault-seed"} {
			if set[f] {
				return nil, fmt.Errorf("-%s given with -faults, which sets the whole fault plan", f)
			}
		}
		if *faults, err = harness.FaultSchedule(*schedule); err != nil {
			return nil, fmt.Errorf("-faults: %w", err)
		}
		faultsOn = true
	}
	for _, d := range []struct {
		flag     string
		masterOn bool
		requires string
	}{
		{"fault-seed", faultsOn, "fault injection is off; set -loss or -dup (or drop -fault-seed)"},
		{"fattree-radix", cfg.Net.Topology == "fattree", "-topology is not fattree"},
		{"barrier-fanout", cfg.Barrier == "tree", "-barrier is not tree"},
		{"gossip-fanout", cfg.Gossip, "-gossip is off"},
		{"gossip-seed", cfg.Gossip, "-gossip is off"},
		{"race-granularity", cfg.RaceCheck, "-race-check is off"},
		{"home-policy", cfg.Protocol == "hlrc", "-protocol is not hlrc (adp keeps homes static and adapts per-page modes instead)"},
	} {
		if set[d.flag] && !d.masterOn {
			return nil, fmt.Errorf("-%s given but %s", d.flag, d.requires)
		}
	}
	if !faultsOn {
		*faults = dsm.FaultPlan{} // the default seed alone is not a plan
	} else if faults.Seed == 0 {
		return nil, fmt.Errorf("-fault-seed 0 is reserved (it reads as unset); pick a nonzero seed")
	}

	if *app == "all" {
		o.specs = apps.All
	} else {
		for _, a := range strings.Split(*app, ",") {
			spec, err := apps.ByName(strings.TrimSpace(a))
			if err != nil {
				return nil, err
			}
			o.specs = append(o.specs, spec)
		}
	}
	if o.tracePath != "" && len(o.specs) != 1 {
		return nil, fmt.Errorf("-trace needs a single -app (one trace file describes one run)")
	}

	return o, cfg.Validate()
}

func main() {
	o, err := parseFlags(flag.CommandLine, os.Args[1:])
	if err != nil {
		usageErr("%v", err)
	}

	// Open the trace file before simulating anything: an unwritable path is
	// a usage error, not something to discover after minutes of simulation.
	// parseFlags admits -trace for a single application only, so the one
	// writer never sees two runs.
	var tw *event.TraceWriter
	if o.tracePath != "" {
		f, err := os.Create(o.tracePath)
		if err != nil {
			usageErr("-trace: %v", err)
		}
		tw = event.NewTraceWriter(f)
	}
	if err := run(o, os.Stdout, tw); err != nil {
		fatal(err)
	}
}

// run simulates o's applications and writes their reports to out in the
// requested order, streaming the one run's events to tw when it is not nil.
// The first run that fails ends it with that run's error.
func run(o *options, out io.Writer, tw *event.TraceWriter) error {
	var sinks []event.Sink
	if tw != nil {
		sinks = append(sinks, tw)
	}

	// Fan the independent runs out over a bounded worker pool; print the
	// reports in the requested order as they complete.
	pool := o.workers
	if pool <= 0 {
		pool = runtime.GOMAXPROCS(0)
	}
	sem := make(chan struct{}, pool)
	type result struct {
		sys  *dsm.System
		rep  *dsm.Report
		err  error
		done chan struct{}
	}
	results := make([]*result, len(o.specs))
	for i, spec := range o.specs {
		r := &result{done: make(chan struct{})}
		results[i] = r
		go func() {
			sem <- struct{}{}
			r.sys, r.rep, r.err = spec.Run(o.cfg, apps.Options{Scale: o.scale, Verify: o.verify}, sinks...)
			<-sem
			// Not deferred: a panic unwinding this goroutine must take the
			// process down by itself, not wake main on a half-written result.
			close(r.done)
		}()
	}
	for i, r := range results {
		<-r.done
		name := o.specs[i].Name
		if r.err != nil {
			return fmt.Errorf("%s: %w", name, r.err)
		}
		if tw != nil {
			if err := tw.Close(); err != nil {
				return fmt.Errorf("writing trace: %w", err)
			}
			fmt.Fprintf(os.Stderr, "dsmrun: trace written to %s (open at ui.perfetto.dev)\n", o.tracePath)
		}
		if i > 0 {
			fmt.Fprintln(out)
		}
		printReport(out, name, r.rep)
		if o.kinds {
			printKinds(out, r.sys)
		}
	}
	return nil
}

// printKinds prints the per-message-kind traffic table (whole run,
// including any post-measurement verification traffic).
func printKinds(w io.Writer, sys *dsm.System) {
	fmt.Fprintln(w, "traffic by message kind:")
	for k := netsim.Kind(0); k < netsim.MaxKinds; k++ {
		msgs, bytes := sys.Net.KindStats(k)
		if msgs == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-12s %8d msgs %10d KB\n", proto.KindName(k), msgs, bytes/1024)
	}
}

func printReport(w io.Writer, app string, r *dsm.Report) {
	fmt.Fprintf(w, "%s: %d procs x %d threads, elapsed %d us\n",
		app, r.Procs, r.Threads, r.Elapsed/sim.Microsecond)
	fmt.Fprintln(w, "breakdown (average over processors):")
	for _, c := range []sim.Category{dsm.CatBusy, dsm.CatDSM, dsm.CatMemIdle,
		dsm.CatSyncIdle, dsm.CatPrefetchOv, dsm.CatMTOv} {
		pct := r.Breakdown.Normalized(r.Elapsed)[c]
		fmt.Fprintf(w, "  %-24s %8d us  %5.1f%%\n", c, r.Breakdown.Cat[c]/sim.Microsecond, pct)
	}
	n := r.Sum()
	fmt.Fprintf(w, "memory:   %d remote misses (avg %d us), %d prefetch-cache hits\n",
		n.Misses, r.AvgMissLatency()/sim.Microsecond, n.CacheHits)
	fmt.Fprintf(w, "sync:     %d remote lock acquires, %d local, %d barrier arrivals\n",
		n.RemoteLockAcqs, n.LocalLockAcqs, n.BarrierArrives)
	fmt.Fprintf(w, "traffic:  %d messages, %d KB, %d drops\n",
		r.MsgsTotal, r.BytesTotal/1024, r.Drops)
	if n.PfCalls > 0 {
		fmt.Fprintf(w, "prefetch: %d calls (%.1f%% unnecessary), %d messages, coverage %.1f%%\n",
			n.PfCalls, r.UnnecessaryPfPct(), n.PfMsgs, r.CoverageFactor())
		fmt.Fprintf(w, "          outcomes: %d hit, %d late, %d invalidated, %d not prefetched\n",
			n.FaultPfHit, n.FaultPfLate, n.FaultPfInvalided, n.FaultNoPf)
	}
	if r.Threads > 1 {
		fmt.Fprintf(w, "threads:  %d context switches, avg run length %d us, avg stall %d us\n",
			n.CtxSwitches, r.AvgRunLength()/sim.Microsecond, r.AvgStall()/sim.Microsecond)
	}
	fmt.Fprintf(w, "protocol: %d twins, %d diffs made, %d diffs applied\n",
		n.TwinsMade, n.DiffsMade, n.DiffsApplied)
	if n.HomeFlushes+n.HomeFetches > 0 {
		fmt.Fprintf(w, "home:     %d diff flushes (%d KB), %d page fetches (%d KB)\n",
			n.HomeFlushes, n.HomeFlushBytes/1024, n.HomeFetches, n.HomeFetchBytes/1024)
	}
	if n.HomeMigrations+n.ModeToHome+n.ModeToDiff > 0 {
		fmt.Fprintf(w, "adaptive: %d home migrations (%d KB), %d pages to home mode, %d to diff mode\n",
			n.HomeMigrations, n.HomeMigrateBytes/1024, n.ModeToHome, n.ModeToDiff)
	}
	if n.Retransmits+n.Timeouts+n.AcksSent+n.DupSuppressed > 0 {
		fmt.Fprintf(w, "transport: %d retransmits (%d timeouts, max RTO %d ms), %d acks, %d duplicates suppressed, %d/%d pf req/reply dropped\n",
			n.Retransmits, n.Timeouts, n.MaxBackoff/sim.Millisecond,
			n.AcksSent, n.DupSuppressed, n.PfReqDropped, n.PfReplyDropped)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dsmrun:", err)
	os.Exit(1)
}

// usageErr reports a command-line usage error and exits with status 2,
// pointing at -help rather than dumping the full flag table.
func usageErr(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dsmrun: %s\n", fmt.Sprintf(format, args...))
	fmt.Fprintln(os.Stderr, "run dsmrun -help for usage")
	os.Exit(2)
}
