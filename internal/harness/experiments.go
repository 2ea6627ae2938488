package harness

import (
	"cmp"
	"fmt"
	"io"
	"slices"

	"godsm/internal/sim"
)

// renderFig1 regenerates Figure 1: the execution-time breakdown of the
// original (no latency tolerance) runs of all applications.
func renderFig1(s *Session, w io.Writer, res []Results) error {
	fmt.Fprintln(w, "Figure 1: execution time breakdown (TreadMarks baseline, "+
		fmt.Sprint(s.Opt.Procs)+" processors)")
	fmt.Fprintln(w, breakdownHead)
	for _, r := range res[0].Runs {
		writeBreakdownRow(w, r.App, r, r.Elapsed)
		fmt.Fprintf(w, "%-15s |%s|\n", "", bar(r.Report, r.Elapsed))
	}
	fmt.Fprintln(w, "legend: B=Busy D=DSM overhead M=Memory miss idle S=Sync idle p=Prefetch ov t=MT ov")
	return nil
}

// writeBreakdowns prints one application's variants as breakdown rows
// normalized to its first (the original's) execution time, the
// application named on that first row only.
func writeBreakdowns(w io.Writer, o Run) {
	for i, r := range o.Across {
		label := ""
		if i == 0 {
			label = r.App
		}
		writeBreakdownRow(w, label, r, o.Elapsed)
	}
}

// renderFig2 regenerates Figure 2: original vs prefetching breakdowns,
// normalized to the original execution time.
func renderFig2(_ *Session, w io.Writer, res []Results) error {
	fmt.Fprintln(w, "Figure 2: performance impact of prefetching (O = original, P = with prefetching)")
	fmt.Fprintln(w, breakdownHead)
	for _, o := range res[0].Pivot("cfg") {
		p := o.Across[1]
		writeBreakdowns(w, o)
		reduction := 0.0
		if o.N.MissStall > 0 {
			reduction = 100 * (1 - float64(p.N.MissStall)/float64(o.N.MissStall))
		}
		fmt.Fprintf(w, "%-15s speedup %.2fx, miss-stall reduction %.0f%%\n", "",
			p.Speedup(o.Report), reduction)
	}
	return nil
}

// table1 prints a row pivoted on the variant: the row is the original run,
// Across[1] the prefetching one.
var table1 = table{
	"Benchmark    Unnec%  Covrge% |   TrafficO   TrafficP |  MissesO  MissesP |   AvgLatO   AvgLatP | ReqDrop RepDrop",
	"%-10s %7.2f%% %7.2f%% | %9dK %9dK | %8d %8d | %7dus %7dus | %7d %7d",
	func(o Run) []any {
		p := o.Across[1]
		return []any{o.App, p.UnnecessaryPfPct(), p.CoverageFactor(), kb(o.BytesTotal), kb(p.BytesTotal),
			o.N.Misses, p.N.Misses, usec(o.AvgMissLatency()), usec(p.AvgMissLatency()),
			p.N.PfReqDropped, p.N.PfReplyDropped}
	},
}

// renderTable1 regenerates Table 1: prefetching statistics.
func renderTable1(_ *Session, w io.Writer, res []Results) error {
	fmt.Fprintln(w, "Table 1: prefetching statistics (O = original, P = with prefetching)")
	table1.write(w, res[0].Pivot("cfg"))
	return nil
}

var fig3 = table{
	"App        OrigMiss   no-pf%    pf-invalid%     pf-late%  pf-hit%    drops",
	"%-10s %8d %7.1f%% %13.1f%% %11.1f%% %7.1f%% %8d",
	func(r Run) []any {
		// At least 1, so the shares divide.
		total := max(1, r.N.FaultNoPf+r.N.FaultPfHit+r.N.FaultPfLate+r.N.FaultPfInvalided)
		pct := func(v int64) float64 { return 100 * float64(v) / float64(total) }
		return []any{r.App, total, pct(r.N.FaultNoPf), pct(r.N.FaultPfInvalided),
			pct(r.N.FaultPfLate), pct(r.N.FaultPfHit), r.Drops}
	},
}

// renderFig3 regenerates Figure 3: what happened to each original remote miss
// under prefetching (not prefetched / invalidated / too late / hit),
// normalized to the number of original misses.
func renderFig3(_ *Session, w io.Writer, res []Results) error {
	fmt.Fprintln(w, "Figure 3: breakdown of the original remote misses under prefetching")
	fig3.write(w, res[0].Runs)
	return nil
}

// renderFig4 regenerates Figure 4: multithreading with 2, 4 and 8 threads per
// processor vs the original, normalized to the original execution time.
func renderFig4(_ *Session, w io.Writer, res []Results) error {
	fmt.Fprintln(w, "Figure 4: performance impact of multithreading (nT = n threads per processor)")
	fmt.Fprintln(w, breakdownHead)
	for _, o := range res[0].Pivot("cfg") {
		writeBreakdowns(w, o)
	}
	return nil
}

// avgUs is a mean stall in whole microseconds, 0 when nothing stalled.
func avgUs(total sim.Time, events int64) int64 {
	if events == 0 {
		return 0
	}
	return int64(total) / events / 1000
}

var table2 = table{
	"Benchmark  Cfg   AvgStall    AvgRun |     Msgs     VolKB |  RemMiss  MissStal | RemLock  LockStal |   Barrs  BarrStal",
	"%-10s %-4s %7dus %7dus | %8d %9d | %8d %7dus | %7d %7dus | %7d %7dus",
	func(r Run) []any {
		return []any{r.App, r.Variant, usec(r.AvgStall()), usec(r.AvgRunLength()), r.MsgsTotal, kb(r.BytesTotal),
			r.N.Misses, avgUs(r.N.MissStall, r.N.Misses),
			r.N.RemoteLockAcqs, avgUs(r.N.LockStall, r.N.RemoteLockAcqs),
			r.N.BarrierArrives, avgUs(r.N.BarrierStall, r.N.BarrierArrives)}
	},
}

// renderTable2 regenerates Table 2: multithreading statistics.
func renderTable2(_ *Session, w io.Writer, res []Results) error {
	fmt.Fprintln(w, "Table 2: multithreading statistics")
	table2.write(w, res[0].Runs)
	return nil
}

// renderFig5 regenerates Figure 5: all eight configurations per application,
// normalized to the original execution time, with the winner marked.
func renderFig5(_ *Session, w io.Writer, res []Results) error {
	fmt.Fprintln(w, "Figure 5: combining prefetching and multithreading")
	fmt.Fprintln(w, "(nTP = n threads switching on synchronization only, plus prefetching)")
	fmt.Fprintln(w, breakdownHead)
	for _, o := range res[0].Pivot("cfg") {
		writeBreakdowns(w, o)
		best := slices.MinFunc(o.Across, func(a, b Run) int { return cmp.Compare(a.Elapsed, b.Elapsed) })
		fmt.Fprintf(w, "%-15s best: %s (%.2fx over O)\n", "", best.Variant, best.Speedup(o.Report))
	}
	return nil
}
