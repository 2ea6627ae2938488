package harness

import (
	"fmt"
	"io"
	"strings"

	"godsm/dsm"
	"godsm/internal/sim"
)

// The chaos soak: every application × variant grid cell runs under
// escalating network fault schedules with golden-output verification forced
// on. Surviving the soak means the reliable transport recovered every lost,
// duplicated and reordered protocol message without corrupting the
// computation — the paper's TreadMarks earned its reliability the same way,
// over a lightweight reliable UDP protocol on a real ATM LAN.

// faultSchedule names one escalation step.
type faultSchedule struct {
	name string
	plan dsm.FaultPlan
}

// faultSchedules escalates from background noise to an actively hostile
// network. Brown-out and stall windows stay well inside the transport's
// retry budget (~570 ms of backoff before the retry cap trips). Each
// schedule has its own seed so the escalation also varies the draw
// sequence.
var faultSchedules = []faultSchedule{
	{"light", dsm.FaultPlan{
		Seed: 1, Loss: 0.01, Dup: 0.005, Reorder: 0.02, MaxJitter: 500 * sim.Microsecond,
	}},
	{"moderate", dsm.FaultPlan{
		Seed: 2, Loss: 0.03, Dup: 0.02, Reorder: 0.05, MaxJitter: 2 * sim.Millisecond,
		Brownouts: []dsm.LinkFault{
			{Node: 1, From: 20 * sim.Millisecond, To: 45 * sim.Millisecond},
		},
	}},
	{"heavy", dsm.FaultPlan{
		Seed: 3, Loss: 0.08, Dup: 0.05, Reorder: 0.10, MaxJitter: 5 * sim.Millisecond,
		Brownouts: []dsm.LinkFault{
			{Node: 2, From: 10 * sim.Millisecond, To: 60 * sim.Millisecond},
			{Node: 0, From: 150 * sim.Millisecond, To: 190 * sim.Millisecond},
		},
		Stalls: []dsm.LinkFault{
			{Node: 1, From: 30 * sim.Millisecond, To: 80 * sim.Millisecond},
		},
	}},
}

// FaultSchedule returns the plan of the soak's schedule named name (light,
// moderate or heavy), so that one cell of the soak can be rerun on its own.
func FaultSchedule(name string) (dsm.FaultPlan, error) {
	names := make([]string, len(faultSchedules))
	for i, s := range faultSchedules {
		if s.name == name {
			return s.plan, nil
		}
		names[i] = s.name
	}
	return dsm.FaultPlan{}, fmt.Errorf("unknown fault schedule %q (have: %s)", name, strings.Join(names, ", "))
}

// FaultVariants is the soak grid: original, prefetching, multithreading,
// and combined — the transport must hold up under every traffic shape.
var FaultVariants = []Variant{VarO, VarP, Var4T, Var4TP}

var faultsGrid = Grid{
	Outer: []Axis{axisOf("schedule", faultSchedules, func(sched faultSchedule) Point {
		return Point{sched.name, func(c *dsm.Config) { c.Net.Faults = sched.plan }}
	})},
	Variants: FaultVariants,
	Verify:   true,
}

var faultTable = table{
	"App        Cfg     Elapsed    Retx   Tmout  DupSupp    Acks   MaxRTO  NetDrop  verify",
	"%-10s %-4s %8dus %7d %7d %8d %7d %6dms %8d %7s",
	func(r Run) []any {
		return []any{r.App, r.Variant, usec(r.Elapsed), r.N.Retransmits, r.N.Timeouts, r.N.DupSuppressed,
			r.N.AcksSent, r.N.MaxBackoff / sim.Millisecond, r.Drops, "ok"}
	},
}

// renderFaults renders per-run transport statistics, one table per
// schedule. Every run verified its output against the sequential golden; a
// schedule whose faults never exercised the transport (all counters zero)
// is an error, since it would mean the soak soaked nothing.
func renderFaults(_ *Session, w io.Writer, res []Results) error {
	fmt.Fprintln(w, "Chaos soak: full grid under escalating fault schedules, outputs verified against goldens")
	rows := res[0].Pivot("schedule")
	for k, sched := range faultSchedules {
		name, p, runs := sched.name, sched.plan, column(rows, k)
		fmt.Fprintf(w, "\nSchedule %-8s loss=%.1f%% dup=%.1f%% reorder=%.1f%% jitter<=%dus brownouts=%d stalls=%d\n",
			name, 100*p.Loss, 100*p.Dup, 100*p.Reorder, usec(p.MaxJitter),
			len(p.Brownouts), len(p.Stalls))
		faultTable.write(w, runs)
		var retx, tmout, dups int64
		for _, r := range runs {
			retx += r.N.Retransmits
			tmout += r.N.Timeouts
			dups += r.N.DupSuppressed
		}
		if retx == 0 && tmout == 0 && dups == 0 {
			return fmt.Errorf("schedule %s: no retransmits, timeouts or suppressed duplicates across the grid — faults were not injected", name)
		}
		fmt.Fprintf(w, "schedule totals: %d retransmits, %d timeouts, %d duplicates suppressed\n",
			retx, tmout, dups)
	}
	return nil
}
