package harness

import (
	"fmt"
	"io"

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

// FaultVariants is the soak grid: original, prefetching, multithreading,
// and combined — the transport must hold up under every traffic shape.
var FaultVariants = []Variant{VarO, VarP, Var4T, Var4TP}

// RunFaults runs the chaos soak and renders per-run transport statistics.
// Every run verifies its output against the sequential golden; a schedule
// whose faults never exercised the transport (all counters zero) is an
// error, since it would mean the soak soaked nothing.
func RunFaults(s *Session, w io.Writer) error {
	cells := s.Grid(FaultVariants)
	fmt.Fprintln(w, "Chaos soak: full grid under escalating fault schedules, outputs verified against goldens")
	for _, sched := range faultSchedules {
		reps, err := simGrid(s, cells, func(c RunKey) (string, dsm.Config, bool) {
			cfg := s.Config(c.App, c.Variant)
			cfg.Net.Faults = sched.plan
			return c.App, cfg, true
		})
		if err != nil {
			return fmt.Errorf("%s faults: %w", sched.name, err)
		}

		p := sched.plan
		fmt.Fprintf(w, "\nSchedule %-8s loss=%.1f%% dup=%.1f%% reorder=%.1f%% jitter<=%s brownouts=%d stalls=%d\n",
			sched.name, 100*p.Loss, 100*p.Dup, 100*p.Reorder, usec(p.MaxJitter)+"us",
			len(p.Brownouts), len(p.Stalls))
		fmt.Fprintf(w, "%-10s %-4s %10s %7s %7s %8s %7s %8s %8s %7s\n",
			"App", "Cfg", "Elapsed", "Retx", "Tmout", "DupSupp", "Acks", "MaxRTO", "NetDrop", "verify")
		var retx, tmout, dups int64
		for _, c := range cells {
			rep := reps[c]
			n := rep.Sum()
			retx += n.Retransmits
			tmout += n.Timeouts
			dups += n.DupSuppressed
			fmt.Fprintf(w, "%-10s %-4s %8sus %7d %7d %8d %7d %6sms %8d %7s\n",
				c.App, c.Variant, usec(rep.Elapsed),
				n.Retransmits, n.Timeouts, n.DupSuppressed, n.AcksSent,
				fmt.Sprint(n.MaxBackoff/sim.Millisecond), rep.Drops, "ok")
		}
		if retx == 0 && tmout == 0 && dups == 0 {
			return fmt.Errorf("schedule %s: no retransmits, timeouts or suppressed duplicates across the grid — faults were not injected", sched.name)
		}
		fmt.Fprintf(w, "schedule totals: %d retransmits, %d timeouts, %d duplicates suppressed\n",
			retx, tmout, dups)
	}
	return nil
}
