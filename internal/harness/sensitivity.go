package harness

import (
	"fmt"
	"io"

	"godsm/dsm"
	"godsm/internal/sim"
)

// Network sensitivity study (an extension beyond the paper's fixed ATM
// platform): sweep the interconnect latency and bandwidth and report how
// the latency-tolerance techniques' benefits move. The paper's conclusion
// predicts both effects: longer latencies enlarge the stall fractions that
// prefetching and multithreading can hide (until prefetches become late),
// while higher bandwidth shrinks the serialization and queueing components
// that neither technique addresses.

// network is the edit to an interconnect of the given per-link-traversal
// latency and link bandwidth.
func network(prop sim.Time, mbps float64) func(*dsm.Config) {
	return func(c *dsm.Config) { c.Net.PropDelay, c.Net.NsPerByte = prop, 8000/mbps }
}

// netSweepGrid is each network point × a representative app pair × the
// original and the three techniques.
var netSweepGrid = Grid{
	Outer: []Axis{{"network", []Point{
		{"fast-lan (10us, 1Gb)", network(10*sim.Microsecond, 1000)},
		{"atm/2 (150us, 155Mb)", network(150*sim.Microsecond, 155)},
		{"paper (300us, 155Mb)", network(300*sim.Microsecond, 155)},
		{"atm*2 (600us, 155Mb)", network(600*sim.Microsecond, 155)},
		{"wan-ish (2ms, 45Mb)", network(2*sim.Millisecond, 45)},
	}}},
	Apps:     []string{"SOR", "WATER-NSQ"},
	Variants: []Variant{VarO, VarP, Var4T, Var4TP},
}

// renderNetSweep regenerates the network sensitivity table: for each
// network point and application, the speedup of P, 4T and the combined 4TP
// over the original.
func renderNetSweep(_ *Session, w io.Writer, res []Results) error {
	fmt.Fprintln(w, "Network sensitivity: speedup of each technique vs. interconnect")
	table{"Network                App         O elapsed", "%-22s %-10s %8dus", func(r Run) []any {
		return []any{r.Label("network"), r.App, usec(r.Elapsed)}
	}}.across(res[0].Labels("cfg"), 1, 8, "%7.2fx", speedup).write(w, res[0].Pivot("cfg"))
	return nil
}

// The processor-count scaling table (an extension: the paper fixes 8
// processors). For each application it reports elapsed time and
// self-relative speedup at 1, 2, 4 and 8 processors under the original and
// prefetching configurations — showing how communication grows with the
// machine and how much of it prefetching recovers.
var scalingGrid = Grid{Variants: []Variant{VarO, VarP}, Axes: []Axis{procsAxis(1, 2, 4, 8)}}

func renderScaling(_ *Session, w io.Writer, res []Results) error {
	heads := []string{"1p", "2p", "4p", "8p"}
	elapsed := appCfg.across(heads, 0, 12, "%10dus", elapsedUs)
	speedups := table{row: "%-10s %-4s", vals: func(Run) []any { return []any{"", "↳spd"} }}.
		across(heads, 0, 12, "%11.2fx", speedup)

	fmt.Fprintln(w, "Scaling: elapsed time and speedup vs processor count")
	fmt.Fprintln(w, elapsed.head)
	for _, r := range res[0].Pivot("procs") {
		elapsed.writeRow(w, r)
		speedups.writeRow(w, r)
	}
	fmt.Fprintln(w, "(speedups are relative to the same configuration on 1 processor)")
	return nil
}
