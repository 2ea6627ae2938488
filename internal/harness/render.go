package harness

import (
	"fmt"
	"io"
	"strings"

	"godsm/dsm"
	"godsm/internal/sim"
)

// table is how a list of runs prints: the header line, the format of a row,
// and the values a run puts in it.
type table struct {
	head string
	row  string
	vals func(Run) []any
}

// write prints the header and one row per run.
func (t table) write(w io.Writer, rows []Run) {
	fmt.Fprintln(w, t.head)
	for _, r := range rows {
		t.writeRow(w, r)
	}
}

func (t table) writeRow(w io.Writer, r Run) { fmt.Fprintf(w, t.row+"\n", t.vals(r)...) }

// across extends a table over pivot rows (Results.Pivot) with one column
// per point of the pivoted axis from point `from` on: headed by the point's
// label, showing val of the row's run there against the row's baseline.
func (t table) across(labels []string, from, width int, verb string, val func(r, base Run) any) table {
	lead := t.vals
	for _, label := range labels[from:] {
		t.head += fmt.Sprintf(" %*s", width, label)
		t.row += " " + verb
	}
	t.vals = func(r Run) []any {
		vals := lead(r)
		for _, x := range r.Across[from:] {
			vals = append(vals, val(x, r))
		}
		return vals
	}
	return t
}

// What a pivot column shows: the run's elapsed time, or — the "relative to
// column 0" tables — its ratio to the baseline's either way up.
func elapsedUs(r, _ Run) any   { return usec(r.Elapsed) }
func slowdown(r, base Run) any { return float64(r.Elapsed) / float64(base.Elapsed) }
func speedup(r, base Run) any  { return r.Speedup(base.Report) }

// appCfg are the two leading columns of most tables.
var appCfg = table{"App        Cfg ", "%-10s %-4s", func(r Run) []any { return []any{r.App, r.Variant} }}

// breakdownOrder is the category order of the paper's stacked bars, top to
// bottom (rendered here left to right); breakdownHead names them.
var breakdownOrder = []sim.Category{
	dsm.CatPrefetchOv, dsm.CatMTOv, dsm.CatSyncIdle, dsm.CatMemIdle, dsm.CatDSM, dsm.CatBusy,
}

const breakdownHead = "App        Cfg    PfOv   MTOv   Sync    Mem    DSM   Busy    Norm      Elapsed"

// writeBreakdownRow prints one normalized breakdown row (percentages of the
// reference elapsed time, the paper's normalization).
func writeBreakdownRow(w io.Writer, label string, r Run, ref sim.Time) {
	norm := r.Breakdown.Normalized(ref)
	fmt.Fprintf(w, "%-10s %-4s", label, r.Variant)
	total := 0.0
	for _, c := range breakdownOrder {
		fmt.Fprintf(w, " %6.1f", norm[c])
		total += norm[c]
	}
	fmt.Fprintf(w, " %7.1f %10dus\n", total, usec(r.Elapsed))
}

// bar renders an ASCII stacked bar of the normalized breakdown, 1 char per
// 2 percent, using one letter per category.
func bar(rep *dsm.Report, ref sim.Time) string {
	norm := rep.Breakdown.Normalized(ref)
	var sb strings.Builder
	for i, c := range []sim.Category{dsm.CatBusy, dsm.CatDSM, dsm.CatMemIdle, dsm.CatSyncIdle, dsm.CatPrefetchOv, dsm.CatMTOv} {
		sb.WriteString(strings.Repeat("BDMSpt"[i:i+1], int(norm[c]/2+0.5)))
	}
	return sb.String()
}

// kb converts bytes to the paper's KByte columns.
func kb(b int64) int64 { return b / 1024 }

// usec converts a duration to whole microseconds.
func usec(t sim.Time) int64 { return int64(t / sim.Microsecond) }
