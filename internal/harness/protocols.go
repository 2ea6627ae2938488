package harness

import (
	"fmt"
	"io"

	"godsm/dsm"
)

// Protocol comparison: the full application grid under each registered
// coherence backend. The paper evaluates its latency-tolerance techniques on
// TreadMarks' lazy release consistency; this experiment asks how those
// results shift when the underlying protocol changes — eager notice
// broadcast (ERC) and home-based LRC (HLRC), which trades distributed diff
// fetches for whole-page fetches from a static home. Every run verifies its
// output against the sequential golden, so differences are pure protocol
// cost, never wrong answers.

// ProtocolVariants is the comparison grid: original, prefetching,
// multithreading, and combined — each protocol meets every traffic shape.
var ProtocolVariants = []Variant{VarO, VarP, Var4T, Var4TP}

// ProtocolNames lists the compared protocols, baseline first. The adaptive
// backend rides along so the comparison, the race-checked grid, and the
// machine-scaling sweep all cover it; its per-policy grid is the separate
// "adaptive" experiment.
var ProtocolNames = []string{"lrc", "erc", "hlrc", "adp"}

// backend is the edit that runs a cell under the named protocol and home
// policy. It sets both: every backend but hlrc rejects a home policy, so an
// axis that swept Protocol and kept the session's -home-policy would fail
// Validate on its first non-hlrc cell.
func backend(protocol, policy string) func(*dsm.Config) {
	return func(c *dsm.Config) { c.Protocol, c.HomePolicy = protocol, policy }
}

// protocolAxis sweeps ProtocolNames, each with its default (static) homes.
var protocolAxis = axisOf("protocol", ProtocolNames, func(name string) Point {
	return Point{name, backend(name, "")}
})

var protocolsGrid = Grid{Outer: []Axis{protocolAxis}, Variants: ProtocolVariants, Verify: true}

// protocolTable attributes data movement to its protocol mechanism: diff
// fetches for the diff-based backends, home flushes and whole-page home
// fetches for HLRC. Every cell was verified against its sequential golden:
// one that failed never reaches a table.
var protocolTable = table{
	"App        Cfg     Elapsed     Msgs   VolKB  RemMiss DiffAppl HomeFlsh HomeFtch   HomeKB  verify",
	"%-10s %-4s %8dus %8d %7d %8d %8d %8d %8d %8d %7s",
	func(r Run) []any {
		return []any{r.App, r.Variant, usec(r.Elapsed), r.MsgsTotal, kb(r.BytesTotal), r.N.Misses, r.N.DiffsApplied,
			r.N.HomeFlushes, r.N.HomeFetches, kb(r.N.HomeFlushBytes + r.N.HomeFetchBytes), "ok"}
	},
}

// renderProtocols renders per-protocol tables plus a cross-protocol
// elapsed-time summary.
func renderProtocols(_ *Session, w io.Writer, res []Results) error {
	fmt.Fprintln(w, "Protocol comparison: application grid under each coherence backend, outputs verified against goldens")
	rows := res[0].Pivot("protocol")
	for k, name := range ProtocolNames {
		fmt.Fprintf(w, "\nProtocol %s\n", name)
		protocolTable.write(w, column(rows, k))
	}
	fmt.Fprintln(w, "\nElapsed time relative to lrc (ratio > 1 means slower)")
	appCfg.across(ProtocolNames, 1, 8, "%8.3f", slowdown).write(w, rows)
	return nil
}

// Race-checked application grid: every application under the
// happens-before race detector, across the protocol-comparison grid
// ({O, P, 4T, 4TP} × {lrc, erc, hlrc, adp}). The detector proves the data-
// race-freedom contract release consistency demands: a racy application
// would produce protocol-dependent results and invalidate every
// cross-protocol comparison, so this experiment is the evidence that the
// repo's comparisons compare like with like. Outputs are additionally
// verified against the sequential goldens; any detected race aborts the
// experiment with the two-site RaceError report.

var raceCheckGrid = Grid{
	Outer: []Axis{
		{"detector", []Point{{"on", func(c *dsm.Config) { c.RaceCheck = true }}}},
		protocolAxis,
	},
	Variants: ProtocolVariants,
	Verify:   true,
}

// renderRaceCheck renders a per-protocol elapsed-time table. Elapsed times
// are identical to an unchecked run's — the detector charges no simulated
// time — so the table doubles as a byte-level witness that checking is
// observation-free.
func renderRaceCheck(_ *Session, w io.Writer, res []Results) error {
	fmt.Fprintln(w, "Race-checked grid: every access checked against the Lock/Barrier happens-before order, outputs verified")
	appCfg.across(ProtocolNames, 0, 12, "%10dus", elapsedUs).write(w, res[0].Pivot("protocol"))
	fmt.Fprintf(w, "\n%d runs, 0 data races: the applications are data-race-free under every protocol\n", len(res[0].Runs))
	return nil
}

// Adaptive-coherence comparison: the application grid under the diff-based
// baseline (lrc), the home-based backend under each home policy (static,
// firsttouch, migrate), and the adaptive backend (adp), which keeps homes
// static but switches each page between the diff-based and home-based
// regimes at barrier episodes. Every run verifies its output against the
// sequential golden. The summary reports each backend's elapsed time
// relative to lrc and, for adp, relative to the best static choice per cell
// — the number that tells whether per-page adaptation actually recovers the
// better of the two regimes without knowing the application in advance.

// adaptiveAxis lists the compared backends, baseline first. lrc, static
// hlrc and adp are the fixed choices adp is measured against; firsttouch
// and migrate move homes but keep every page home-based. Static hlrc leaves
// the policy empty — the same configuration, hence the same cached runs, as
// the protocols experiment's hlrc column.
var adaptiveAxis = Axis{"backend", []Point{
	{"lrc", backend("lrc", "")},
	{"hlrc", backend("hlrc", "")},
	{"hlrc/ft", backend("hlrc", "firsttouch")},
	{"hlrc/mig", backend("hlrc", "migrate")},
	{"adp", backend("adp", "")},
}}

var adaptiveGrid = Grid{Outer: []Axis{adaptiveAxis}, Variants: ProtocolVariants, Verify: true}

var adaptiveTable = table{
	"App        Cfg     Elapsed     Msgs   VolKB DiffAppl HomeFlsh HomeFtch    Migr  ToHome  ToDiff",
	"%-10s %-4s %8dus %8d %7d %8d %8d %8d %7d %7d %7d",
	func(r Run) []any {
		return []any{r.App, r.Variant, usec(r.Elapsed), r.MsgsTotal, kb(r.BytesTotal), r.N.DiffsApplied,
			r.N.HomeFlushes, r.N.HomeFetches, r.N.HomeMigrations, r.N.ModeToHome, r.N.ModeToDiff}
	},
}

// adpOverBest is adp's elapsed time against the best fixed backend of the
// row — every other column, the lrc baseline included.
func adpOverBest(r Run) any {
	best, adp := r, r
	for _, b := range r.Across[1:] {
		if b.Label("backend") == "adp" {
			adp = b
		} else if b.Elapsed < best.Elapsed {
			best = b
		}
	}
	return slowdown(adp, best)
}

// renderAdaptive renders per-backend tables plus the relative-elapsed
// summary.
func renderAdaptive(_ *Session, w io.Writer, res []Results) error {
	fmt.Fprintln(w, "Adaptive coherence: lrc vs hlrc home policies vs per-page mode switching (adp), outputs verified against goldens")
	labels, rows := res[0].Labels("backend"), res[0].Pivot("backend")
	for k, label := range labels {
		fmt.Fprintf(w, "\nBackend %s\n", label)
		adaptiveTable.write(w, column(rows, k))
	}
	fmt.Fprintln(w, "\nElapsed time relative to lrc (ratio > 1 means slower), and adp against the best fixed backend")
	summary := appCfg.across(labels, 1, 8, "%8.3f", slowdown)
	ratios := summary.vals
	summary.head, summary.row = summary.head+" adp/best", summary.row+" %8.3f"
	summary.vals = func(r Run) []any { return append(ratios(r), adpOverBest(r)) }
	summary.write(w, rows)
	return nil
}
