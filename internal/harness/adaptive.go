package harness

import (
	"fmt"
	"io"

	"godsm/dsm"
)

// Adaptive-coherence comparison: the application grid under the diff-based
// baseline (lrc), the home-based backend under each home policy (static,
// firsttouch, migrate), and the adaptive backend (adp), which keeps homes
// static but switches each page between the diff-based and home-based
// regimes at barrier episodes. Every run verifies its output against the
// sequential golden. The summary reports each backend's elapsed time
// relative to lrc and, for adp, relative to the best static choice per cell
// — the number that tells whether per-page adaptation actually recovers the
// better of the two regimes without knowing the application in advance.

// AdaptiveBackend is one column of the adaptive comparison: a display
// label, a protocol name, and (for hlrc) a home policy. Static hlrc leaves
// the policy empty — the same configuration, hence the same cached runs, as
// the protocols experiment's hlrc column.
type AdaptiveBackend struct {
	Label    string
	Protocol string
	Policy   string
}

// AdaptiveBackends lists the compared configurations, baseline first. The
// "static" trio are the fixed choices adp is measured against; firsttouch
// and migrate move homes but keep every page home-based.
var AdaptiveBackends = []AdaptiveBackend{
	{Label: "lrc", Protocol: "lrc"},
	{Label: "hlrc", Protocol: "hlrc"},
	{Label: "hlrc/ft", Protocol: "hlrc", Policy: "firsttouch"},
	{Label: "hlrc/mig", Protocol: "hlrc", Policy: "migrate"},
	{Label: "adp", Protocol: "adp"},
}

// RunAdaptive runs the adaptive-coherence grid and renders per-backend
// tables plus the relative-elapsed summary.
func RunAdaptive(s *Session, w io.Writer) error {
	type cell struct {
		app string
		v   Variant
		b   AdaptiveBackend
	}
	var cells []cell
	for _, b := range AdaptiveBackends {
		for _, app := range s.AppNames() {
			for _, v := range ProtocolVariants {
				cells = append(cells, cell{app, v, b})
			}
		}
	}
	reps, err := simGrid(s, cells, func(c cell) (string, dsm.Config, bool) {
		cfg := s.Config(c.app, c.v)
		cfg.Protocol, cfg.HomePolicy = c.b.Protocol, c.b.Policy
		return c.app, cfg, true
	})
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "Adaptive coherence: lrc vs hlrc home policies vs per-page mode switching (adp), outputs verified against goldens")
	for _, b := range AdaptiveBackends {
		fmt.Fprintf(w, "\nBackend %s\n", b.Label)
		fmt.Fprintf(w, "%-10s %-4s %10s %8s %7s %8s %8s %8s %7s %7s %7s\n",
			"App", "Cfg", "Elapsed", "Msgs", "VolKB", "DiffAppl", "HomeFlsh", "HomeFtch", "Migr", "ToHome", "ToDiff")
		for _, app := range s.AppNames() {
			for _, v := range ProtocolVariants {
				rep := reps[cell{app, v, b}]
				n := rep.Sum()
				fmt.Fprintf(w, "%-10s %-4s %8sus %8d %7s %8d %8d %8d %7d %7d %7d\n",
					app, v, usec(rep.Elapsed), rep.MsgsTotal, kb(rep.BytesTotal),
					n.DiffsApplied, n.HomeFlushes, n.HomeFetches,
					n.HomeMigrations, n.ModeToHome, n.ModeToDiff)
			}
		}
	}

	fmt.Fprintln(w, "\nElapsed time relative to lrc (ratio > 1 means slower), and adp against the best fixed backend")
	fmt.Fprintf(w, "%-10s %-4s", "App", "Cfg")
	for _, b := range AdaptiveBackends[1:] {
		fmt.Fprintf(w, " %8s", b.Label)
	}
	fmt.Fprintf(w, " %8s\n", "adp/best")
	for _, app := range s.AppNames() {
		for _, v := range ProtocolVariants {
			base := reps[cell{app, v, AdaptiveBackends[0]}]
			fmt.Fprintf(w, "%-10s %-4s", app, v)
			best, adp := base.Elapsed, base
			for _, b := range AdaptiveBackends[1:] {
				rep := reps[cell{app, v, b}]
				fmt.Fprintf(w, " %8.3f", float64(rep.Elapsed)/float64(base.Elapsed))
				if b.Label == "adp" {
					adp = rep
				} else if rep.Elapsed < best {
					best = rep.Elapsed
				}
			}
			fmt.Fprintf(w, " %8.3f\n", float64(adp.Elapsed)/float64(best))
		}
	}
	return nil
}
