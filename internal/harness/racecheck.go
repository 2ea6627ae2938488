package harness

import (
	"fmt"
	"io"

	"godsm/dsm"
)

// Race-checked application grid: every application under the
// happens-before race detector, across the protocol-comparison grid
// ({O, P, 4T, 4TP} × {lrc, erc, hlrc}). The detector proves the data-
// race-freedom contract release consistency demands: a racy application
// would produce protocol-dependent results and invalidate every
// cross-protocol comparison, so this experiment is the evidence that the
// repo's comparisons compare like with like. Outputs are additionally
// verified against the sequential goldens; any detected race aborts the
// experiment with the two-site RaceError report.

// RunRaceCheck runs the race-checked grid and renders a per-protocol
// elapsed-time table. Elapsed times are identical to an unchecked run's —
// the detector charges no simulated time — so the table doubles as a
// byte-level witness that checking is observation-free.
func RunRaceCheck(s *Session, w io.Writer) error {
	cells := protocolGrid(s)
	reps, err := simGrid(s, cells, func(c protocolCell) (string, dsm.Config, bool) {
		cfg := s.Config(c.app, c.v)
		cfg.Protocol = c.proto
		cfg.RaceCheck = true
		return c.app, cfg, true
	})
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "Race-checked grid: every access checked against the Lock/Barrier happens-before order, outputs verified")
	fmt.Fprintf(w, "%-10s %-4s", "App", "Cfg")
	for _, proto := range ProtocolNames {
		fmt.Fprintf(w, " %12s", proto)
	}
	fmt.Fprintln(w)
	for _, app := range s.AppNames() {
		for _, v := range ProtocolVariants {
			fmt.Fprintf(w, "%-10s %-4s", app, v)
			for _, proto := range ProtocolNames {
				fmt.Fprintf(w, " %10sus", usec(reps[protocolCell{app, v, proto}].Elapsed))
			}
			fmt.Fprintln(w)
		}
	}
	fmt.Fprintf(w, "\n%d runs, 0 data races: the applications are data-race-free under every protocol\n", len(cells))
	return nil
}
