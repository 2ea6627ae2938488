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

// protocolCell is one cell of the protocol × application × variant grid the
// protocols and racecheck experiments share.
type protocolCell struct {
	app   string
	v     Variant
	proto string
}

func protocolGrid(s *Session) []protocolCell {
	var cells []protocolCell
	for _, proto := range ProtocolNames {
		for _, app := range s.AppNames() {
			for _, v := range ProtocolVariants {
				cells = append(cells, protocolCell{app, v, proto})
			}
		}
	}
	return cells
}

// RunProtocols runs the protocol-comparison grid and renders per-protocol
// tables plus a cross-protocol elapsed-time summary. The traffic columns
// attribute data movement to its protocol mechanism: diff fetches for the
// diff-based backends, home flushes and whole-page home fetches for HLRC.
func RunProtocols(s *Session, w io.Writer) error {
	reps, err := simGrid(s, protocolGrid(s), func(c protocolCell) (string, dsm.Config, bool) {
		cfg := s.Config(c.app, c.v)
		cfg.Protocol, cfg.HomePolicy = c.proto, ""
		return c.app, cfg, true
	})
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "Protocol comparison: application grid under each coherence backend, outputs verified against goldens")
	for _, proto := range ProtocolNames {
		fmt.Fprintf(w, "\nProtocol %s\n", proto)
		fmt.Fprintf(w, "%-10s %-4s %10s %8s %7s %8s %8s %8s %8s %8s %7s\n",
			"App", "Cfg", "Elapsed", "Msgs", "VolKB", "RemMiss", "DiffAppl", "HomeFlsh", "HomeFtch", "HomeKB", "verify")
		for _, app := range s.AppNames() {
			for _, v := range ProtocolVariants {
				rep := reps[protocolCell{app, v, proto}]
				n := rep.Sum()
				fmt.Fprintf(w, "%-10s %-4s %8sus %8d %7s %8d %8d %8d %8d %8s %7s\n",
					app, v, usec(rep.Elapsed), rep.MsgsTotal, kb(rep.BytesTotal),
					n.Misses, n.DiffsApplied, n.HomeFlushes, n.HomeFetches,
					kb(n.HomeFlushBytes+n.HomeFetchBytes), "ok")
			}
		}
	}

	fmt.Fprintln(w, "\nElapsed time relative to lrc (ratio > 1 means slower)")
	fmt.Fprintf(w, "%-10s %-4s", "App", "Cfg")
	for _, proto := range ProtocolNames[1:] {
		fmt.Fprintf(w, " %8s", proto)
	}
	fmt.Fprintln(w)
	for _, app := range s.AppNames() {
		for _, v := range ProtocolVariants {
			base := reps[protocolCell{app, v, "lrc"}]
			fmt.Fprintf(w, "%-10s %-4s", app, v)
			for _, proto := range ProtocolNames[1:] {
				rep := reps[protocolCell{app, v, proto}]
				fmt.Fprintf(w, " %8.3f", float64(rep.Elapsed)/float64(base.Elapsed))
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}
