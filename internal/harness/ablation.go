package harness

import (
	"fmt"
	"io"

	"godsm/dsm"
)

// Ablations of the design choices the protocol (and the paper) relies on.
// Each toggle removes one mechanism; the experiment reports the resulting
// slowdown (or speedup) relative to the full system under the configuration
// where the mechanism matters most.
type ablation struct {
	name    string
	detail  string
	apps    []string
	variant Variant
	setup   func(*dsm.Config) // applied to the full and the ablated run; may be nil
	mutate  func(*dsm.Config) // applied to the ablated run only
}

var ablations = []ablation{
	{
		name:    "no-lock-token-caching",
		detail:  "locks return to their manager at every release (centralized locks)",
		apps:    []string{"WATER-NSQ", "WATER-SP", "OCEAN"},
		variant: VarO,
		mutate:  func(c *dsm.Config) { c.NoTokenCache = true },
	},
	{
		name:    "reliable-prefetches",
		detail:  "prefetch messages are never dropped (paper §3.1 argues against)",
		apps:    []string{"FFT", "RADIX", "LU-NCONT"},
		variant: VarP,
		mutate:  func(c *dsm.Config) { c.PfReliable = true },
	},
	{
		name:    "no-redundant-pf-suppression",
		detail:  "sibling threads issue duplicate prefetches (paper §5.1 opt. 1)",
		apps:    []string{"SOR", "OCEAN", "WATER-NSQ"},
		variant: Var4TP,
		mutate:  func(c *dsm.Config) { c.NoPfSuppress = true },
	},
	{
		name:    "no-radix-throttling",
		detail:  "RADIX combined mode issues every prefetch (paper §5.1 opt. 2)",
		apps:    []string{"RADIX"},
		variant: Var2TP,
		mutate:  func(c *dsm.Config) { c.ThrottlePf = 0 },
	},
	{
		name:    "eager-release-consistency",
		detail:  "write notices broadcast at every release (Munin-style) instead of lazily",
		apps:    []string{"OCEAN", "WATER-NSQ", "SOR"},
		variant: VarO,
		mutate:  backend("erc", ""),
	},
	{
		name:    "shared-prefetch-heap",
		detail:  "prefetch cache counts toward the GC trigger (paper footnote 6)",
		apps:    []string{"LU-NCONT", "FFT"},
		variant: VarP,
		// Full and ablated both collect at the same threshold, so the ratio
		// isolates the heap-sharing choice.
		setup:  func(c *dsm.Config) { c.GCThreshold = 256 * 1024 },
		mutate: func(c *dsm.Config) { c.PfHeapSharedGC = true },
	},
}

// grid declares one ablation: its applications (filtered, not replaced, by
// -apps) under its variant, full system against ablated.
func (ab ablation) grid() Grid {
	return Grid{
		Outer:    []Axis{{"mechanism", []Point{{ab.name, ab.setup}}}},
		Apps:     ab.apps,
		Pinned:   true,
		Variants: []Variant{ab.variant},
		Axes:     []Axis{{"system", []Point{{Label: "full"}, {"ablated", ab.mutate}}}},
	}
}

// unsupported reports why the session's backend cannot run the ablation —
// its Validate rejecting the knob, as hlrc and adp reject a GC threshold —
// or nil.
func (ab ablation) unsupported(s *Session) error {
	cfg := s.Config(ab.apps[0], ab.variant)
	if ab.setup != nil {
		ab.setup(&cfg)
	}
	ab.mutate(&cfg)
	return cfg.Validate()
}

func ablationGrids(s *Session) []Grid {
	var grids []Grid
	for _, ab := range ablations {
		if ab.unsupported(s) == nil {
			grids = append(grids, ab.grid())
		}
	}
	return grids
}

// ablationTable prints a row pivoted on "system": the row is the full
// system's run, Across[1] the ablated one.
var ablationTable = table{
	"Mechanism removed            App        Cfg           Full      Ablated    Ratio",
	"%-28s %-10s %-5s %10dus %10dus %7.2fx",
	func(r Run) []any {
		abl := r.Across[1]
		return []any{r.Label("mechanism"), r.App, r.Variant, usec(r.Elapsed), usec(abl.Elapsed), slowdown(abl, r)}
	},
}

// renderAblations regenerates the design-choice ablation table. Each row
// runs the full system and the ablated system under the same configuration
// and reports the elapsed-time ratio (>1 means the mechanism was helping).
// A mechanism the session's backend does not have is one n/a line.
func renderAblations(s *Session, w io.Writer, res []Results) error {
	fmt.Fprintln(w, "Ablation study: cost of removing each design mechanism")
	fmt.Fprintln(w, ablationTable.head)
	for _, ab := range ablations {
		if err := ab.unsupported(s); err != nil {
			fmt.Fprintf(w, "%-28s n/a (%v)\n", ab.name, err)
		} else {
			for _, r := range res[0].Pivot("system") {
				ablationTable.writeRow(w, r)
			}
			res = res[1:]
		}
		fmt.Fprintf(w, "  (%s)\n", ab.detail)
	}
	return nil
}
