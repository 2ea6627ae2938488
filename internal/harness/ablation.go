package harness

import (
	"fmt"
	"io"
	"slices"

	"godsm/dsm"
	"godsm/internal/sim"
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
		mutate:  func(c *dsm.Config) { c.Protocol = "erc" },
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

// RunAblations regenerates the design-choice ablation table. Each row runs
// the full system and the ablated system under the same configuration and
// reports the elapsed-time ratio (>1 means the mechanism was helping). All
// rows simulate concurrently on the session's worker pool; rendering waits
// and prints in table order.
func RunAblations(s *Session, w io.Writer) error {
	type cell struct {
		ab      int // index into ablations
		app     string
		ablated bool
	}
	var cells []cell
	for i, ab := range ablations {
		for _, app := range ab.apps {
			if slices.Contains(s.AppNames(), app) {
				cells = append(cells, cell{i, app, false}, cell{i, app, true})
			}
		}
	}
	reps, err := simGrid(s, cells, func(c cell) (string, dsm.Config, bool) {
		ab := ablations[c.ab]
		cfg := s.Config(c.app, ab.variant)
		if ab.setup != nil {
			ab.setup(&cfg)
		}
		if c.ablated {
			ab.mutate(&cfg)
		}
		return c.app, cfg, s.Opt.Verify
	})
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "Ablation study: cost of removing each design mechanism")
	fmt.Fprintf(w, "%-28s %-10s %-5s %12s %12s %8s\n",
		"Mechanism removed", "App", "Cfg", "Full", "Ablated", "Ratio")
	for i, ab := range ablations {
		for _, app := range ab.apps {
			base, abl := reps[cell{i, app, false}], reps[cell{i, app, true}]
			if base == nil {
				continue // app not selected
			}
			fmt.Fprintf(w, "%-28s %-10s %-5s %10dus %10dus %7.2fx\n",
				ab.name, app, ab.variant,
				base.Elapsed/sim.Microsecond, abl.Elapsed/sim.Microsecond,
				float64(abl.Elapsed)/float64(base.Elapsed))
		}
		fmt.Fprintf(w, "  (%s)\n", ab.detail)
	}
	return nil
}
