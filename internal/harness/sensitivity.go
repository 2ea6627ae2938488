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

type netPoint struct {
	label string
	prop  sim.Time // per-link-traversal latency
	mbps  float64  // link bandwidth
}

var netPoints = []netPoint{
	{"fast-lan (10us, 1Gb)", 10 * sim.Microsecond, 1000},
	{"atm/2 (150us, 155Mb)", 150 * sim.Microsecond, 155},
	{"paper (300us, 155Mb)", 300 * sim.Microsecond, 155},
	{"atm*2 (600us, 155Mb)", 600 * sim.Microsecond, 155},
	{"wan-ish (2ms, 45Mb)", 2 * sim.Millisecond, 45},
}

// RunNetSweep regenerates the network sensitivity table: for each network
// point and a representative app pair, the speedup of P, 4T and the
// combined 4TP over the original. All network points simulate concurrently
// on the session's worker pool; rendering prints in table order.
func RunNetSweep(s *Session, w io.Writer) error {
	appsToRun := []string{"SOR", "WATER-NSQ"}
	if len(s.Opt.Apps) > 0 {
		appsToRun = s.Opt.Apps
	}
	sweepVariants := []Variant{VarO, VarP, Var4T, Var4TP}
	type cell struct {
		np  netPoint
		app string
		v   Variant
	}
	var cells []cell
	for _, np := range netPoints {
		for _, app := range appsToRun {
			for _, v := range sweepVariants {
				cells = append(cells, cell{np, app, v})
			}
		}
	}
	reps, err := simGrid(s, cells, func(c cell) (string, dsm.Config, bool) {
		cfg := s.Config(c.app, c.v)
		cfg.Net.PropDelay = c.np.prop
		cfg.Net.NsPerByte = 8000 / c.np.mbps
		return c.app, cfg, s.Opt.Verify
	})
	if err != nil {
		return err
	}

	fmt.Fprintln(w, "Network sensitivity: speedup of each technique vs. interconnect")
	fmt.Fprintf(w, "%-22s %-10s %10s %8s %8s %8s\n",
		"Network", "App", "O elapsed", "P", "4T", "4TP")
	for _, np := range netPoints {
		for _, app := range appsToRun {
			base := reps[cell{np, app, VarO}]
			fmt.Fprintf(w, "%-22s %-10s %8dus %7.2fx %7.2fx %7.2fx\n",
				np.label, app, base.Elapsed/sim.Microsecond,
				reps[cell{np, app, VarP}].Speedup(base),
				reps[cell{np, app, Var4T}].Speedup(base),
				reps[cell{np, app, Var4TP}].Speedup(base))
		}
	}
	return nil
}
