package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"godsm/dsm"
	"godsm/internal/proto"
	"godsm/internal/sim"
)

// Node-count scaling of the machine itself (an extension: the paper fixes
// eight workstations on one ATM switch). For each protocol and processor
// count the experiment runs the same application twice:
//
//   - baseline: the paper's machine — one switch, the centralized barrier
//     manager on node 0, and (under erc) the O(N) release broadcast;
//   - scaled: the large-machine configuration — fat-tree topology,
//     combining-tree barrier, and (under erc, whose release broadcast is the
//     O(N) path being replaced) gossip write-notice dissemination. lrc has
//     no broadcast and hlrc distributes notices through page homes, so they
//     scale only the topology and barrier.
//
// Reported per cell: elapsed time, total messages, the barrier service
// time (mean per-node cumulative barrier stall — under the centralized
// barrier this is dominated by the manager serializing N arrivals and N-1
// release sends through one node and one link), barrier and notice message
// counts, and the busiest link's peak backlog. A machine-readable snapshot
// lands in BENCH_nodescale.json when the session's NodeScaleJSON option is
// set.

// NodeScaleDefaultProcs is the default processor sweep.
var NodeScaleDefaultProcs = []int{8, 64, 256, 1024}

// nodeScaleDefaultApps keeps the sweep affordable: SOR is barrier-dominated
// (the machine cost shows directly) and FFT's transposes stress the
// interconnect with all-to-all traffic.
var nodeScaleDefaultApps = []string{"SOR", "FFT"}

// nodeScaleSeed seeds the gossip peer choice for every scaled run.
const nodeScaleSeed = 6

// NodeScaleRow is one cell of the sweep in the JSON snapshot.
type NodeScaleRow struct {
	App       string `json:"app"`
	Protocol  string `json:"protocol"`
	Procs     int    `json:"procs"`
	Machine   string `json:"machine"` // "baseline" or "scaled"
	ElapsedUs int64  `json:"elapsed_us"`
	Msgs      int64  `json:"msgs"`
	// BarrierUs is the barrier subsystem's service time as experienced per
	// node: the mean cumulative barrier stall. It charges the centralized
	// manager for everything it serializes — N arrival services and N-1
	// release sends funnelled through node 0's CPU and outbound link — which
	// the waiting leaves pay for in release-delivery lateness.
	BarrierUs    int64  `json:"barrier_us"`
	BarrierMsgs  int64  `json:"barrier_msgs"` // arrivals + releases on the wire
	NoticeMsgs   int64  `json:"notice_msgs"`  // eager-notice + gossip messages
	GossipRounds int64  `json:"gossip_rounds"`
	PeakLink     string `json:"peak_link"`
	PeakLinkUs   int64  `json:"peak_link_us"`
}

// NodeScaleCheck is one acceptance comparison in the JSON snapshot: at 64+
// nodes the scaled machine must strictly beat the baseline.
type NodeScaleCheck struct {
	App             string `json:"app"`
	Protocol        string `json:"protocol"`
	Procs           int    `json:"procs"`
	BarrierLower    bool   `json:"barrier_lower"`
	NoticeMsgsLower bool   `json:"notice_msgs_lower,omitempty"` // erc only
}

type nodeScaleSnapshot struct {
	Scale  string           `json:"scale"`
	Apps   []string         `json:"apps"`
	Procs  []int            `json:"procs"`
	Rows   []NodeScaleRow   `json:"rows"`
	Checks []NodeScaleCheck `json:"checks"`
}

func (s *Session) nodeScaleProcs() []int {
	if len(s.Opt.NodeScaleProcs) > 0 {
		return s.Opt.NodeScaleProcs
	}
	return NodeScaleDefaultProcs
}

func (s *Session) nodeScaleApps() []string {
	if len(s.Opt.Apps) > 0 {
		return s.Opt.Apps
	}
	return nodeScaleDefaultApps
}

// nodeScaleCell names one run of the sweep.
type nodeScaleCell struct {
	app, protocol string
	procs         int
	machine       string // "baseline" or "scaled"
}

// nodeScaleConfig builds one cell's configuration.
func (s *Session) nodeScaleConfig(c nodeScaleCell) dsm.Config {
	cfg := s.Config(c.app, VarO)
	cfg.Procs = c.procs
	cfg.Protocol = c.protocol
	if c.machine == "scaled" {
		cfg.Net.Topology = "fattree"
		cfg.Barrier = "tree"
		// Gossip replaces erc's O(N) release broadcast. lrc sends no eager
		// notices (gossip would only add traffic) and hlrc routes notices
		// through page homes, so both keep their notice paths.
		if c.protocol == "erc" {
			cfg.Gossip = true
			cfg.GossipSeed = nodeScaleSeed
		}
	}
	return cfg
}

// nodeScaleRow extracts one cell's metrics from its report.
func nodeScaleRow(c nodeScaleCell, rep *dsm.Report) NodeScaleRow {
	sum := rep.Sum()
	return NodeScaleRow{
		App: c.app, Protocol: c.protocol, Procs: c.procs, Machine: c.machine,
		ElapsedUs:    int64(rep.Elapsed / sim.Microsecond),
		Msgs:         rep.MsgsTotal,
		BarrierUs:    int64(sum.BarrierStall / sim.Time(len(rep.Nodes)) / sim.Microsecond),
		BarrierMsgs:  rep.KindMsgs[proto.KindBarArrive] + rep.KindMsgs[proto.KindBarRelease],
		NoticeMsgs:   rep.KindMsgs[proto.KindEagerNotice] + rep.KindMsgs[proto.KindGossip],
		GossipRounds: sum.GossipRounds,
		PeakLink:     rep.PeakLink,
		PeakLinkUs:   int64(rep.PeakLinkBacklog / sim.Microsecond),
	}
}

// RunNodeScale runs the machine-scaling sweep.
func RunNodeScale(s *Session, w io.Writer) error {
	apps := s.nodeScaleApps()
	procsList := s.nodeScaleProcs()
	protocols := ProtocolNames
	machines := []string{"baseline", "scaled"}

	var cells []nodeScaleCell
	for _, app := range apps {
		for _, protocol := range protocols {
			for _, procs := range procsList {
				for _, machine := range machines {
					cells = append(cells, nodeScaleCell{app, protocol, procs, machine})
				}
			}
		}
	}
	reps, err := simGrid(s, cells, func(c nodeScaleCell) (string, dsm.Config, bool) {
		return c.app, s.nodeScaleConfig(c), s.Opt.Verify
	})
	if err != nil {
		return err
	}
	rows := make(map[nodeScaleCell]NodeScaleRow, len(cells))
	for _, c := range cells {
		rows[c] = nodeScaleRow(c, reps[c])
	}

	fmt.Fprintln(w, "Node scaling: one switch + central barrier (+ erc broadcast) vs fat tree + combining tree + gossip")
	for _, app := range apps {
		for _, protocol := range protocols {
			fmt.Fprintf(w, "\n%s under %s\n", app, protocol)
			fmt.Fprintf(w, "%-6s %-9s %12s %9s %10s %8s %8s %7s %14s %9s\n",
				"Procs", "Machine", "Elapsed", "Msgs", "BarStall", "BarMsgs", "Notices", "Rounds", "PeakLink", "PeakWait")
			for _, procs := range procsList {
				for _, machine := range machines {
					r := rows[nodeScaleCell{app, protocol, procs, machine}]
					fmt.Fprintf(w, "%-6d %-9s %10dus %9d %8dus %8d %8d %7d %14s %7dus\n",
						procs, machine, r.ElapsedUs, r.Msgs, r.BarrierUs,
						r.BarrierMsgs, r.NoticeMsgs, r.GossipRounds, r.PeakLink, r.PeakLinkUs)
				}
			}
		}
	}

	// Acceptance summary: at 64+ nodes the scaled machine must strictly
	// lower the barrier service time, and under erc the notice message
	// count.
	var checks []NodeScaleCheck
	fmt.Fprintln(w, "\nScaled-machine wins at 64+ nodes (strictly lower than baseline)")
	fmt.Fprintf(w, "%-10s %-6s %-6s %12s %12s\n", "App", "Proto", "Procs", "BarStall", "NoticeMsgs")
	for _, app := range apps {
		for _, protocol := range protocols {
			for _, procs := range procsList {
				if procs < 64 {
					continue
				}
				base := rows[nodeScaleCell{app, protocol, procs, "baseline"}]
				scal := rows[nodeScaleCell{app, protocol, procs, "scaled"}]
				ck := NodeScaleCheck{
					App: app, Protocol: protocol, Procs: procs,
					BarrierLower: scal.BarrierUs < base.BarrierUs,
				}
				notices := "-"
				if protocol == "erc" {
					ck.NoticeMsgsLower = scal.NoticeMsgs < base.NoticeMsgs
					notices = verdict(ck.NoticeMsgsLower)
				}
				checks = append(checks, ck)
				fmt.Fprintf(w, "%-10s %-6s %-6d %12s %12s\n",
					app, protocol, procs, verdict(ck.BarrierLower), notices)
			}
		}
	}

	if path := s.Opt.NodeScaleJSON; path != "" {
		snap := nodeScaleSnapshot{
			Scale: s.Opt.Scale.String(),
			Apps:  apps,
			Procs: procsList,
		}
		for _, c := range cells {
			snap.Rows = append(snap.Rows, rows[c])
		}
		snap.Checks = checks
		buf, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nwrote %s\n", path)
	}
	return nil
}

func verdict(ok bool) string {
	if ok {
		return "lower ok"
	}
	return "NOT LOWER"
}
