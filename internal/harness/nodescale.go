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

// procsAxis sweeps the machine's processor count.
func procsAxis(procs ...int) Axis {
	return axisOf("procs", procs, func(p int) Point {
		return Point{fmt.Sprint(p), func(c *dsm.Config) { c.Procs = p }}
	})
}

// scaledMachine is the large-machine configuration of whatever protocol the
// cell runs.
func scaledMachine(cfg *dsm.Config) {
	cfg.Net.Topology = "fattree"
	cfg.Barrier = "tree"
	// Gossip replaces erc's O(N) release broadcast. lrc sends no eager
	// notices (gossip would only add traffic) and hlrc routes notices
	// through page homes, so both keep their notice paths.
	if cfg.Protocol == "erc" {
		cfg.Gossip = true
		cfg.GossipSeed = nodeScaleSeed
	}
}

var machineAxis = Axis{"machine", []Point{{Label: "baseline"}, {"scaled", scaledMachine}}}

func (s *Session) nodeScaleProcs() []int {
	if len(s.Opt.NodeScaleProcs) > 0 {
		return s.Opt.NodeScaleProcs
	}
	return NodeScaleDefaultProcs
}

func nodeScaleGrid(s *Session) []Grid {
	return []Grid{{
		Apps:     nodeScaleDefaultApps,
		Variants: []Variant{VarO},
		Axes:     []Axis{protocolAxis, procsAxis(s.nodeScaleProcs()...), machineAxis},
	}}
}

// nodeScaleRow extracts one cell's metrics from its report.
func nodeScaleRow(r Run) NodeScaleRow {
	return NodeScaleRow{
		App: r.App, Protocol: r.Label("protocol"), Procs: len(r.Nodes), Machine: r.Label("machine"),
		ElapsedUs:    usec(r.Elapsed),
		Msgs:         r.MsgsTotal,
		BarrierUs:    usec(r.N.BarrierStall / sim.Time(len(r.Nodes))),
		BarrierMsgs:  r.KindMsgs[proto.KindBarArrive] + r.KindMsgs[proto.KindBarRelease],
		NoticeMsgs:   r.KindMsgs[proto.KindEagerNotice] + r.KindMsgs[proto.KindGossip],
		GossipRounds: r.N.GossipRounds,
		PeakLink:     r.PeakLink,
		PeakLinkUs:   usec(r.PeakLinkBacklog),
	}
}

var nodeScaleTable = table{
	"Procs  Machine        Elapsed      Msgs   BarStall  BarMsgs  Notices  Rounds       PeakLink  PeakWait",
	"%-6d %-9s %10dus %9d %8dus %8d %8d %7d %14s %7dus",
	func(r Run) []any {
		row := nodeScaleRow(r)
		return []any{row.Procs, row.Machine, row.ElapsedUs, row.Msgs, row.BarrierUs, row.BarrierMsgs,
			row.NoticeMsgs, row.GossipRounds, row.PeakLink, row.PeakLinkUs}
	},
}

// renderNodeScale renders the machine-scaling sweep: one table per
// application and protocol, the acceptance summary, and the JSON snapshot.
func renderNodeScale(s *Session, w io.Writer, res []Results) error {
	fmt.Fprintln(w, "Node scaling: one switch + central barrier (+ erc broadcast) vs fat tree + combining tree + gossip")
	// One table per application and protocol: the runs are in that order.
	perTable := len(res[0].Labels("procs")) * len(res[0].Labels("machine"))
	for runs := res[0].Runs; len(runs) > 0; runs = runs[perTable:] {
		fmt.Fprintf(w, "\n%s under %s\n", runs[0].App, runs[0].Label("protocol"))
		nodeScaleTable.write(w, runs[:perTable])
	}

	// Acceptance summary: at 64+ nodes the scaled machine must strictly
	// lower the barrier service time, and under erc the notice message
	// count.
	var checks []NodeScaleCheck
	fmt.Fprintln(w, "\nScaled-machine wins at 64+ nodes (strictly lower than baseline)")
	fmt.Fprintf(w, "%-10s %-6s %-6s %12s %12s\n", "App", "Proto", "Procs", "BarStall", "NoticeMsgs")
	for _, r := range res[0].Pivot("machine") {
		base, scal := nodeScaleRow(r), nodeScaleRow(r.Across[1])
		if base.Procs < 64 {
			continue
		}
		ck := NodeScaleCheck{
			App: base.App, Protocol: base.Protocol, Procs: base.Procs,
			BarrierLower: scal.BarrierUs < base.BarrierUs,
		}
		notices := "-"
		if ck.Protocol == "erc" {
			ck.NoticeMsgsLower = scal.NoticeMsgs < base.NoticeMsgs
			notices = verdict(ck.NoticeMsgsLower)
		}
		checks = append(checks, ck)
		fmt.Fprintf(w, "%-10s %-6s %-6d %12s %12s\n",
			ck.App, ck.Protocol, ck.Procs, verdict(ck.BarrierLower), notices)
	}

	if path := s.Opt.NodeScaleJSON; path != "" {
		snap := nodeScaleSnapshot{
			Scale:  s.Opt.Scale.String(),
			Apps:   res[0].Labels("app"),
			Procs:  s.nodeScaleProcs(),
			Checks: checks,
		}
		for _, r := range res[0].Runs {
			snap.Rows = append(snap.Rows, nodeScaleRow(r))
		}
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
