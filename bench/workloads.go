package main

import (
	"fmt"
	"strings"

	"godsm/dsm"
	"godsm/internal/apps"
	"godsm/internal/harness"
)

// Fixed simulation seeds. The benchmark's -seed permutes the order cells
// run in (host heap and cache state differ, simulated results cannot); the
// fault and gossip draws stay fixed so virt_ms and every count repeat bit
// for bit under any -seed.
const (
	faultSeed  = 1
	gossipSeed = 1
)

// cell is one simulation of a workload: app / variant / backend / procs.
// Every cell runs at small scale with golden verification on.
type cell struct {
	App     string
	Variant harness.Variant
	// Backend is a registered protocol name, optionally with one "+mod":
	// "lrc+loss" (1 % injected loss, reliable transport), "erc+gossip",
	// "hlrc+migrate" (home policy).
	Backend string
	Procs   int
	Big     bool // fat tree + combining-tree barrier
	Race    bool // happens-before detector on, word granularity
}

func (c cell) String() string {
	s := fmt.Sprintf("%s/%s/%s/%d", c.App, c.Variant, c.Backend, c.Procs)
	if c.Race {
		s += "/race"
	}
	return s
}

// config builds the cell's machine. The variant rules (which nT/nTP
// switches are on, RADIX's throttle) are the harness's own.
func (c cell) config() dsm.Config {
	cfg := harness.NewSession(harness.Options{Procs: c.Procs}).Config(c.App, c.Variant)
	proto, mod, _ := strings.Cut(c.Backend, "+")
	cfg.Protocol = proto
	switch mod {
	case "":
	case "loss":
		cfg.Net.Faults = dsm.FaultPlan{Seed: faultSeed, Loss: 0.01}
	case "gossip":
		cfg.Gossip = true
		cfg.GossipSeed = gossipSeed
	case "migrate":
		cfg.HomePolicy = "migrate"
	default:
		panic("bench: unknown backend modifier in " + c.Backend)
	}
	if c.Big {
		cfg.Net.Topology = "fattree"
		cfg.Barrier = "tree"
	}
	if c.Race {
		cfg.RaceCheck = true
		cfg.RaceGranularity = "word"
	}
	return cfg
}

// workload is a named cell list with its repetition counts.
type workload struct {
	Name string
	Why  string
	// Reps is the least number of timed passes; more run while the
	// -seconds budget lasts. SetupK is how many times the setup phase
	// constructs every cell (sized so the phase lasts about a second).
	Reps   int
	SetupK int
	Cells  []cell // cheapest first: -quick runs only Cells[0]
}

func grid(appNames []string, variants []harness.Variant, backends []string, procs int, race bool) []cell {
	var cells []cell
	for _, app := range appNames {
		for _, b := range backends {
			for _, v := range variants {
				cells = append(cells, cell{App: app, Variant: v, Backend: b, Procs: procs, Race: race})
			}
		}
	}
	return cells
}

func allApps() []string {
	names := make([]string, len(apps.All))
	for i, a := range apps.All {
		names[i] = a.Name
	}
	return names
}

var paperVariants = []harness.Variant{harness.VarO, harness.VarP, harness.Var4T, harness.Var4TP}

// workloads lists the benchmark's five workloads. BENCHMARK.json carries
// the same names and reasons; bench_test.go keeps the two equal.
var workloads = []workload{
	{
		Name: "paper_grid",
		Why:  "8 apps x {O,P,4T,4TP}, lrc, 8 procs: the paper's own grid; core.Env.access and apps code dominate, so kernel work should not move it",
		Reps: 3, SetupK: 200,
		Cells: grid(allApps(), paperVariants, []string{"lrc"}, 8, false),
	},
	{
		Name: "comm_bound",
		Why:  "FFT, RADIX, WATER-NSQ, WATER-SP x all 8 variants, lrc: lowest host time per event, so sim, netsim, proto dispatch and the allocator show here",
		Reps: 5, SetupK: 200,
		Cells: grid([]string{"FFT", "RADIX", "WATER-NSQ", "WATER-SP"}, harness.AllVariants, []string{"lrc"}, 8, false),
	},
	{
		Name: "big_machine",
		Why:  "SOR and FFT at 256 and 1024 procs on the fat tree with the tree barrier: only place hops, gossip, O(N) vector clocks, NewSystem cost and heap matter",
		Reps: 3, SetupK: 30,
		Cells: []cell{
			{App: "FFT", Variant: harness.VarO, Backend: "erc+gossip", Procs: 256, Big: true},
			{App: "SOR", Variant: harness.VarO, Backend: "lrc", Procs: 256, Big: true},
			{App: "FFT", Variant: harness.VarO, Backend: "lrc", Procs: 1024, Big: true},
			{App: "FFT", Variant: harness.VarO, Backend: "hlrc", Procs: 1024, Big: true},
		},
	},
	{
		Name: "backend_mix",
		Why:  "FFT, RADIX, WATER-SP x {O,4TP} x {lrc+1% loss, erc, hlrc, hlrc+migrate, adp}: home flushes, page fetches, retransmits and mode switches",
		Reps: 3, SetupK: 150,
		Cells: grid([]string{"FFT", "RADIX", "WATER-SP"}, []harness.Variant{harness.VarO, harness.Var4TP},
			[]string{"lrc+loss", "erc", "hlrc", "hlrc+migrate", "adp"}, 8, false),
	},
	{
		Name: "race_checked",
		Why:  "FFT, RADIX, OCEAN, SOR x {O,4TP}, lrc with the race detector at word granularity: the paper_grid access path plus the detector's allocations",
		Reps: 6, SetupK: 1500,
		Cells: grid([]string{"FFT", "RADIX", "OCEAN", "SOR"}, []harness.Variant{harness.VarO, harness.Var4TP}, []string{"lrc"}, 8, true),
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}
