package harness

import (
	"fmt"
	"testing"

	"godsm/dsm"
	"godsm/internal/apps"
)

// TestTreeBarrierDegeneratesToCentral: the central barrier is the barrier
// tree with a fanout covering all N-1 non-root nodes — depth 1, node 0 every
// leaf's parent. The spellings that select it ("", "central", and "tree"
// with fanout N-1) must therefore be one machine: the whole measurement
// report is byte-identical across them, for every protocol. (That the
// machine is also the one earlier commits simulated is
// TestGoldenFingerprints' job.)
func TestTreeBarrierDegeneratesToCentral(t *testing.T) {
	s := NewSession(Options{Procs: 8, Scale: apps.Unit, Workers: 1})
	for _, app := range []string{"SOR", "FFT"} {
		for _, protocol := range ProtocolNames {
			base := s.Config(app, VarO)
			base.Protocol = protocol

			central := base
			central.Barrier = "central"
			tree := base
			tree.Barrier = "tree"
			tree.BarrierFanout = base.Procs - 1

			rd, err := s.Sim(app, base, false)
			if err != nil {
				t.Fatal(err)
			}
			rc, err := s.Sim(app, central, false)
			if err != nil {
				t.Fatal(err)
			}
			rt, err := s.Sim(app, tree, false)
			if err != nil {
				t.Fatal(err)
			}
			fd, fc, ft := rd.Fingerprint(), rc.Fingerprint(), rt.Fingerprint()
			if fd != fc {
				t.Errorf("%s/%s: explicit central barrier differs from default:\ndefault: %s\ncentral: %s",
					app, protocol, fd, fc)
			}
			if fc != ft {
				t.Errorf("%s/%s: depth-1 combining tree differs from central barrier:\ncentral: %s\ntree:    %s",
					app, protocol, fc, ft)
			}
		}
	}
}

// TestScaledMachineDeterminism: the full scaled machine — fat tree,
// combining tree, gossip — must be deterministic across reruns and worker
// counts, like every other configuration the simulator runs.
func TestScaledMachineDeterminism(t *testing.T) {
	run := func(workers int) string {
		s := NewSession(Options{Procs: 16, Scale: apps.Unit, Workers: workers})
		cfg := s.Config("SOR", VarO)
		backend("erc", "")(&cfg)
		scaledMachine(&cfg)
		rep, err := s.Sim("SOR", cfg, false)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Fingerprint()
	}
	seq, par, rerun := run(1), run(8), run(1)
	if seq != par {
		t.Errorf("scaled machine differs across worker counts:\nseq: %s\npar: %s", seq, par)
	}
	if seq != rerun {
		t.Errorf("scaled machine did not reproduce on rerun:\n1st: %s\n2nd: %s", seq, rerun)
	}
}

// TestSyncMatrixVerifies: every application must compute its golden result,
// race-check clean, when the barrier is a deep combining tree and the
// synchronization messages also carry a backend's extra duties — GC verdicts
// (lrc), gossip racing the releases (erc), home moves (hlrc's dynamic
// policies) and mode switches (adp). These are the configurations whose
// message orders the default machine never produces: a release reaching one
// node long before another, a relayed notice overtaking the notices it
// depends on, a page request reaching a home-elect before its own release.
func TestSyncMatrixVerifies(t *testing.T) {
	rows := Axis{"row", []Point{
		{"lrc+gc", func(c *dsm.Config) { c.GCThreshold = 2000 }},
		{"erc+gossip1", func(c *dsm.Config) { c.Protocol, c.Gossip, c.GossipFanout = "erc", true, 1 }},
		{"erc+gossip2", func(c *dsm.Config) { c.Protocol, c.Gossip, c.GossipFanout = "erc", true, 2 }},
		{"hlrc+migrate", backend("hlrc", "migrate")},
		{"hlrc+firsttouch", backend("hlrc", "firsttouch")},
		{"adp", backend("adp", "")},
	}}
	s := NewSession(Options{Procs: 8, Scale: apps.Unit, RaceCheck: true})
	if _, err := s.RunGrid(Grid{
		Variants: []Variant{VarO},
		Axes:     []Axis{rows, fanoutAxis(2, 3)},
		Verify:   true,
	}); err != nil {
		t.Fatal(err)
	}
}

// fanoutAxis sweeps the barrier: a combining tree of each fanout, 0 being
// the central barrier.
func fanoutAxis(fanouts ...int) Axis {
	ax := Axis{Name: "fanout"}
	for _, f := range fanouts {
		ax.Points = append(ax.Points, Point{fmt.Sprint(f), func(c *dsm.Config) {
			if f > 0 {
				c.Barrier, c.BarrierFanout = "tree", f
			}
		}})
	}
	return ax
}

// TestChaosMatrixVerifies: every home-based row must compute every
// application's golden result on a network that loses and duplicates
// messages. A retransmitted flush is overtaken by the traffic behind it — a
// prefetch datagram, a barrier release that moves the page's home or
// switches its mode — and these are the orders the home-based engine's two
// ordering rules (proto/hlrc.go) exist for. A protocol invariant fails its
// cell by name like a wrong answer does (dsm.RunChecked).
func TestChaosMatrixVerifies(t *testing.T) {
	backends := Axis{"backend", []Point{
		{"hlrc", backend("hlrc", "")},
		{"hlrc/firsttouch", backend("hlrc", "firsttouch")},
		{"hlrc/migrate", backend("hlrc", "migrate")},
		{"adp", backend("adp", "")},
	}}
	seeds := Axis{Name: "seed"}
	for seed := int64(1); seed <= 3; seed++ {
		seeds.Points = append(seeds.Points, Point{fmt.Sprint(seed), func(c *dsm.Config) {
			c.Net.Faults = dsm.FaultPlan{Seed: seed, Loss: 0.04, Dup: 0.01}
		}})
	}
	s := NewSession(Options{Procs: 8, Scale: apps.Unit})
	if _, err := s.RunGrid(Grid{
		Variants: []Variant{VarO, VarP, Var4TP},
		Axes:     []Axis{backends, fanoutAxis(0, 2), seeds},
		Verify:   true,
	}); err != nil {
		t.Fatal(err)
	}
}

// TestTreeBarrierCollectsLikeCentral: a subtree's GC verdict belongs to one
// barrier episode. An interior node that kept reporting it after its subtree
// first tripped the threshold made a deep tree collect at every later
// barrier (121 collections where the central barrier runs 8, on this cell);
// the shape of the tree must not change how often the machine collects.
func TestTreeBarrierCollectsLikeCentral(t *testing.T) {
	s := NewSession(Options{Procs: 8, Scale: apps.Unit, Workers: 1})
	gcRuns := func(barrier string, fanout int) int64 {
		cfg := s.Config("OCEAN", VarO)
		cfg.GCThreshold = 60000
		cfg.Barrier, cfg.BarrierFanout = barrier, fanout
		rep, err := s.Sim("OCEAN", cfg, true)
		if err != nil {
			t.Fatal(err)
		}
		return rep.Sum().GCRuns
	}
	central, tree := gcRuns("central", 0), gcRuns("tree", 2)
	if central == 0 {
		t.Fatal("the cell never collects: the threshold no longer exercises the GC verdict")
	}
	if tree != central {
		t.Errorf("fanout-2 tree ran %d collections, central barrier %d", tree, central)
	}
}
