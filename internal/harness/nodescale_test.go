package harness

import (
	"testing"

	"godsm/internal/apps"
)

// TestTreeBarrierDegeneratesToCentral: with a fanout covering all N-1
// non-root nodes the combining tree has depth 1 — node 0 is every leaf's
// parent — and the tree's wire format, charging pattern, and release
// filtering are the central barrier's, message for message. The whole
// measurement report must therefore be byte-identical across the default
// barrier, the explicit central barrier, and the degenerate tree, for
// every protocol.
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
		cfg := s.nodeScaleConfig(nodeScaleCell{"SOR", "erc", 16, "scaled"})
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
