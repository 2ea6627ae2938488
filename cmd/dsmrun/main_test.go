package main

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"godsm/dsm"
	"godsm/internal/harness"
)

// TestValidateMachine exercises dsm.Config.Validate, the one validator every
// front end reports bad input through: registered protocol names pass (with
// any knobs they support), unknown names fail with the registered list, knob
// combinations a backend cannot honor are rejected, and machine shapes the
// simulator cannot build — a fat tree over a non-power-of-two -procs, a
// degenerate combining-tree arity — are plain errors instead of panics in
// core.NewSystem.
func TestValidateMachine(t *testing.T) {
	cases := []struct {
		name        string
		procs       int // 0 = leave DefaultConfig's 8
		protocol    string
		gcThreshold int64
		topology    string
		radix       int
		barrier     string
		fanout      int
		gossip      bool
		raceCheck   bool
		raceGran    string
		wantErr     []string // substrings of the error; empty = valid
	}{
		{name: "default is lrc"},
		{name: "explicit lrc", protocol: "lrc"},
		{name: "erc", protocol: "erc"},
		{name: "hlrc", protocol: "hlrc"},
		{name: "lrc with gc threshold", protocol: "lrc", gcThreshold: 1 << 20},
		{name: "default with gc threshold", gcThreshold: 1 << 20},
		{name: "unknown protocol lists registered ones", protocol: "treadmarks",
			wantErr: []string{"unknown protocol", "treadmarks", "erc", "hlrc", "lrc"}},
		{name: "hlrc rejects gc threshold", protocol: "hlrc", gcThreshold: 1 << 20,
			wantErr: []string{"hlrc", "GCThreshold"}},
		{name: "hlrc rejects shared pf-heap gc", protocol: "hlrc",
			wantErr: []string{"hlrc", "PfHeapSharedGC"}},

		{name: "zero procs", procs: -1,
			wantErr: []string{"Procs", "positive"}},
		{name: "explicit single switch", topology: "single"},
		{name: "fat tree at a power of two", procs: 64, topology: "fattree"},
		{name: "fat tree with explicit radix", procs: 16, topology: "fattree", radix: 8},
		{name: "unknown topology", topology: "hypercube",
			wantErr: []string{"unknown topology", "hypercube"}},
		{name: "fat tree rejects non-power-of-two procs", procs: 12, topology: "fattree",
			wantErr: []string{"fattree", "12", "power-of-two"}},
		{name: "fat tree rejects one node", procs: 1, topology: "fattree",
			wantErr: []string{"fattree", "power-of-two"}},
		{name: "fat tree rejects non-power-of-two radix", procs: 16, topology: "fattree", radix: 6,
			wantErr: []string{"fattree", "radix 6"}},
		{name: "combining tree", barrier: "tree"},
		{name: "explicit central barrier", barrier: "central"},
		{name: "unknown barrier", barrier: "butterfly",
			wantErr: []string{"unknown barrier", "butterfly"}},
		{name: "combining tree rejects arity below 2", barrier: "tree", fanout: 1,
			wantErr: []string{"fanout 1", "arity >= 2"}},
		{name: "gossip on erc", protocol: "erc", gossip: true},
		{name: "gossip on lrc", protocol: "lrc", gossip: true},
		{name: "hlrc rejects gossip", protocol: "hlrc", gossip: true,
			wantErr: []string{"hlrc", "Gossip"}},
		{name: "the full scaled machine", procs: 256, protocol: "erc",
			topology: "fattree", barrier: "tree", gossip: true},
		{name: "race check", raceCheck: true},
		{name: "race check at word granularity", raceCheck: true, raceGran: "word"},
		{name: "race check at page granularity", raceCheck: true, raceGran: "page"},
		{name: "race granularity requires race check", raceGran: "page",
			wantErr: []string{"RaceGranularity", "RaceCheck"}},
		{name: "unknown race granularity", raceCheck: true, raceGran: "byte",
			wantErr: []string{"race granularity", "byte", "word or page"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := dsm.DefaultConfig()
			if tc.procs != 0 {
				cfg.Procs = tc.procs
			}
			cfg.Protocol = tc.protocol
			cfg.GCThreshold = tc.gcThreshold
			cfg.Net.Topology = tc.topology
			cfg.Net.FatTreeRadix = tc.radix
			cfg.Barrier = tc.barrier
			cfg.BarrierFanout = tc.fanout
			cfg.Gossip = tc.gossip
			cfg.RaceCheck = tc.raceCheck
			cfg.RaceGranularity = tc.raceGran
			if tc.name == "hlrc rejects shared pf-heap gc" {
				cfg.PfHeapSharedGC = true
			}
			err := cfg.Validate()
			if len(tc.wantErr) == 0 {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("want error mentioning %q, got nil", tc.wantErr)
			}
			for _, want := range tc.wantErr {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q missing %q", err, want)
				}
			}
		})
	}
}

// TestBadFlagIsUsageError checks the flag binding end to end: parseFlags
// sets the dsm.Config fields the flags name, and a bad value or combination
// comes back as the error main turns into exit status 2 — never a panic.
func TestBadFlagIsUsageError(t *testing.T) {
	parse := func(args ...string) (*options, error) {
		fs := flag.NewFlagSet("dsmrun", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		return parseFlags(fs, args)
	}
	o, err := parse("-app", "FFT,SOR", "-procs", "16", "-threads", "2", "-protocol", "erc",
		"-topology", "fattree", "-barrier", "tree", "-gossip", "-gossip-seed", "5", "-loss", "0.01")
	if err != nil {
		t.Fatalf("valid flags rejected: %v", err)
	}
	c := o.cfg
	if len(o.specs) != 2 || c.Procs != 16 || c.ThreadsPerProc != 2 ||
		c.Protocol != "erc" || c.Net.Topology != "fattree" || c.Barrier != "tree" ||
		!c.Gossip || c.GossipSeed != 5 || c.Net.Faults.Loss != 0.01 || c.Net.Faults.Seed != 1 {
		t.Errorf("flags not bound onto the config: %+v", o)
	}
	if o, _ := parse(); o.cfg.Net.Faults.Active() || o.cfg.Net.Faults.Seed != 0 {
		t.Errorf("no fault flags must leave the zero plan, got %+v", o.cfg.Net.Faults)
	}
	o, err = parse("-faults", "heavy")
	if err != nil {
		t.Fatalf("-faults heavy rejected: %v", err)
	}
	if want, _ := harness.FaultSchedule("heavy"); !reflect.DeepEqual(o.cfg.Net.Faults, want) ||
		len(want.Stalls) == 0 || len(want.Brownouts) == 0 {
		t.Errorf("-faults heavy bound %+v, want the soak's heavy plan %+v", o.cfg.Net.Faults, want)
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-procs", "0"}, "Procs"},
		{[]string{"-protocol", "bogus"}, "unknown protocol"},
		{[]string{"-topology", "fattree", "-procs", "12"}, "power-of-two"},
		{[]string{"-home-policy", "migrate"}, "-protocol is not hlrc"},
		{[]string{"-gossip-seed", "3"}, "-gossip is off"},
		{[]string{"-fault-seed", "3"}, "fault injection is off"},
		{[]string{"-loss", "0.1", "-fault-seed", "0"}, "reserved"},
		{[]string{"-loss", "2"}, "probability"},
		{[]string{"-faults", "severe"}, "unknown fault schedule"},
		{[]string{"-faults", "light", "-loss", "0.1"}, "-loss given with -faults"},
		{[]string{"-faults", "light", "-fault-seed", "4"}, "-fault-seed given with -faults"},
		{[]string{"-faults", "heavy", "-procs", "2"}, "names node 2 of a 2-node cluster"},
		{[]string{"-procs", "16384", "-threads", "4", "-race-check"}, "fewer than 65536 threads"},
		{[]string{"-app", "NOPE"}, "unknown application"},
		{[]string{"-app", "SOR,FFT", "-trace", "t.json"}, "single -app"},
		{[]string{"-no-such-flag"}, "not defined"},
	} {
		if _, err := parse(tc.args...); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: want usage error mentioning %q, got %v", tc.args, tc.want, err)
		}
	}
}
