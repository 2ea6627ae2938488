package netsim

import (
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"godsm/internal/event"
	"godsm/internal/sim"
)

// faultTrafficResult summarizes one randomized traffic run under a fault plan.
type faultTrafficResult struct {
	sent, recv int64
	injected   int64      // loss and brown-out drop events seen on the bus
	arrivals   []sim.Time // delivery times, in delivery order
	stats      LinkStats
	loads      []LinkLoad
}

// Event counts the injected (non-congestion) drops the network announces.
func (r *faultTrafficResult) Event(e event.Event) {
	if e.Kind == event.KindNetDrop && e.Aux != event.DropCongestion {
		r.injected++
	}
}

// runFaultTraffic replays a fixed random traffic pattern (derived from
// trafficSeed) through a network of the given topology configured with the
// given fault plan and returns what happened. With radix 2 the fat tree's
// four nodes span two switch levels; with radix 4 they share one switch.
func runFaultTraffic(trafficSeed int64, plan FaultPlan, topology string, radix int) *faultTrafficResult {
	rng := rand.New(rand.NewSource(trafficSeed))
	cfg := testConfig()
	cfg.DropThreshold = sim.Time(1 + rng.Intn(2000))
	cfg.Faults = plan
	cfg.Topology, cfg.FatTreeRadix = topology, radix
	k := sim.NewKernel()
	res := new(faultTrafficResult)
	k.Bus().Subscribe(res)
	n := New(k, 4, cfg, func(m *Message) {
		res.recv++
		res.arrivals = append(res.arrivals, k.Now())
	})
	for i := 0; i < 80; i++ {
		at := sim.Time(rng.Intn(6000))
		src, dst := NodeID(rng.Intn(4)), NodeID(rng.Intn(4))
		size := 1 + rng.Intn(4000)
		reliable := rng.Intn(4) != 0
		k.At(at, func() {
			res.sent++
			n.Send(&Message{Src: src, Dst: dst, Size: size, Reliable: reliable})
		})
	}
	k.Run()
	res.stats = n.TotalStats()
	res.loads = n.LinkLoads()
	return res
}

// Property: under probabilistic loss and duplication, the counters conserve:
// every message sent is either received, dropped, or received more than once
// via duplication — MsgsRecv + Dropped == MsgsSent + Duplicated, and the
// same for bytes — and FaultDrops counts exactly the injected (loss and
// brown-out) drops, on the single switch and on the fat tree alike.
func TestFaultConservationProperty(t *testing.T) {
	for _, topology := range []string{"single", "fattree"} {
		var injected int64
		f := func(seed int64) bool {
			plan := FaultPlan{
				Seed:      seed,
				Loss:      0.15,
				Dup:       0.15,
				Reorder:   0.10,
				MaxJitter: 2 * sim.Millisecond,
				Brownouts: []LinkFault{{Node: 2, From: 1000, To: 2500}},
			}
			res := runFaultTraffic(seed^0x5dee7, plan, topology, 2)
			s := res.stats
			if s.MsgsRecv+s.Dropped != s.MsgsSent+s.Duplicated {
				return false
			}
			if s.BytesRecv+s.BytesDropped != s.BytesSent+s.BytesDup {
				return false
			}
			injected += res.injected
			if s.FaultDrops != res.injected || s.FaultDrops > s.Dropped {
				return false
			}
			// The deliver callback and the counters must agree.
			return s.MsgsSent == res.sent && s.MsgsRecv == res.recv
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Fatalf("%s: %v", topology, err)
		}
		if injected == 0 {
			t.Fatalf("%s: the plan never injected a drop", topology)
		}
	}
}

// The star is the fat tree whose one switch covers the cluster: with radix >=
// nodes every fat-tree route is [source's edge up, destination's edge down],
// the star's two links. Arrival times, traffic counters and every link's
// occupancy figures must then be equal for the same traffic — clean, and
// under a fault plan that exercises loss, duplication, jitter, a brown-out
// and a stall, which also pins that both consume the PRNG identically. Only
// the link names (and the fat tree's NetHop events) differ.
func TestStarEqualsOneSwitchFatTree(t *testing.T) {
	plans := []FaultPlan{{}, {
		Seed: 9, Loss: 0.1, Dup: 0.1, Reorder: 0.1, MaxJitter: sim.Millisecond,
		Brownouts: []LinkFault{{Node: 2, From: 1000, To: 2500}},
		Stalls:    []LinkFault{{Node: 1, From: 3000, To: 4000}},
	}}
	for _, plan := range plans {
		for seed := int64(1); seed <= 20; seed++ {
			star := runFaultTraffic(seed, plan, "single", 0)
			tree := runFaultTraffic(seed, plan, "fattree", 4)
			if star.stats != tree.stats {
				t.Fatalf("seed %d: counters differ:\nstar %+v\ntree %+v", seed, star.stats, tree.stats)
			}
			if !slices.Equal(star.arrivals, tree.arrivals) {
				t.Fatalf("seed %d: arrival times differ:\nstar %v\ntree %v", seed, star.arrivals, tree.arrivals)
			}
			if len(star.loads) != len(tree.loads) {
				t.Fatalf("seed %d: %d star links, %d fat-tree links", seed, len(star.loads), len(tree.loads))
			}
			for i, s := range star.loads {
				f := tree.loads[i]
				if s.Msgs != f.Msgs || s.Busy != f.Busy || s.Peak != f.Peak {
					t.Fatalf("seed %d: link %d loads differ: %+v vs %+v", seed, i, s, f)
				}
			}
			if star.loads[5].Name != "node2.in" || tree.loads[5].Name != "edge2.down" {
				t.Fatalf("link names: %q, %q", star.loads[5].Name, tree.loads[5].Name)
			}
		}
	}
}

// Same fault seed, same traffic: the delivery schedule and every counter are
// identical across runs. A different fault seed perturbs the run.
func TestFaultDeterminism(t *testing.T) {
	plan := FaultPlan{Seed: 42, Loss: 0.2, Dup: 0.1, Reorder: 0.2, MaxJitter: sim.Millisecond}
	a := runFaultTraffic(7, plan, "", 0)
	b := runFaultTraffic(7, plan, "", 0)
	if a.stats != b.stats {
		t.Fatalf("same seed, different stats:\n%+v\n%+v", a.stats, b.stats)
	}
	if len(a.arrivals) != len(b.arrivals) {
		t.Fatalf("same seed, different delivery count: %d vs %d", len(a.arrivals), len(b.arrivals))
	}
	for i := range a.arrivals {
		if a.arrivals[i] != b.arrivals[i] {
			t.Fatalf("same seed, delivery %d at %d vs %d", i, a.arrivals[i], b.arrivals[i])
		}
	}
	plan.Seed = 43
	c := runFaultTraffic(7, plan, "", 0)
	if c.stats == a.stats {
		t.Fatal("different fault seed produced identical stats — PRNG not in play?")
	}
}

// The zero plan must leave the network byte-for-byte as it was: no PRNG, no
// fault counters, identical delivery schedule to a network with no Faults
// field set at all.
func TestZeroPlanIsInert(t *testing.T) {
	var zero FaultPlan
	if zero.Active() {
		t.Fatal("zero FaultPlan reports Active")
	}
	a := runFaultTraffic(11, zero, "", 0)
	b := runFaultTraffic(11, FaultPlan{Seed: 999}, "", 0) // seed alone is not a fault
	if a.stats != b.stats || len(a.arrivals) != len(b.arrivals) {
		t.Fatalf("zero plan not inert:\n%+v\n%+v", a.stats, b.stats)
	}
	if a.stats.FaultDrops != 0 || a.stats.Duplicated != 0 {
		t.Fatalf("zero plan injected faults: %+v", a.stats)
	}
}

// Brown-outs drop every frame crossing the window; stalls only delay.
func TestBrownoutAndStallWindows(t *testing.T) {
	mk := func(plan FaultPlan) (recv int, when sim.Time) {
		k := sim.NewKernel()
		cfg := testConfig()
		cfg.Faults = plan
		n := New(k, 2, cfg, func(m *Message) { recv++; when = k.Now() })
		k.At(0, func() {
			n.Send(&Message{Src: 0, Dst: 1, Size: 100, Reliable: true})
		})
		k.Run()
		return recv, when
	}

	base, baseAt := mk(FaultPlan{Stalls: []LinkFault{{Node: 1, From: 0, To: 0}}})
	if base != 1 {
		t.Fatalf("inactive windows: recv=%d", base)
	}

	recv, _ := mk(FaultPlan{Brownouts: []LinkFault{{Node: 0, From: 0, To: sim.Second}}})
	if recv != 0 {
		t.Fatalf("brown-out on sender link: message delivered anyway")
	}
	recv, _ = mk(FaultPlan{Brownouts: []LinkFault{{Node: 1, From: 0, To: sim.Second}}})
	if recv != 0 {
		t.Fatalf("brown-out on receiver link: message delivered anyway")
	}

	stallTo := 5 * sim.Millisecond
	recv, at := mk(FaultPlan{Stalls: []LinkFault{{Node: 0, From: 0, To: stallTo}}})
	if recv != 1 {
		t.Fatalf("stall dropped the message")
	}
	if at < stallTo || at <= baseAt {
		t.Fatalf("stalled delivery at %d, want after window end %d (base %d)", at, stallTo, baseAt)
	}
}

// Validate rejects fault plans that cannot mean what they say, for every
// caller — library, harness or CLI — instead of leaving them to surface as a
// transport retry-cap failure or to sit silently inert.
func TestValidateRejectsBadFaultPlans(t *testing.T) {
	win := func(node NodeID, from, to sim.Time) []LinkFault { return []LinkFault{{Node: node, From: from, To: to}} }
	for _, tc := range []struct {
		name string
		plan FaultPlan
		want string // "" = valid
	}{
		{"zero", FaultPlan{}, ""},
		{"full", FaultPlan{Loss: 1, Dup: 0.5, Reorder: 0.2, MaxJitter: 5, Brownouts: win(3, 0, 10), Stalls: win(0, 7, 7)}, ""},
		{"loss above one", FaultPlan{Loss: 2}, "probability"},
		{"negative dup", FaultPlan{Dup: -0.1}, "probability"},
		{"reorder above one", FaultPlan{Reorder: 1.5, MaxJitter: 5}, "probability"},
		{"negative jitter", FaultPlan{Reorder: 0.5, MaxJitter: -1}, "MaxJitter"},
		{"brown-out on node N", FaultPlan{Brownouts: win(4, 0, 10)}, "names node 4"},
		{"stall on node -1", FaultPlan{Stalls: win(-1, 0, 10)}, "names node -1"},
		{"brown-out ends before it starts", FaultPlan{Brownouts: win(1, 10, 5)}, "before it starts"},
		{"stall ends before it starts", FaultPlan{Stalls: win(1, 10, 5)}, "before it starts"},
	} {
		cfg := testConfig()
		cfg.Faults = tc.plan
		err := cfg.Validate(4)
		if tc.want == "" && err != nil {
			t.Errorf("%s: rejected: %v", tc.name, err)
		}
		if tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Errorf("%s: want an error mentioning %q, got %v", tc.name, tc.want, err)
		}
	}
}

// Send rejects a source outside the cluster the way it rejects a destination.
func TestSendRejectsBadEndpoints(t *testing.T) {
	for _, m := range []*Message{{Src: 4, Dst: 0}, {Src: -1, Dst: 0}, {Src: 0, Dst: 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Send(%d -> %d) on a 4-node network did not panic", m.Src, m.Dst)
				}
			}()
			New(sim.NewKernel(), 4, testConfig(), func(*Message) {}).Send(m)
		}()
	}
}
