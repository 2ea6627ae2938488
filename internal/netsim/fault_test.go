package netsim

import (
	"math/rand"
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
}

// Event counts the injected (non-congestion) drops the network announces.
func (r *faultTrafficResult) Event(e event.Event) {
	if e.Kind == event.KindNetDrop && e.Aux != event.DropCongestion {
		r.injected++
	}
}

// runFaultTraffic replays a fixed random traffic pattern (derived from
// trafficSeed) through a network of the given topology configured with the
// given fault plan and returns what happened. The fat tree uses radix 2, so
// the four nodes span two switch levels.
func runFaultTraffic(trafficSeed int64, plan FaultPlan, topology string) *faultTrafficResult {
	rng := rand.New(rand.NewSource(trafficSeed))
	cfg := testConfig()
	cfg.DropThreshold = sim.Time(1 + rng.Intn(2000))
	cfg.Faults = plan
	cfg.Topology, cfg.FatTreeRadix = topology, 2
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
			res := runFaultTraffic(seed^0x5dee7, plan, topology)
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

// Same fault seed, same traffic: the delivery schedule and every counter are
// identical across runs. A different fault seed perturbs the run.
func TestFaultDeterminism(t *testing.T) {
	plan := FaultPlan{Seed: 42, Loss: 0.2, Dup: 0.1, Reorder: 0.2, MaxJitter: sim.Millisecond}
	a := runFaultTraffic(7, plan, "")
	b := runFaultTraffic(7, plan, "")
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
	c := runFaultTraffic(7, plan, "")
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
	a := runFaultTraffic(11, zero, "")
	b := runFaultTraffic(11, FaultPlan{Seed: 999}, "") // seed alone is not a fault
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
