package proto

import (
	"strings"
	"testing"

	"godsm/internal/lrc"
	"godsm/internal/netsim"
	"godsm/internal/pagemem"
	"godsm/internal/sim"
	"godsm/internal/stats"
)

// newFaultRig wires a cluster over a faulty network with the reliable
// transport enabled, mirroring the core wiring under an active fault plan.
func newFaultRig(n int, plan netsim.FaultPlan) *rig {
	r := &rig{k: sim.NewKernel(), costs: DefaultCosts(), log: make([][]*lrc.Interval, n)}
	r.st = make([]stats.Node, n)
	r.k.Bus().Subscribe(stats.NewCollector(r.st))
	cfg := netsim.DefaultConfig()
	cfg.Faults = plan
	r.net = netsim.New(r.k, n, cfg, func(m *netsim.Message) {
		r.nodes[m.Dst].Deliver(m)
	})
	for i := 0; i < n; i++ {
		nd := NewNode(i, r.log, r.k, sim.NewCPU(r.k), &r.costs, Spec{})
		nd.Send = r.net.Send
		nd.EnableTransport()
		r.nodes = append(r.nodes, nd)
	}
	return r
}

func sumXport(st []stats.Node) (retx, timeouts, dups int64) {
	for i := range st {
		retx += st[i].Retransmits
		timeouts += st[i].Timeouts
		dups += st[i].DupSuppressed
	}
	return
}

// A brown-out eats the first barrier arrival; the retransmission timer must
// recover it and the barrier must still complete.
func TestTransportRecoversBrownoutLoss(t *testing.T) {
	r := newFaultRig(2, netsim.FaultPlan{
		Brownouts: []netsim.LinkFault{{Node: 1, From: 0, To: 2 * sim.Millisecond}},
	})
	released := 0
	r.k.At(0, func() { r.write(1, page0, 9) })
	r.k.At(sim.Millisecond, func() {
		for _, nd := range r.nodes {
			nd.Barrier(0, func() { released++ })
		}
	})
	r.k.Run()
	if released != 2 {
		t.Fatalf("barrier released %d nodes, want 2", released)
	}
	retx, timeouts, _ := sumXport(r.st)
	if retx == 0 || timeouts == 0 {
		t.Fatalf("brown-out recovered without retransmission? retx=%d timeouts=%d", retx, timeouts)
	}
	if r.nodes[0].PageValid(1) {
		t.Fatal("node 1's write notice never reached node 0")
	}
}

// With every message duplicated, handlers must still run exactly once: the
// run completing without a duplicate-barrier-arrival invariant failure is
// the assertion, plus nonzero suppression counters.
func TestTransportSuppressesDuplicates(t *testing.T) {
	r := newFaultRig(3, netsim.FaultPlan{Seed: 5, Dup: 1.0})
	for round := 0; round < 3; round++ {
		r.k.At(r.k.Now(), func() { r.write(0, page0, float64(round)) })
		r.k.Run()
		r.barrierAll(round)
	}
	if _, _, dups := sumXport(r.st); dups == 0 {
		t.Fatal("Dup=1.0 produced no suppressed duplicates")
	}
}

// Heavy reordering: the transport must restore per-pair FIFO so interval
// records stay contiguous (checkContiguity would panic otherwise).
func TestTransportRepairsReordering(t *testing.T) {
	r := newFaultRig(4, netsim.FaultPlan{Seed: 11, Reorder: 0.8, MaxJitter: 20 * sim.Millisecond})
	for round := 0; round < 4; round++ {
		r.k.At(r.k.Now(), func() {
			for i := range r.nodes {
				r.write(i, page0+pagemem8k(round, i), float64(i))
			}
		})
		r.k.Run()
		r.barrierAll(round)
	}
}

// pagemem8k spreads writers over distinct pages per (round, node).
func pagemem8k(round, node int) pagemem.Addr {
	return pagemem.Addr(round*4+node) * pagemem.PageSize
}

// A permanently dead link exhausts the retry cap and must raise a structured
// InvariantError with the event trace attached by the kernel run loop.
func TestTransportRetryCapRaisesInvariant(t *testing.T) {
	r := newFaultRig(2, netsim.FaultPlan{
		Brownouts: []netsim.LinkFault{{Node: 1, From: 0, To: 1 << 60}},
	})
	defer func() {
		rec := recover()
		if rec == nil {
			t.Fatal("dead link did not raise the retry-cap invariant")
		}
		ie, ok := rec.(*InvariantError)
		if !ok {
			t.Fatalf("panic value is %T, want *InvariantError", rec)
		}
		if !strings.Contains(ie.Msg, "retransmission timeouts") {
			t.Fatalf("unexpected invariant: %s", ie.Msg)
		}
		if len(ie.Events) == 0 {
			t.Fatal("kernel did not attach the dispatch trace")
		}
		if !strings.Contains(ie.Error(), "events:") {
			t.Fatalf("rendering lacks the event trace:\n%s", ie.Error())
		}
	}()
	r.k.At(0, func() { r.write(1, page0, 1) })
	r.k.Run()
	for _, nd := range r.nodes {
		nd.Barrier(0, func() {})
	}
	r.k.Run()
}
