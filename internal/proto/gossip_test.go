package proto

import (
	"fmt"
	"testing"

	"godsm/internal/pagemem"
	"godsm/internal/sim"
)

// Gossip dissemination property tests. The scenario gives gossip no help:
// every node acquires its own lock (distinct locks never exchange
// consistency information), writes its own page, and releases — closing one
// interval per node — and no barrier ever runs. The only channel by which
// node q can learn node c's write notice is the gossip push graph.

// runGossipProgram drives the scenario on n nodes under cfg and returns the
// drained rig.
func runGossipProgram(t *testing.T, n int, cfg Spec) *rig {
	t.Helper()
	r := newRigCfg(n, cfg)
	for i := 0; i < n; i++ {
		addr := pagemem.Addr(i+1) * pagemem.PageSize
		node, a := i, addr
		acquireRelease(t, r, node, node, sim.Time(node)*10*sim.Microsecond,
			func() { r.write(node, a, float64(node)) })
	}
	r.k.Run()
	return r
}

// checkConverged asserts every notice reached every node exactly once:
// each node holds exactly one record per foreign creator, its vector time
// covers it, and the written page is invalidated.
func checkConverged(t *testing.T, r *rig) {
	t.Helper()
	n := len(r.nodes)
	for q := 0; q < n; q++ {
		for c := 0; c < n; c++ {
			if c == q {
				continue
			}
			if nd := r.nodes[q]; nd.held[c] != 1 || len(nd.early) != 0 || nd.rec(c, 1) == nil {
				t.Fatalf("node %d holds records through %d from %d (early %v), want exactly 1", q, nd.held[c], c, nd.early)
			}
			if got := r.nodes[q].vc[c]; got != 1 {
				t.Fatalf("node %d vector time for %d = %d, want 1", q, c, got)
			}
			if r.nodes[q].PageValid(pagemem.PageID(c + 1)) {
				t.Fatalf("node %d did not invalidate node %d's page", q, c)
			}
		}
	}
}

// TestGossipConvergence: with the ring successor guaranteeing a strongly
// connected push graph, every record reaches every node, is applied once,
// and the total message count respects the k*N-per-record termination
// bound.
func TestGossipConvergence(t *testing.T) {
	const n = 8
	r := runGossipProgram(t, n, Spec{Protocol: "erc", Gossip: true, GossipSeed: 11})
	checkConverged(t, r)

	msgs, _ := r.net.KindStats(KindGossip)
	if msgs == 0 {
		t.Fatal("no gossip messages at all; dissemination used another channel")
	}
	if limit := int64(DefaultGossipFanout * n * n); msgs > limit {
		t.Fatalf("%d gossip messages for %d records exceeds the k*N bound %d", msgs, n, limit)
	}
	// ERC's broadcast must be fully replaced, not supplemented.
	if bc, _ := r.net.KindStats(KindEagerNotice); bc != 0 {
		t.Fatalf("%d eager-notice broadcasts alongside gossip", bc)
	}
}

// gossipFingerprint summarizes everything observable about a run: final
// simulated time, per-kind traffic, and every node's collected statistics.
func gossipFingerprint(r *rig) string {
	msgs, bytes := r.net.KindStats(KindGossip)
	return fmt.Sprintf("now=%d gossip=%d/%d st=%+v", r.k.Now(), msgs, bytes, r.st)
}

// TestGossipDeterminism: equal seeds reproduce a run byte for byte;
// a different seed still converges (via a different peer graph).
func TestGossipDeterminism(t *testing.T) {
	cfg := Spec{Protocol: "erc", Gossip: true, GossipSeed: 11}
	a := runGossipProgram(t, 8, cfg)
	b := runGossipProgram(t, 8, cfg)
	if fa, fb := gossipFingerprint(a), gossipFingerprint(b); fa != fb {
		t.Fatalf("same seed, different runs:\n1st: %s\n2nd: %s", fa, fb)
	}
	checkConverged(t, runGossipProgram(t, 8, Spec{Protocol: "erc", Gossip: true, GossipSeed: 12}))
}

// TestGossipQuiescesAtBarriers: a barrier release hands every node the
// records it was missing and a vector time covering them; gossip must drop
// its pending pushes instead of re-disseminating what the barrier already
// delivered. The round interval is pinned well past the barrier's
// completion, so a correct implementation sends no gossip messages at all.
func TestGossipQuiescesAtBarriers(t *testing.T) {
	const n = 8
	r := newRigCfg(n, Spec{Protocol: "erc", Gossip: true, GossipSeed: 11})
	for _, nd := range r.nodes {
		nd.gossip.interval = 10 * sim.Millisecond
	}
	for i := 0; i < n; i++ {
		addr := pagemem.Addr(i+1) * pagemem.PageSize
		node, a := i, addr
		acquireRelease(t, r, node, node, sim.Time(node)*10*sim.Microsecond,
			func() { r.write(node, a, float64(node)) })
	}
	r.k.At(200*sim.Microsecond, func() {
		for _, nd := range r.nodes {
			nd.Barrier(0, func() {})
		}
	})
	r.k.Run()

	checkConverged(t, r)
	if msgs, _ := r.net.KindStats(KindGossip); msgs != 0 {
		t.Fatalf("%d gossip messages re-disseminated records the barrier had already delivered", msgs)
	}
}
