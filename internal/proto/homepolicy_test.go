package proto

import (
	"testing"

	"godsm/internal/pagemem"
)

// Home-policy white-box tests: the page→home table's mod-N mapping at
// awkward cluster sizes, the access aggregation, and the per-policy Decide
// rules, plus end-to-end flush/fetch on non-power-of-two clusters.

// acc is a shorthand PageAcc constructor for Decide-rule tests.
func acc(page pagemem.PageID, node, writes, faults int, bytes int64) PageAcc {
	return PageAcc{Page: page, Node: int32(node),
		Writes: int32(writes), Faults: int32(faults), Bytes: bytes}
}

// The default mapping must be page mod N for every page — including page 0,
// the wrap-around pages right at multiples of N, and pages far beyond any
// allocation — and an override must displace exactly its own page.
func TestHomeTableNonPowerOfTwo(t *testing.T) {
	for _, n := range []int{2, 3, 5, 7, 8} {
		tbl := newHomeTable(n)
		pages := []pagemem.PageID{0, 1, pagemem.PageID(n - 1), pagemem.PageID(n),
			pagemem.PageID(2*n + 1), 1<<20 + 3}
		for _, p := range pages {
			if got, want := tbl.home(p), int(p)%n; got != want {
				t.Errorf("n=%d: home(%d) = %d, want %d", n, p, got, want)
			}
		}
		tbl.overrides[pagemem.PageID(n)] = int32(n - 1)
		if got := tbl.home(pagemem.PageID(n)); got != n-1 {
			t.Errorf("n=%d: override ignored, home = %d", n, got)
		}
		if got := tbl.home(pagemem.PageID(2 * n)); got != 0 {
			t.Errorf("n=%d: override leaked to page %d (home %d)", n, 2*n, got)
		}
	}
}

// aggregateAcc must merge repeated records for the same page/node and sort
// the totals by page id.
func TestAggregateAccMergesAndSorts(t *testing.T) {
	agg := aggregateAcc(3, []PageAcc{
		acc(9, 2, 1, 0, 100),
		acc(4, 0, 0, 2, 50),
		acc(9, 2, 1, 3, 20),
		acc(9, 1, 0, 1, 0),
	})
	if len(agg) != 2 || agg[0].page != 4 || agg[1].page != 9 {
		t.Fatalf("aggregate pages = %+v, want [4 9]", agg)
	}
	w, f := agg[1].total()
	if b := agg[1].bytes; w != 2 || f != 4 || b != 120 {
		t.Fatalf("page 9 totals = writes %d faults %d bytes %d, want 2/4/120", w, f, b)
	}
	wc, sole := agg[1].writers()
	if wc != 1 || sole != 2 {
		t.Fatalf("page 9 writers = %d (sole %d), want 1 (sole 2)", wc, sole)
	}
	if agg[0].busy || agg[1].busy {
		t.Fatalf("busy pages = %v/%v with no node reporting one", agg[0].busy, agg[1].busy)
	}
}

func TestNewHomePolicyNames(t *testing.T) {
	for _, name := range append([]string{""}, HomePolicies()...) {
		pol, err := newHomePolicy(name)
		if err != nil {
			t.Fatalf("newHomePolicy(%q): %v", name, err)
		}
		if name != "" && pol.Name() != name {
			t.Errorf("policy %q reports name %q", name, pol.Name())
		}
		if name == "" && pol.Name() != "static" {
			t.Errorf("empty policy name resolved to %q, want static", pol.Name())
		}
	}
	if _, err := newHomePolicy("bogus"); err == nil {
		t.Fatal("newHomePolicy accepted an unknown name")
	}
	if staticPol, _ := newHomePolicy("static"); staticPol.Dynamic() {
		t.Fatal("static policy claims to be dynamic")
	}
}

// First-touch claims a page once, for the node with the highest score
// (writes double), ties to the lowest node; a claimed page never moves again.
func TestFirstTouchDecide(t *testing.T) {
	tbl := newHomeTable(4)
	pol, _ := newHomePolicy("firsttouch")

	// Node 2's one write (score 2) beats node 1's one fault (score 1).
	moves := pol.Decide(tbl, aggregateAcc(4, []PageAcc{
		acc(7, 1, 0, 1, 0),
		acc(7, 2, 1, 0, 10),
	}))
	if len(moves) != 1 || moves[0].Page != 7 || moves[0].Home != 2 {
		t.Fatalf("moves = %+v, want page 7 -> node 2", moves)
	}
	tbl.overrides[7] = 2

	// Claimed: even a dominant new writer cannot move it.
	moves = pol.Decide(tbl, aggregateAcc(4, []PageAcc{
		acc(7, 3, 9, 9, 0),
	}))
	if len(moves) != 0 {
		t.Fatalf("claimed page moved again: %+v", moves)
	}

	// Tie on score goes to the lowest node id.
	moves = pol.Decide(tbl, aggregateAcc(4, []PageAcc{
		acc(8, 3, 1, 0, 0),
		acc(8, 1, 1, 0, 0),
	}))
	if len(moves) != 1 || moves[0].Home != 1 {
		t.Fatalf("tie moves = %+v, want page 8 -> node 1", moves)
	}
}

// Migrate needs a challenger with more than twice the current home's score
// and at least migrateMinScore, at most one move per page every migrateHold
// episodes, and none while the page's previous transfer is still open.
func TestMigrateDecide(t *testing.T) {
	tbl := newHomeTable(4)
	pol, _ := newHomePolicy("migrate")

	// Page 5 is homed at node 1 (5 mod 4). Node 3: 2 writes + 1 fault = 5,
	// home: 1 write = 2. 5 > 2*2 -> move.
	ep1 := []PageAcc{
		acc(5, 1, 1, 0, 0),
		acc(5, 3, 2, 1, 0),
	}
	moves := pol.Decide(tbl, aggregateAcc(4, ep1))
	if len(moves) != 1 || moves[0].Page != 5 || moves[0].Home != 3 {
		t.Fatalf("moves = %+v, want page 5 -> node 3", moves)
	}
	tbl.overrides[5] = 3

	// Hysteresis: the same dominance the very next episode is held.
	if moves = pol.Decide(tbl, aggregateAcc(4, []PageAcc{
		acc(5, 3, 0, 0, 0),
		acc(5, 0, 3, 0, 0),
	})); len(moves) != 0 {
		t.Fatalf("page moved again within the hold window: %+v", moves)
	}

	// After the hold expires a page whose transfer some node still has open
	// (Busy) stays where it is, however dominant the challenger.
	if moves = pol.Decide(tbl, aggregateAcc(4, []PageAcc{
		acc(5, 0, 3, 0, 0),
		{Page: 5, Node: 3, Busy: true},
	})); len(moves) != 0 {
		t.Fatalf("busy page moved: %+v", moves)
	}

	// Once nobody reports it busy the dominant node takes it.
	if moves = pol.Decide(tbl, aggregateAcc(4, []PageAcc{
		acc(5, 3, 0, 0, 0),
		acc(5, 0, 3, 0, 0),
	})); len(moves) != 1 || moves[0].Home != 0 {
		t.Fatalf("post-hold moves = %+v, want page 5 -> node 0", moves)
	}
	tbl.overrides[5] = 0

	// Mere improvement without 2x dominance stays put: 3 vs home's 2.
	if moves = pol.Decide(tbl, aggregateAcc(4, []PageAcc{
		acc(6, 2, 1, 0, 0),
		acc(6, 1, 1, 1, 0),
	})); len(moves) != 0 {
		t.Fatalf("non-dominant challenger moved the page: %+v", moves)
	}

	// A dominant but tiny score (1 fault vs idle home) is below the floor.
	if moves = pol.Decide(tbl, aggregateAcc(4, []PageAcc{
		acc(9, 0, 0, 1, 0),
	})); len(moves) != 0 {
		t.Fatalf("below-floor score moved the page: %+v", moves)
	}
}

// End to end on non-power-of-two clusters: the write must flush to the
// mod-N home and every other node must fetch the page from there.
func TestHLRCNonPowerOfTwoProcs(t *testing.T) {
	for _, n := range []int{3, 5, 7} {
		r := hlrcRig(n)

		// Every node's replica agrees on the mod-N map.
		for i, nd := range r.nodes {
			c := nd.coh.(*hlrcCoherence)
			for p := pagemem.PageID(0); p < pagemem.PageID(3*n); p++ {
				if got, want := c.home(p), int(p)%n; got != want {
					t.Fatalf("n=%d node %d: home(%d) = %d, want %d", n, i, p, got, want)
				}
			}
		}

		// Node 0 writes a page homed at the last node (wrap-around id).
		p := pagemem.PageID(2*n - 1)
		a := p.Base()
		r.k.At(0, func() { r.write(0, a, 9.5) })
		r.k.Run()
		r.barrierAll(0)

		flushes, _ := r.net.KindStats(KindHomeFlush)
		if flushes == 0 {
			t.Fatalf("n=%d: no home flush for page %d", n, p)
		}
		for i := 1; i < n; i++ {
			i := i
			if !r.nodes[i].PageValid(p) {
				done := false
				r.k.At(r.k.Now(), func() { r.nodes[i].Fault(p, func() { done = true }) })
				r.k.Run()
				if !done {
					t.Fatalf("n=%d node %d: fault on page %d never completed", n, i, p)
				}
			}
			if got := r.read(i, a); got != 9.5 {
				t.Fatalf("n=%d node %d: read %v, want 9.5", n, i, got)
			}
		}
		// The home itself resolved without page-request traffic.
		home := int(p) % n
		if got := r.read(home, a); got != 9.5 {
			t.Fatalf("n=%d: home read %v, want 9.5", n, got)
		}
	}
}
