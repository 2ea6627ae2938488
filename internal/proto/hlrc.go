package proto

import (
	"godsm/internal/event"
	"godsm/internal/lrc"
	"godsm/internal/netsim"
	"godsm/internal/pagemem"
	"godsm/internal/sim"
)

// Home-based lazy release consistency (the "hlrc" backend). Every page has
// a static home node (page id mod N). Writers flush their diffs to the home
// eagerly when an interval closes, so the home's frame is always the most
// complete copy; a faulting node fetches the whole page from the home
// instead of collecting diffs from every writer. Consistency metadata
// (intervals, write notices, vector times) still flows lazily through the
// synchronization messages exactly as under LRC — only the data movement
// changes. Since diffs are applied at the home on arrival and never stored,
// there is no diff accumulation and no garbage collection.
//
// Ordering contract, two rules the engine checks instead of assuming:
//
//  1. A home moves whole: the release that moves a home is a cut, and the
//     old home ships its frame only once every interval at or below the cut
//     is in it (homemigrate.go). Every flush of one (writer, page) therefore
//     reaches the frame that counts in increasing sequence order — which
//     lets the home compress "intervals applied" into a per-page vector time
//     (applied), with max sequence equal to full coverage. Static homes
//     never move, and the rule is vacuous.
//  2. A copy is served past the requester's own writes. A page request
//     carries Own, the sequence of the requester's last flushed interval of
//     the page, and the home treats {From, Own} as one more needed interval:
//     a demand request parks until the flush lands, a prefetch request is
//     answered with no covers (hlrchome.go). Per-pair FIFO makes this free
//     for a demand request to a home that has not moved, but a prefetch
//     request is an unsequenced datagram that overtakes a retransmitted
//     flush.

// hlrcCoherence implements the home-based coherence policy.
type hlrcCoherence struct {
	n        *Node
	throttle pfThrottle // Section 5.1 prefetch throttling

	// pfCache holds the whole-page prefetch replies awaiting their real
	// access (hlrcpf.go).
	pfCache map[pagemem.PageID]*pfPage

	// Home assignment: the table replica plus the policy that moves it.
	// dyn enables the dynamic machinery (counters, transfers, the notice
	// filter); false keeps the engine byte-identical to fixed mod-N homes.
	// track enables per-page access counting for the barrier arrivals (off
	// when this instance is embedded in the adaptive backend, which counts
	// at its own layer).
	homes  *homeTable
	policy HomePolicy
	dyn    bool
	track  bool
	acc    *accSet

	// Home-side: applied[p][q] is the highest flushed interval sequence of
	// writer q applied to this node's frame of home page p.
	applied map[pagemem.PageID]lrc.VC

	// Home-side: demand requests waiting for flushes still in flight.
	parked map[pagemem.PageID][]*msgPageReq

	// Dynamic-policy state (nil map reads are safe, so these stay nil under
	// the static policy): pages whose home base has not been installed here
	// yet, and pages this node lost and still owes the base of.
	xin map[pagemem.PageID]*xferIn
	out map[pagemem.PageID]*xferOut
}

func (c *hlrcCoherence) home(p pagemem.PageID) int { return c.homes.home(p) }

// covered reports (at the home) whether interval id's writes to page p are
// already in the local frame. The home's own intervals are always covered:
// its writes go straight to its frame. So is sequence zero, the Own of a
// requester that never flushed the page.
func (c *hlrcCoherence) covered(p pagemem.PageID, id lrc.IntervalID) bool {
	if id.Node == c.n.ID || id.Seq == 0 {
		return true
	}
	ap := c.applied[p]
	return ap != nil && ap[id.Node] >= id.Seq
}

// AfterClose eagerly turns every page written during the interval into a
// diff and flushes it to the page's home. Pages homed here need no message:
// the local frame already holds the writes (covered() knows). Twins are
// dropped either way — under HLRC a diff never needs to be recreated.
func (c *hlrcCoherence) AfterClose(iv *lrc.Interval) {
	n := c.n
	var cost sim.Time
	for _, p := range iv.Pages {
		cost = c.flushPage(iv.ID, p, cost)
	}
	if cost > 0 {
		n.CPU.Service(cost, sim.CatDSM)
	}
}

// flushPage diffs one just-closed page and flushes it to its home. cost is
// the running CPU charge accumulated by the caller; sends drain it and the
// remainder is returned for the caller to charge.
func (c *hlrcCoherence) flushPage(id lrc.IntervalID, p pagemem.PageID, cost sim.Time) sim.Time {
	n := c.n
	ps := n.page(p)
	if !ps.twinned {
		n.pageInvariantf(p, "interval page %d lost its twin before the flush", p)
	}
	d := pagemem.MakeDiff(p, n.Store.Twin(p), n.Store.Frame(p))
	db := 0
	if d != nil {
		db = d.DataBytes()
	}
	n.bus.Emit(event.DiffMake(n.ID, int64(p), db))
	cost += n.C.DiffMake + sim.Time(n.C.DiffScanNs*float64(pagemem.PageSize))
	n.Store.DropTwin(p)
	ps.twinned = false
	ps.hasUndiffed = false
	ps.flushed = id.Seq
	if c.track {
		c.acc.cell(p).writes++
	}
	home := c.home(p)
	if home == n.ID {
		if st := c.xin[p]; st != nil && !st.fill {
			// Our base is in flight here: the install would clobber these
			// writes, so route them through the buffered-flush replay.
			st.buf = append(st.buf, &msgHomeFlush{From: n.ID, ID: id, Page: p, Diff: d})
		}
		return cost
	}
	if c.track {
		c.acc.cells[p].bytes += int64(db)
	}
	n.bus.Emit(event.HomeFlush(n.ID, home, int64(p), db))
	n.post(cost, n.msg(home, KindHomeFlush, &msgHomeFlush{From: n.ID, ID: id, Page: p, Diff: d}))
	return 0
}

// Handle dispatches the home-based coherence messages.
func (c *hlrcCoherence) Handle(m *netsim.Message) bool {
	switch pl := m.Payload.(type) {
	case *msgHomeFlush:
		c.handleHomeFlush(pl)
	case *msgPageReq:
		c.handlePageReq(pl)
	case *msgPageReply:
		c.handlePageReply(pl)
	case *msgHomeXfer:
		c.handleHomeXfer(pl)
	default:
		return false
	}
	return true
}
