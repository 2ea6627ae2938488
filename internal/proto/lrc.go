package proto

import (
	"slices"

	"godsm/internal/event"
	"godsm/internal/lrc"
	"godsm/internal/netsim"
	"godsm/internal/pagemem"
	"godsm/internal/sim"
)

// lrcCoherence is the TreadMarks-style coherence policy: page faults fetch
// the missing diffs from their creators (request combining, causal apply),
// and diffs are created lazily on first demand. With eager set the same
// engine runs as eager release consistency: every interval close broadcasts
// its write notices to all nodes (Munin-style), while data still moves as
// lazily-fetched diffs.
type lrcCoherence struct {
	n        *Node
	eager    bool       // broadcast write notices at every interval close (ERC)
	throttle pfThrottle // Section 5.1 prefetch throttling
}

// Fault resolves an access to an invalid page by fetching the missing diffs
// from their creators; onValid runs (in kernel context) once the page is
// valid, and the caller parks the faulting thread until then.
func (c *lrcCoherence) Fault(p pagemem.PageID, onValid func()) {
	n := c.n
	missing := n.missingDiffs(p)
	outcome := n.takePf(p, missing)

	if len(missing) == 0 {
		// Everything needed is already local (prefetch diff cache): apply
		// without any network traffic. This is the paper's "pf-hit".
		if outcome != event.OutcomeNoPf {
			outcome = event.OutcomePfHit
		}
		n.bus.Emit(event.FaultLocal(n.ID, int64(p), outcome))
		cost := n.C.FaultEntry + n.install(p, nil, -1, n.page(p).pending)
		done := n.CPU.Service(cost, sim.CatDSM)
		n.K.At(done, onValid)
		return
	}

	n.bus.Emit(event.FaultRemote(n.ID, int64(p), outcome, len(missing)))
	// The fault has listed the missing diffs already: ask for them here
	// rather than have the first tryComplete scan the page's diffs again.
	f := n.newFetch(p, onValid)
	n.openFetch(f)
	n.askDiffs(f, n.C.FaultEntry, missing)
}

// diffReqs builds one diff request for page p per distinct creator of the
// wanted intervals: a demand request, or a prefetch datagram. The list and
// want's regrouping are scratch, the caller's until its next diffReqs. The
// page's diff list is sized for the replies here, so that storing them does
// not grow it diff by diff.
func (n *Node) diffReqs(p pagemem.PageID, want []lrc.IntervalID, prefetch bool) []*netsim.Message {
	kind := KindDiffReq
	if prefetch {
		kind = KindPfReq
	}
	ps := n.page(p)
	ps.diffs = slices.Grow(ps.diffs, len(want))
	msgs := n.msgScratch[:0]
	ids := groupByNode(n.diffScratch[:0], want)
	n.diffScratch = ids
	for len(ids) > 0 {
		run := 1
		for run < len(ids) && ids[run].Node == ids[0].Node {
			run++
		}
		msgs = append(msgs, msg(n, ids[0].Node, kind,
			msgDiffReq{From: n.ID, Page: p, Wants: ids[:run], Prefetch: prefetch}))
		ids = ids[run:]
	}
	n.msgScratch = msgs
	return msgs
}

// Prefetch issues a non-binding prefetch for page p: the missing diffs are
// requested from their creators, land in the separate prefetch diff cache,
// and are applied at the real access. A page whose pending diffs are all
// cached already has nothing to request.
func (c *lrcCoherence) Prefetch(p pagemem.PageID) int {
	n := c.n
	if !n.admitPrefetch(p, &c.throttle, false) {
		return 0
	}
	missing := n.missingDiffs(p)
	if len(missing) == 0 {
		return n.dropPrefetch(event.PfUnnecessary(n.ID, int64(p)))
	}
	return n.issuePrefetch(p, missing, n.diffReqs(p, missing, true)...)
}

// groupByNode appends ids to flat regrouped by creator: each creator's ids
// in a run, in their order in ids, and the runs in the order of each
// creator's first appearance, so that callers iterate deterministically.
// A page's writers are few: finding an id's creator among those seen is a scan.
func groupByNode(flat, ids []lrc.IntervalID) []lrc.IntervalID {
	for i, head := range ids {
		if slices.ContainsFunc(ids[:i], func(prev lrc.IntervalID) bool { return prev.Node == head.Node }) {
			continue // not its creator's first id
		}
		for _, id := range ids[i:] {
			if id.Node == head.Node {
				flat = append(flat, id)
			}
		}
	}
	return flat
}

// handleDiffReq services a demand or prefetch diff request: it lazily
// creates the diff for this node's undiffed write notice if that notice is
// requested, then replies with every requested diff. The items are listed
// in the node's scratch; the reply takes its own copy (msgDiffReply.own).
func (c *lrcCoherence) handleDiffReq(req *msgDiffReq) {
	n := c.n
	ps := n.page(req.Page)
	var cost sim.Time
	items := n.itemScratch[:0]
	for _, id := range req.Wants {
		if id.Node != n.ID {
			n.pageInvariantf(req.Page, "node %d asked for diff created by node %d", n.ID, id.Node)
		}
		if ps.hasUndiffed && ps.undiffed == id {
			cost += n.makeOwnDiff(req.Page)
			if req.Prefetch {
				// The paper: prefetch requests are more expensive to
				// service since they split the interval on a dirty page.
				cost += n.C.PfSplit
			}
		}
		d, ok := n.storedDiff(id, req.Page)
		if !ok {
			n.pageInvariantf(req.Page, "node %d has no diff for %v page %d", n.ID, id, req.Page)
		}
		items = append(items, diffItem{ID: id, Diff: d})
	}
	kind := KindDiffReply
	if req.Prefetch {
		kind = KindPfReply
	}
	n.itemScratch = items
	n.post(cost, msg(n, req.From, kind, msgDiffReply{Page: req.Page, Items: items, Prefetch: req.Prefetch}))
}

// handleDiffReply stores arriving diffs and advances the in-flight fetch of
// their page, demand or prefetch reply alike: a diff that lands through a
// prefetch is as good as the one asked for. Only the diff side's asks are
// answered here; a stale prefetch reply naming a base-side interval leaves
// the base's ask outstanding.
func (c *lrcCoherence) handleDiffReply(rep *msgDiffReply) {
	n := c.n
	n.bankDiffs(rep)
	f := n.fetches[rep.Page]
	if f == nil {
		return
	}
	for _, it := range rep.Items {
		if !n.coh.onBase(f, it.ID) {
			f.needed.remove(it.ID)
		}
	}
	n.tryComplete(rep.Page, 0, 0)
}

// AfterClose publishes the just-closed interval's write notices: to the
// gossip engine when one is configured (which replaces ERC's O(N)
// broadcast and pre-spreads notices under plain LRC), else by broadcast
// when running as eager release consistency. The lazy default does nothing.
func (c *lrcCoherence) AfterClose(iv *lrc.Interval) {
	if c.n.gossip != nil {
		c.n.gossip.Publish(iv)
		return
	}
	if c.eager {
		c.broadcastNotice(iv)
	}
}

// broadcastNotice pushes a just-closed interval's write notices to every
// other node (eager release consistency).
func (c *lrcCoherence) broadcastNotice(iv *lrc.Interval) {
	n := c.n
	for q := 0; q < n.N; q++ {
		if q != n.ID {
			n.post(0, msg(n, q, KindEagerNotice, msgEagerNotice{Iv: iv}))
		}
	}
}

// handleEagerNotice offers an eagerly pushed write notice to the node's
// out-of-band intake (intervals.go), which takes it once it is causally
// closed: per-pair FIFO orders one creator's notices, but not the
// third-party intervals the notice was created after.
func (c *lrcCoherence) handleEagerNotice(m *msgEagerNotice) {
	n := c.n
	n.offer(m.Iv)
	n.CPU.Service(n.drain(), sim.CatDSM)
}

// Every interval of a diff-based fetch is on the diff side.
func (c *lrcCoherence) onBase(*fetch, lrc.IntervalID) bool { return false }

// The diff-based engine adapts nothing at barrier episodes.
func (c *lrcCoherence) episodeAcc() []PageAcc            { return nil }
func (c *lrcCoherence) decideMoves([]PageAcc) []HomeMove { return nil }
func (c *lrcCoherence) applyMoves(moves []HomeMove) {
	if len(moves) > 0 {
		c.n.invariantf("node %d received %d home moves but runs a fixed-home backend", c.n.ID, len(moves))
	}
}

// Handle dispatches the diff-fetch and eager-notice messages.
func (c *lrcCoherence) Handle(m *netsim.Message) bool {
	switch pl := m.Payload.(type) {
	case *msgDiffReq:
		c.handleDiffReq(pl)
	case *msgDiffReply:
		c.handleDiffReply(pl)
	case *msgEagerNotice:
		c.handleEagerNotice(pl)
	default:
		return false
	}
	return true
}
