package proto

import (
	"godsm/internal/event"
	"godsm/internal/lrc"
	"godsm/internal/netsim"
	"godsm/internal/pagemem"
	"godsm/internal/sim"
)

// lrcPrefetcher is the diff-based non-binding prefetch policy shared by the
// LRC and ERC backends: prefetch replies land diffs in the separate
// prefetch cache and are applied at the real access.
type lrcPrefetcher struct {
	n        *Node
	throttle int  // drop every throttle-th prefetch (0 = never)
	counter  int  // dynamic prefetch count for the throttle
	reliable bool // send prefetch traffic reliably
}

// dropPrefetch discards a prefetch after the cheap check, for the reason ev
// names (unnecessary or throttled). It returns the zero messages sent.
func (n *Node) dropPrefetch(ev event.Event) int {
	n.bus.Emit(ev)
	n.CPU.Service(n.C.PfCheck, sim.CatPrefetchOv)
	return 0
}

// pfInflight reports whether an earlier prefetch of p still has requests
// outstanding.
func (n *Node) pfInflight(p pagemem.PageID) bool {
	st, ok := n.pf[p]
	return ok && st.inflight > 0
}

// Prefetch issues a software-controlled non-binding prefetch for page p,
// as inserted by the application (Section 3 of the paper). The call is
// non-blocking: replies land in the prefetch diff cache and are applied at
// the real access. Unnecessary prefetches — page valid, fetch already in
// flight, or all diffs already cached — are dropped after a cheap check.
// Prefetch request and reply messages are unreliable; if they are lost the
// real access simply performs a normal (reliable) fetch.
//
// It returns the number of request messages issued (0 for a dropped
// prefetch), which the caller can use for pacing decisions.
func (pf *lrcPrefetcher) Prefetch(p pagemem.PageID) int {
	n := pf.n
	n.bus.Emit(event.PfCall(n.ID, int64(p)))

	// Section 5.1: optional throttling (used for RADIX) discards a
	// fraction of dynamic prefetches to relieve the network.
	if pf.throttle > 0 {
		pf.counter++
		if pf.counter%pf.throttle == 0 {
			return n.dropPrefetch(event.PfThrottle(n.ID, int64(p)))
		}
	}

	if n.PageValid(p) || n.fetches[p] != nil || n.pfInflight(p) {
		return n.dropPrefetch(event.PfUnnecessary(n.ID, int64(p)))
	}
	missing := n.missingDiffs(p)
	if len(missing) == 0 {
		// Invalid but fully cached already — nothing to request.
		return n.dropPrefetch(event.PfUnnecessary(n.ID, int64(p)))
	}

	st, ok := n.pf[p]
	if !ok {
		st = &pfState{requested: make(map[lrc.IntervalID]bool)}
		n.pf[p] = st
	}
	nodes, groups := groupByNode(missing)
	var msgs []*netsim.Message
	for _, node := range nodes {
		ids := groups[node]
		for _, id := range ids {
			st.requested[id] = true
		}
		msgs = append(msgs, &netsim.Message{
			Src:      netsim.NodeID(n.ID),
			Dst:      netsim.NodeID(node),
			Size:     n.C.HeaderBytes + n.C.ReqBytes + 8*len(ids),
			Reliable: pf.reliable,
			Kind:     KindPfReq,
			Payload:  &msgDiffReq{From: n.ID, Page: p, Wants: ids, Prefetch: true},
		})
	}
	st.inflight += len(msgs)
	n.bus.Emit(event.PfIssue(n.ID, int64(p), len(msgs)))
	// The paper charges ~140 µs of software overhead per prefetch that
	// generates remote messages; additional messages to further writers of
	// the same page cost one send each.
	cost := n.C.PfIssue + sim.Time(len(msgs)-1)*n.C.MsgSend
	done := n.CPU.Service(cost, sim.CatPrefetchOv)
	for _, m := range msgs {
		n.sendUnreliable(done, m, func() { n.bus.Emit(event.PfReqDrop(n.ID, int64(p))) })
	}
	return len(msgs)
}
