package proto

import (
	"godsm/internal/event"
	"godsm/internal/lrc"
	"godsm/internal/netsim"
	"godsm/internal/pagemem"
	"godsm/internal/sim"
)

// The prefetch chassis: what every backend's non-binding prefetch
// (Coherence.Prefetch; Section 3 of the paper) shares. A prefetch is admitted
// or dropped after a cheap check, the backend decides what to ask of whom,
// and the requests go out as datagrams: if one is lost, or its reply is, the
// real access simply performs a normal, reliable fetch.

// pfThrottle discards every every-th dynamic prefetch to relieve the
// network (Section 5.1, used for RADIX); zero never does. Each engine owns
// one, so the adaptive backend's two engines count separately.
type pfThrottle struct{ every, count int }

// dropPrefetch discards a prefetch after the cheap check, for the reason ev
// names (unnecessary or throttled). It returns the zero messages sent.
func (n *Node) dropPrefetch(ev event.Event) int {
	n.bus.Emit(ev)
	n.CPU.Service(n.C.PfCheck, sim.CatPrefetchOv)
	return 0
}

// admitPrefetch is the preamble of every Prefetch: count the call, apply
// the engine's throttle, and drop the prefetch as unnecessary when the page
// is valid, already being fetched or prefetched, or resolves locally (the
// engine's own reason). It reports whether the prefetch goes ahead.
func (n *Node) admitPrefetch(p pagemem.PageID, th *pfThrottle, local bool) bool {
	n.bus.Emit(event.PfCall(n.ID, int64(p)))
	if th.every > 0 {
		th.count++
		if th.count%th.every == 0 {
			n.dropPrefetch(event.PfThrottle(n.ID, int64(p)))
			return false
		}
	}
	if st := n.pf[p]; local || n.PageValid(p) || n.fetches[p] != nil || st != nil && st.inflight > 0 {
		n.dropPrefetch(event.PfUnnecessary(n.ID, int64(p)))
		return false
	}
	return true
}

// issuePrefetch sends an admitted prefetch's request messages, which ask
// for the intervals ids, and returns how many there were (callers pace on
// it). The paper charges ~140 µs of software overhead per prefetch that
// generates remote messages; additional messages to further writers of the
// same page cost one send each.
func (n *Node) issuePrefetch(p pagemem.PageID, ids []lrc.IntervalID, msgs ...*netsim.Message) int {
	st, ok := n.pf[p]
	if !ok {
		st = &pfState{}
		n.pf[p] = st
	}
	for _, id := range ids {
		st.requested.add(id)
	}
	st.inflight += len(msgs)
	n.bus.Emit(event.PfIssue(n.ID, int64(p), len(msgs)))
	cost := n.C.PfIssue + sim.Time(len(msgs)-1)*n.C.MsgSend
	done := n.CPU.Service(cost, sim.CatPrefetchOv)
	for _, m := range msgs {
		n.sendAfter(done, m)
	}
	return len(msgs)
}
