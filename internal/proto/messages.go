package proto

import (
	"godsm/internal/event"
	"godsm/internal/lrc"
	"godsm/internal/netsim"
	"godsm/internal/pagemem"
)

// The wire module: the only place that knows what a protocol message is. The
// paper's Tables 1 and 2 report messages and KBytes per configuration, so a
// message's kind and size are measured quantities; they are declared here
// once — the kind table, every payload type with its wire size, the one
// constructor (Node.msg) — and dsmvet's chargecost analyzer keeps message
// literals and the wire header size out of every other file.

// Message kinds for traffic statistics.
const (
	KindDiffReq netsim.Kind = iota
	KindDiffReply
	KindPfReq
	KindPfReply
	KindLockAcq
	KindLockForward
	KindLockGrant
	KindBarArrive
	KindBarRelease
	KindGCDone
	KindGCFlush
	KindLockReturn
	KindLockRetry
	KindEagerNotice
	KindAck // pure transport acknowledgment (no protocol payload)
	KindHomeFlush
	KindPageReq
	KindPageReply
	KindGossip   // batched write-notice gossip round (gossip.go)
	KindHomeXfer // base page transfer to a migrated home (homemigrate.go)
	numKinds
)

// netsim counts traffic in [MaxKinds] arrays; one kind too many fails here
// at compile time instead of indexing past them at run time.
var _ [netsim.MaxKinds - numKinds]struct{}

// owner names the subsystem Node.dispatch hands a kind to; the zero value
// marks a kind missing from the table.
type owner uint8

const (
	ownTransport owner = iota + 1 // consumed by xpReceive, never dispatched
	ownSync
	ownCoherence
	ownGC
	ownGossip
)

// kindInfo is one row of the wire-format table (DESIGN.md §14).
type kindInfo struct {
	name  string
	owner owner
	// payloads are the types the kind carries, as typed nil pointers: diffs
	// or whole pages for the prefetch kinds, depending on the backend.
	payloads []payload
	// datagram kinds are never sequenced or retransmitted by the transport
	// and may be dropped by a congested network: the protocol tolerates the
	// loss, and xmit emits drop (naming the payload's page) when it happens.
	datagram bool
	drop     func(node int, page int64) event.Event
}

var kinds = [numKinds]kindInfo{
	KindDiffReq:     {name: "diff-req", owner: ownCoherence, payloads: []payload{(*msgDiffReq)(nil)}},
	KindDiffReply:   {name: "diff-reply", owner: ownCoherence, payloads: []payload{(*msgDiffReply)(nil)}},
	KindPfReq:       {name: "pf-req", owner: ownCoherence, payloads: []payload{(*msgDiffReq)(nil), (*msgPageReq)(nil)}, datagram: true, drop: event.PfReqDrop},
	KindPfReply:     {name: "pf-reply", owner: ownCoherence, payloads: []payload{(*msgDiffReply)(nil), (*msgPageReply)(nil)}, datagram: true, drop: event.PfReplyDrop},
	KindLockAcq:     {name: "lock-acq", owner: ownSync, payloads: []payload{(*msgLockAcq)(nil)}},
	KindLockForward: {name: "lock-fwd", owner: ownSync, payloads: []payload{(*msgLockAcq)(nil)}},
	KindLockGrant:   {name: "lock-grant", owner: ownSync, payloads: []payload{(*msgLockGrant)(nil)}},
	KindBarArrive:   {name: "bar-arrive", owner: ownSync, payloads: []payload{(*msgBarArrive)(nil)}},
	KindBarRelease:  {name: "bar-release", owner: ownSync, payloads: []payload{(*msgBarRelease)(nil)}},
	KindGCDone:      {name: "gc-done", owner: ownGC, payloads: []payload{(*msgGCDone)(nil)}},
	KindGCFlush:     {name: "gc-flush", owner: ownGC, payloads: []payload{(*msgGCFlush)(nil)}},
	KindLockReturn:  {name: "lock-return", owner: ownSync, payloads: []payload{(*msgLockGrant)(nil)}},
	KindLockRetry:   {name: "lock-retry", owner: ownSync, payloads: []payload{(*msgLockAcq)(nil)}},
	KindEagerNotice: {name: "eager-notice", owner: ownCoherence, payloads: []payload{(*msgEagerNotice)(nil)}},
	KindAck:         {name: "xp-ack", owner: ownTransport, datagram: true},
	KindHomeFlush:   {name: "home-flush", owner: ownCoherence, payloads: []payload{(*msgHomeFlush)(nil)}},
	KindPageReq:     {name: "page-req", owner: ownCoherence, payloads: []payload{(*msgPageReq)(nil)}},
	KindPageReply:   {name: "page-reply", owner: ownCoherence, payloads: []payload{(*msgPageReply)(nil)}},
	KindGossip:      {name: "gossip", owner: ownGossip, payloads: []payload{(*msgGossip)(nil)}},
	KindHomeXfer:    {name: "home-xfer", owner: ownCoherence, payloads: []payload{(*msgHomeXfer)(nil)}},
}

// KindName returns a human-readable label for a message kind.
func KindName(k netsim.Kind) string {
	if k >= numKinds {
		configInvariantf("KindName: unknown message kind %d", int(k))
	}
	return kinds[k].name
}

// payload is a protocol message body. wireSize is its estimated on-wire
// size in bytes, excluding the per-message header msg adds.
type payload interface {
	wireSize(c *Costs, nprocs int) int
}

// pagePayload is a payload of the datagram kinds, whose drop events name
// the page the lost prefetch was for.
type pagePayload interface {
	page() pagemem.PageID
}

// msg builds the wire message carrying pl from this node to dst; it is the
// single netsim.Message allocation site for protocol traffic. Everything but
// a datagram kind is marked reliable for the network — and so are those
// under Spec.PfReliable.
func (n *Node) msg(dst int, kind netsim.Kind, pl payload) *netsim.Message {
	return &netsim.Message{
		Src: netsim.NodeID(n.ID), Dst: netsim.NodeID(dst),
		Size:     n.C.HeaderBytes + pl.wireSize(n.C, n.N),
		Reliable: !kinds[kind].datagram || n.pfReliable,
		Kind:     kind, Payload: pl,
	}
}

// ivsWireSize estimates the on-wire size of a batch of interval records.
func (c *Costs) ivsWireSize(ivs []*lrc.Interval, nprocs int) int {
	n := 0
	for _, iv := range ivs {
		n += 8 + 4*nprocs + c.PerNoticeByt*len(iv.Pages)
	}
	return n
}

// msgDiffReq asks the creator of some intervals for their diffs of Page.
// Prefetch requests use the same shape but are unreliable and tagged.
type msgDiffReq struct {
	From     int
	Page     pagemem.PageID
	Wants    []lrc.IntervalID
	Prefetch bool
}

// An interval id costs 8 bytes here but 12 in a page request or reply: an
// inconsistency of the cost model that every golden pins, so it is recorded
// (DESIGN.md §14) rather than fixed.
func (m *msgDiffReq) wireSize(c *Costs, _ int) int { return c.ReqBytes + 8*len(m.Wants) }
func (m *msgDiffReq) page() pagemem.PageID         { return m.Page }

// diffItem is one diff keyed by the interval that produced it.
type diffItem struct {
	ID   lrc.IntervalID
	Diff *pagemem.Diff // nil when the interval turned out to have no changes
}

// msgDiffReply returns the requested diffs.
type msgDiffReply struct {
	Page     pagemem.PageID
	Items    []diffItem
	Prefetch bool
}

func (m *msgDiffReply) wireSize(*Costs, int) int {
	n := 0
	for _, it := range m.Items {
		n += 12 + it.Diff.WireSize()
	}
	return n
}
func (m *msgDiffReply) page() pagemem.PageID { return m.Page }

// msgLockAcq is an acquire request, sent to the lock's manager (and
// forwarded by the manager to the previous requester).
type msgLockAcq struct {
	Lock      int
	Requester int
	VC        lrc.VC // requester's vector time at the request
	Seq       int    // requester's per-lock acquire sequence number
	PrevSeq   int    // set on forward: the predecessor tenure this chains after
}

func (m *msgLockAcq) wireSize(c *Costs, nprocs int) int { return c.ReqBytes + 4*nprocs }

// msgLockGrant transfers lock ownership, piggybacking the write notices the
// requester has not yet seen. A token returned to its manager
// (KindLockReturn) has the same shape.
type msgLockGrant struct {
	Lock int
	VC   lrc.VC // granter's vector time
	Ivs  []*lrc.Interval
}

func (m *msgLockGrant) wireSize(c *Costs, nprocs int) int {
	return 4*nprocs + c.ivsWireSize(m.Ivs, nprocs)
}

// msgEagerNotice broadcasts a just-closed interval's write notices at
// release time (eager release consistency mode).
type msgEagerNotice struct {
	Iv *lrc.Interval
}

func (m *msgEagerNotice) wireSize(c *Costs, nprocs int) int {
	return 8 + 4*nprocs + c.PerNoticeByt*len(m.Iv.Pages)
}

// msgGossip carries one gossip round's batch of hot interval records
// (gossip.go). The batch is sorted by (Node, Seq) and shared read-only
// between the round's peers.
type msgGossip struct {
	From int
	Ivs  []*lrc.Interval
}

func (m *msgGossip) wireSize(c *Costs, nprocs int) int { return 8 + c.ivsWireSize(m.Ivs, nprocs) }

// msgBarArrive announces arrival at a barrier, carrying the arriver's new
// intervals since its previous barrier. An interior node of the combining
// tree (barriertree.go) sends the combined arrival of its subtree, which
// additionally carries the element-wise minimum of the subtree's arrival
// VCs (for release filtering) and the combined GC verdict; both stay zero,
// and off the wire, in a leaf's arrival — the only kind the central barrier
// has.
type msgBarArrive struct {
	Barrier   int
	From      int
	VC        lrc.VC
	Ivs       []*lrc.Interval
	DiffBytes int64  // local diff-storage size, for the GC trigger
	MinVC     lrc.VC // interior only: min over the subtree's arrival VCs
	GCWant    bool   // interior only: some subtree member tripped the GC trigger

	// Acc carries the arriver's (or, on the tree, the subtree's) per-page
	// access counters when a dynamic home policy or the adaptive backend
	// runs; nil otherwise, adding nothing to the wire size.
	Acc []PageAcc
}

func (m *msgBarArrive) wireSize(c *Costs, nprocs int) int {
	n := 4*nprocs + c.ivsWireSize(m.Ivs, nprocs) + pageAccWire*len(m.Acc)
	if m.MinVC != nil {
		n += 8 + 4*nprocs // the second vector and the verdict word
	}
	return n
}

// msgBarRelease releases a barrier, carrying the merged vector time and the
// intervals the receiver lacks.
type msgBarRelease struct {
	Barrier int
	VC      lrc.VC
	Ivs     []*lrc.Interval
	GC      bool // a global diff garbage collection runs before resuming

	// Moves carries the root's home-move / mode-switch decisions for this
	// episode; every node applies them before resuming its threads, which
	// keeps the home-table replicas in lockstep. Nil when no dynamic policy
	// runs (zero wire bytes).
	Moves []HomeMove
}

func (m *msgBarRelease) wireSize(c *Costs, nprocs int) int {
	return 4*nprocs + c.ivsWireSize(m.Ivs, nprocs) + homeMoveWire*len(m.Moves)
}

// msgGCDone tells the manager this node has validated all its pages.
type msgGCDone struct{ From int }

func (*msgGCDone) wireSize(*Costs, int) int { return 0 }

// msgGCFlush tells every node to discard collected state and release the
// barrier waiters.
type msgGCFlush struct{}

func (*msgGCFlush) wireSize(*Costs, int) int { return 0 }

// msgHomeFlush carries one interval's diff of one page to the page's home.
type msgHomeFlush struct {
	From int
	ID   lrc.IntervalID
	Page pagemem.PageID
	Diff *pagemem.Diff // nil when the twin comparison found no changes
}

func (m *msgHomeFlush) wireSize(*Costs, int) int { return 20 + m.Diff.WireSize() }

// msgPageReq asks the home for a copy of Page covering the Need intervals
// and the requester's own flushed writes through sequence Own (one of the
// header words ReqBytes already counts). Prefetch requests use the same
// shape, served immediately with whatever the home currently covers.
type msgPageReq struct {
	From     int
	Page     pagemem.PageID
	Own      int32
	Need     []lrc.IntervalID
	Prefetch bool
}

func (m *msgPageReq) wireSize(c *Costs, _ int) int { return c.ReqBytes + 12*len(m.Need) }
func (m *msgPageReq) page() pagemem.PageID         { return m.Page }

// msgPageReply returns a whole-page snapshot and the intervals it covers.
type msgPageReply struct {
	Page     pagemem.PageID
	Data     []byte
	Covers   []lrc.IntervalID
	Prefetch bool
}

func (m *msgPageReply) wireSize(*Costs, int) int {
	return pagemem.PageSize + 12*len(m.Covers)
}
func (m *msgPageReply) page() pagemem.PageID { return m.Page }

// msgHomeXfer ships a demoted home's base copy of a page to the new home.
type msgHomeXfer struct {
	From    int
	Page    pagemem.PageID
	Data    []byte
	Applied lrc.VC // per-writer flushed-interval coverage of Data
}

func (m *msgHomeXfer) wireSize(_ *Costs, nprocs int) int { return pagemem.PageSize + 4*nprocs + 8 }
