package proto

import (
	"godsm/internal/netsim"
	"godsm/internal/sim"
)

// Costs is the CPU cost model for protocol operations, calibrated so that
// an uncontended remote page miss lands in the several-hundred-microsecond
// range of the paper's 133 MHz RS/6000 + ATM platform. All values are
// virtual nanoseconds; per-byte values multiply byte counts.
type Costs struct {
	MsgSend sim.Time // per message sent (protocol + UDP stack)
	MsgRecv sim.Time // per message received
	MTSig   sim.Time // extra per arrival when multithreading (async signal)

	FaultEntry sim.Time // entering the fault handler, lookup, bookkeeping
	TwinMake   sim.Time // copying a page to create its twin
	DiffScanNs float64  // per byte compared when creating a diff
	DiffMake   sim.Time // fixed part of diff creation
	DiffApply  sim.Time // fixed part of applying one diff
	ApplyNs    float64  // per modified byte applied
	NoticeProc sim.Time // per write notice processed at intake
	IntervalOp sim.Time // closing/creating an interval record

	LockMgr    sim.Time // manager handling of an acquire request
	GrantMake  sim.Time // building a grant (plus notice bytes)
	BarrierMgr sim.Time // manager work per barrier arrival

	PfIssue sim.Time // per prefetch request message issued (paper: ~140 µs)
	PfCheck sim.Time // dropped (unnecessary) prefetch check
	PfSplit sim.Time // extra server work when a prefetch hits a dirty page

	CtxSwitch sim.Time // thread context switch (paper: ~110 µs)

	HeaderBytes  int // per-message wire header
	ReqBytes     int // diff/lock request payload
	PerNoticeByt int // per write notice on the wire
}

// DefaultCosts returns the calibrated defaults described in DESIGN.md.
func DefaultCosts() Costs {
	return Costs{
		MsgSend: 35 * sim.Microsecond,
		MsgRecv: 35 * sim.Microsecond,
		MTSig:   30 * sim.Microsecond,

		FaultEntry: 20 * sim.Microsecond,
		TwinMake:   20 * sim.Microsecond,
		DiffScanNs: 10,
		DiffMake:   20 * sim.Microsecond,
		DiffApply:  10 * sim.Microsecond,
		ApplyNs:    15,
		NoticeProc: 1 * sim.Microsecond,
		IntervalOp: 5 * sim.Microsecond,

		LockMgr:    25 * sim.Microsecond,
		GrantMake:  30 * sim.Microsecond,
		BarrierMgr: 40 * sim.Microsecond,

		PfIssue: 140 * sim.Microsecond,
		PfCheck: 2 * sim.Microsecond,
		PfSplit: 20 * sim.Microsecond,

		CtxSwitch: 110 * sim.Microsecond,

		HeaderBytes:  40,
		ReqBytes:     24,
		PerNoticeByt: 8,
	}
}

// Charging helpers. Every message leaving a node pays its CPU send cost
// (MsgSend and friends, charged through CPU.Service) before it reaches the
// wire. The two helpers below are the only sanctioned routes from protocol
// code to the network; dsmvet's chargecost analyzer flags direct
// Node.Send/Node.xmit calls anywhere else, so a message cannot leave a node
// for free.

// sendAfter schedules m to be transmitted once the sending CPU work
// charged for it completes at time t. Transmission goes through the
// transport choke point (a plain network send when no transport is
// enabled).
func (n *Node) sendAfter(t sim.Time, m *netsim.Message) {
	n.K.At(t, func() { n.xmit(m) }) //dsmvet:allow chargecost — choke point: t is the send charge's completion time
}

// post charges extra plus one MsgSend of protocol overhead and transmits m
// when that CPU work completes: the common case of sendAfter, where one
// charge pays for one message.
func (n *Node) post(extra sim.Time, m *netsim.Message) {
	n.sendAfter(n.CPU.Service(extra+n.C.MsgSend, sim.CatDSM), m)
}
