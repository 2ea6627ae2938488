package proto

import (
	"godsm/internal/event"
	"godsm/internal/netsim"
	"godsm/internal/sim"
)

// Reliable transport. The paper's TreadMarks ran over a lightweight reliable
// UDP protocol: reliability was earned with sequence numbers, acknowledgments
// and retransmission, not assumed. This file implements that layer on top of
// the (possibly faulty) simulated network.
//
// The transport engages only when the network injects faults (see
// Node.EnableTransport); otherwise messages keep the seed's fiat delivery and
// runs remain byte-identical to pre-transport output. When enabled, every
// protocol message except prefetch traffic is sequenced per destination:
//
//   - the sender assigns a 1-based per-(src,dst) sequence number, keeps the
//     frame until it is acknowledged, and retransmits the oldest
//     unacknowledged frame on a timer with exponential backoff;
//   - the receiver acknowledges cumulatively (Ack = next expected seq),
//     piggybacking acks on reverse sequenced traffic and falling back to a
//     delayed pure ack (KindAck) otherwise;
//   - duplicates are suppressed by sequence number, and out-of-order frames
//     are buffered so the protocol keeps its per-pair FIFO delivery
//     guarantee (interval contiguity depends on it).
//
// Prefetch requests and replies stay unsequenced datagrams (Seq == 0): the
// protocol is already loss-tolerant for them — a lost prefetch just becomes
// a demand miss — and their handlers are idempotent under duplication.
type xpPeer struct {
	// Sender side.
	nextSeq uint64            // last sequence number assigned
	unacked []*netsim.Message // sent but not yet acknowledged, in seq order
	retx    *sim.Timer
	rto     sim.Time
	retries int

	// Receiver side.
	expect   uint64 // next in-order sequence number expected (cumulative ack)
	oob      map[uint64]*netsim.Message
	ackTimer *sim.Timer
	ackOwed  bool
}

const (
	// xportHdrBytes is the wire overhead of the transport header (sequence
	// number + cumulative ack) on every sequenced frame and pure ack.
	xportHdrBytes = 16
	// xportAckDelay is how long a receiver waits for reverse traffic to
	// piggyback on before sending a pure ack.
	xportAckDelay = 100 * sim.Microsecond
	// xportRTOMin/Max bound the exponential retransmission backoff.
	xportRTOMin = 4 * sim.Millisecond
	xportRTOMax = 64 * sim.Millisecond
	// xportRetryCap bounds consecutive timeouts without ack progress for one
	// frame; exceeding it means the link is effectively dead (with backoff,
	// roughly half a second of silence) and is treated as an invariant
	// failure rather than an infinite retry loop.
	xportRetryCap = 12
)

// EnableTransport switches the node from fiat delivery to the reliable
// transport. The cluster wiring calls it when the network's fault plan is
// active. Must be called before the simulation starts.
func (n *Node) EnableTransport() {
	if n.xp != nil {
		return
	}
	n.xp = make([]*xpPeer, n.N)
	for q := 0; q < n.N; q++ {
		if q == n.ID {
			continue
		}
		p := &xpPeer{expect: 1, rto: xportRTOMin}
		q := q
		p.retx = n.K.NewTimer(func() { n.retxFire(q) })
		p.ackTimer = n.K.NewTimer(func() { n.ackFire(q) })
		n.xp[q] = p
	}
}

// xmit is the node's single transmission choke point. Without transport (or
// for loopback and datagram kinds) it is a plain network send, and a dropped
// datagram emits its kind's drop event at the sender; otherwise it assigns
// the sequence number, records the frame for retransmission, and sends a
// copy with the current cumulative ack piggybacked.
func (n *Node) xmit(m *netsim.Message) {
	if k := &kinds[m.Kind]; n.xp == nil || m.Src == m.Dst || k.datagram {
		//dsmvet:allow chargecost — transport choke point; the charge was paid at the sendAfter call site
		if n.Send(m) < 0 && k.drop != nil {
			n.bus.Emit(k.drop(n.ID, int64(m.Payload.(pagePayload).page())))
		}
		return
	}
	p := n.xp[m.Dst]
	p.nextSeq++
	m.Seq = p.nextSeq
	m.Size += xportHdrBytes
	p.unacked = append(p.unacked, m)
	n.transmit(p, m)
	if !p.retx.Active() {
		p.retx.Arm(p.rto)
	}
}

// transmit sends one copy of a sequenced frame with the ack piggybacked,
// canceling any pending pure ack to that peer (the copy carries it).
func (n *Node) transmit(p *xpPeer, m *netsim.Message) {
	p.ackOwed = false
	p.ackTimer.Stop()
	mm := *m
	mm.Ack = p.expect
	//dsmvet:allow chargecost — transport choke point; first copies are charged at sendAfter, retransmissions in retxFire
	n.Send(&mm)
}

// retxFire handles a retransmission timeout for peer q: resend the oldest
// unacknowledged frame and back off.
func (n *Node) retxFire(q int) {
	p := n.xp[q]
	if len(p.unacked) == 0 {
		return
	}
	p.retries++
	n.bus.Emit(event.XpTimeout(n.ID, q, p.retries))
	if p.retries > xportRetryCap {
		n.invariantf("node %d: %d consecutive retransmission timeouts to node %d (seq %d, kind %s); peer unreachable",
			n.ID, p.retries-1, q, p.unacked[0].Seq, KindName(p.unacked[0].Kind))
	}
	m := p.unacked[0]
	done := n.CPU.Service(n.C.MsgSend, sim.CatDSM)
	n.K.At(done, func() { n.transmit(p, m) })
	p.rto *= 2
	if p.rto > xportRTOMax {
		p.rto = xportRTOMax
	}
	n.bus.Emit(event.XpRetransmit(n.ID, q, m.Seq, p.rto))
	p.retx.Arm(p.rto)
}

// ackFire sends a delayed pure ack to peer q.
func (n *Node) ackFire(q int) {
	p := n.xp[q]
	if !p.ackOwed {
		return
	}
	p.ackOwed = false
	n.bus.Emit(event.XpAck(n.ID, q))
	done := n.CPU.Service(n.C.MsgSend, sim.CatDSM)
	n.K.At(done, func() {
		//dsmvet:allow chargecost — transport choke point; the pure ack's MsgSend is charged immediately above
		n.Send(&netsim.Message{
			Src: netsim.NodeID(n.ID), Dst: netsim.NodeID(q),
			Size: n.C.HeaderBytes + xportHdrBytes, Reliable: true,
			Kind: KindAck, Ack: p.expect,
		})
	})
}

// scheduleAck marks an ack owed to peer q, to be piggybacked on the next
// sequenced frame or sent as a pure ack after xportAckDelay.
func (n *Node) scheduleAck(p *xpPeer) {
	if p.ackOwed {
		return
	}
	p.ackOwed = true
	p.ackTimer.Arm(xportAckDelay)
}

// onAck processes a cumulative acknowledgment from peer q: every frame with
// seq < ack is delivered, so drop it from the retransmission queue. Progress
// resets the backoff.
func (n *Node) onAck(p *xpPeer, ack uint64) {
	if ack == 0 {
		return
	}
	progress := false
	for len(p.unacked) > 0 && p.unacked[0].Seq < ack {
		p.unacked[0] = nil
		p.unacked = p.unacked[1:]
		progress = true
	}
	if !progress {
		return
	}
	p.rto = xportRTOMin
	p.retries = 0
	if len(p.unacked) == 0 {
		p.retx.Stop()
	} else {
		p.retx.Arm(p.rto)
	}
}

// xpReceive filters one arriving frame through the transport: ack
// processing, duplicate suppression, and in-order delivery (buffering
// out-of-order frames until the gap fills). Receive-side CPU cost has
// already been charged by Deliver.
func (n *Node) xpReceive(m *netsim.Message) {
	if m.Src == m.Dst {
		n.dispatch(m)
		return
	}
	p := n.xp[m.Src]
	n.onAck(p, m.Ack)
	if m.Seq == 0 {
		if m.Kind != KindAck { // pure acks carry nothing to dispatch
			n.dispatch(m)
		}
		return
	}
	switch {
	case m.Seq < p.expect:
		// Already delivered: the sender retransmitted because our ack was
		// lost or late. Re-ack, suppress.
		n.bus.Emit(event.XpDup(n.ID, int(m.Src), m.Seq))
		n.scheduleAck(p)
	case m.Seq == p.expect:
		p.expect++
		n.dispatch(m)
		for {
			next, ok := p.oob[p.expect]
			if !ok {
				break
			}
			delete(p.oob, p.expect)
			p.expect++
			n.dispatch(next)
		}
		n.scheduleAck(p)
	default: // m.Seq > p.expect: a gap — buffer until it fills
		if p.oob == nil {
			p.oob = make(map[uint64]*netsim.Message)
		}
		if _, dup := p.oob[m.Seq]; dup {
			n.bus.Emit(event.XpDup(n.ID, int(m.Src), m.Seq))
		} else {
			p.oob[m.Seq] = m
		}
		n.scheduleAck(p)
	}
}
