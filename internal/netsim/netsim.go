// Package netsim models the cluster interconnect as a set of directed links
// and a route between every pair of nodes (fattree.go). A message pays
// serialization on every link of its route and store-and-forward latency in
// every switch between two links, and waits for each link to drain the
// traffic ahead of it. The default topology is the paper's LAN — one
// ATM-style switch with one full-duplex link per node, i.e. the two-link
// route [source's outbound link, destination's inbound link] — so concurrent
// traffic to one node queues on that node's inbound link, reproducing the
// hot-spotting the paper observes when all processors fetch their initial
// data from the master. The fat tree routes the same send over more links.
//
// Unreliable messages (the paper's prefetch requests and replies) are
// dropped deterministically when the queueing delay they would suffer
// exceeds a configurable threshold, modelling congestion loss.
//
// A FaultPlan additionally injects faults into ANY message — including ones
// marked reliable: probabilistic loss and duplication, bounded reordering
// jitter, transient link brown-outs, and per-NIC stall windows. All
// randomness comes from a per-network PRNG seeded by the plan, and the
// simulation is single-threaded, so a given (workload, plan) pair replays
// exactly. Recovering reliable messages lost to an active plan is the
// protocol layer's job (see proto's ack/retransmit transport).
package netsim

import (
	"fmt"
	"math/rand"

	"godsm/internal/event"
	"godsm/internal/sim"
)

// NodeID identifies a node (processor) on the network.
type NodeID int

// Kind tags a message for traffic statistics. The protocol layer defines
// the actual kinds; netsim only requires them to be small integers.
type Kind uint8

// MaxKinds bounds the Kind space for statistics arrays.
const MaxKinds = 24

// Message is one datagram on the simulated network.
//
// Seq and Ack are the transport header used by the protocol layer's
// reliability machinery; netsim carries them opaquely. Seq is a 1-based
// per-(src,dst) sequence number (0 = unsequenced datagram) and Ack is the
// cumulative acknowledgement (all sequence numbers below Ack received;
// 0 = no acknowledgement information).
type Message struct {
	Src, Dst NodeID
	Size     int  // bytes on the wire, including headers
	Reliable bool // unreliable messages may be dropped under congestion
	Kind     Kind
	Seq, Ack uint64
	Payload  any
}

// LinkFault is one transient fault window on a node's full-duplex link,
// active for virtual times in [From, To).
type LinkFault struct {
	Node     NodeID
	From, To sim.Time
}

// FaultPlan describes deterministic fault injection. The zero plan injects
// nothing; Active reports whether any fault is configured. All probability
// draws come from one PRNG seeded with Seed, created per Network, so runs
// replay exactly.
type FaultPlan struct {
	Seed int64

	Loss float64 // per-message drop probability (reliable messages too)
	Dup  float64 // per-message duplication probability

	// Reorder is the probability a message is delayed by extra jitter drawn
	// uniformly from (0, MaxJitter], letting later traffic overtake it.
	// Ineffective when MaxJitter is zero.
	Reorder   float64
	MaxJitter sim.Time

	// Brownouts drop every message whose link occupancy overlaps the window
	// on the named node's link (either direction).
	Brownouts []LinkFault

	// Stalls model a wedged NIC: traffic that would occupy the named node's
	// link during the window waits until the window ends.
	Stalls []LinkFault
}

// Active reports whether the plan injects any fault.
func (p *FaultPlan) Active() bool {
	return p.Loss > 0 || p.Dup > 0 || (p.Reorder > 0 && p.MaxJitter > 0) ||
		len(p.Brownouts) > 0 || len(p.Stalls) > 0
}

// stallEnd returns the end of the stall window covering time t on node id's
// link, or t if none does.
func (p *FaultPlan) stallEnd(id NodeID, t sim.Time) sim.Time {
	for _, w := range p.Stalls {
		if w.Node == id && t >= w.From && t < w.To {
			t = w.To
		}
	}
	return t
}

// brownedOut reports whether [from, to) overlaps a brown-out window on node
// id's link.
func (p *FaultPlan) brownedOut(id NodeID, from, to sim.Time) bool {
	for _, w := range p.Brownouts {
		if w.Node == id && from < w.To && to > w.From {
			return true
		}
	}
	return false
}

// validate rejects plans that cannot mean what they say: probabilities
// outside [0,1], negative jitter, and windows that name a node the cluster
// does not have or end before they start (which would never fire).
func (p *FaultPlan) validate(nodes int) error {
	for _, pr := range []struct {
		name string
		v    float64
	}{{"Loss", p.Loss}, {"Dup", p.Dup}, {"Reorder", p.Reorder}} {
		if !(pr.v >= 0 && pr.v <= 1) {
			return fmt.Errorf("fault plan: %s must be a probability in [0,1] (got %g)", pr.name, pr.v)
		}
	}
	if p.MaxJitter < 0 {
		return fmt.Errorf("fault plan: MaxJitter %d is negative", p.MaxJitter)
	}
	for _, ws := range []struct {
		name    string
		windows []LinkFault
	}{{"brown-out", p.Brownouts}, {"stall", p.Stalls}} {
		for _, w := range ws.windows {
			if w.Node < 0 || int(w.Node) >= nodes {
				return fmt.Errorf("fault plan: %s window names node %d of a %d-node cluster", ws.name, w.Node, nodes)
			}
			if w.From > w.To {
				return fmt.Errorf("fault plan: %s window on node %d ends (%d) before it starts (%d)", ws.name, w.Node, w.To, w.From)
			}
		}
	}
	return nil
}

// DefaultFatTreeRadix is the switch radix used when Config.FatTreeRadix is
// zero: four downward ports per switch, so eight nodes need two levels and
// 1024 nodes need five.
const DefaultFatTreeRadix = 4

// Config holds the network's physical parameters. The defaults in
// DefaultConfig approximate the paper's 155 Mbps FORE ATM LAN.
type Config struct {
	NsPerByte     float64  // serialization cost per byte on each link
	SwitchLatency sim.Time // fixed store-and-forward latency in the switch
	PropDelay     sim.Time // propagation delay per link traversal
	// DropThreshold is the maximum total queueing delay an unreliable
	// message may suffer before it is dropped. Zero disables dropping.
	DropThreshold sim.Time

	// Topology selects the interconnect shape. "" and "single" are the
	// paper's one-switch LAN (the byte-identical default); "fattree" is a
	// multi-switch fat tree with per-link serialization, per-switch
	// store-and-forward latency, and per-link occupancy tracking (see
	// fattree.go).
	Topology string
	// FatTreeRadix is the fat tree's downward port count per switch; zero
	// means DefaultFatTreeRadix. Must be a power of two >= 2.
	FatTreeRadix int

	// Faults injects deterministic faults into all traffic (see FaultPlan).
	// The zero plan leaves the network exactly as fault-free.
	Faults FaultPlan
}

// Validate checks the fault plan and the topology parameters against a node
// count. The single switch accepts any cluster (including one node); the fat
// tree's routing arithmetic assumes power-of-two node counts and radices.
func (c *Config) Validate(nodes int) error {
	if err := c.Faults.validate(nodes); err != nil {
		return err
	}
	switch c.Topology {
	case "", "single":
		return nil
	case "fattree":
		r := c.FatTreeRadix
		if r == 0 {
			r = DefaultFatTreeRadix
		}
		if r < 2 || r&(r-1) != 0 {
			return fmt.Errorf("fattree: radix %d is not a power of two >= 2", r)
		}
		if nodes < 2 || nodes&(nodes-1) != 0 {
			return fmt.Errorf("fattree: %d nodes; the fat tree assumes a power-of-two node count >= 2", nodes)
		}
		return nil
	default:
		return fmt.Errorf("unknown topology %q (have: single, fattree)", c.Topology)
	}
}

// DefaultConfig returns parameters approximating the paper's platform: a
// 155 Mbps OC-3 ATM LAN (51.6 ns/byte serialization, 20 µs switch) whose
// end-to-end latency is dominated by the per-hop adapter/driver/UDP-stack
// path (~300 µs per link traversal, which does not consume host CPU in the
// model — the CPU-visible protocol costs are in proto.Costs). Unreliable
// messages drop past 1.5 ms of queueing.
func DefaultConfig() Config {
	return Config{
		NsPerByte:     51.6,
		SwitchLatency: 20 * sim.Microsecond,
		PropDelay:     300 * sim.Microsecond,
		DropThreshold: 1500 * sim.Microsecond,
	}
}

// LinkStats counts traffic observed at one node. Counters conserve:
// MsgsRecv + Dropped == MsgsSent + Duplicated (and likewise for bytes),
// summed over all nodes.
type LinkStats struct {
	MsgsSent, MsgsRecv   int64
	BytesSent, BytesRecv int64
	Dropped              int64 // messages lost (congestion + injected faults)
	BytesDropped         int64
	FaultDrops           int64 // subset of Dropped due to injected loss/brown-outs
	Duplicated           int64 // extra copies created by fault injection
	BytesDup             int64
}

// LinkLoad is the observed load on one directed link of the topology: how
// many messages crossed it, how long it was busy serializing in total, and
// the largest backlog one message saw (time from the message being ready for
// the link until the link had drained it — queueing wait plus its own
// serialization).
type LinkLoad struct {
	Name string
	Msgs int64
	Busy sim.Time
	Peak sim.Time
}

// Network is the simulated LAN. Construct with New.
type Network struct {
	k       *sim.Kernel
	bus     *event.Bus
	cfg     Config
	stats   []LinkStats // per node
	deliver func(*Message)
	rng     *rand.Rand // non-nil iff cfg.Faults.Active()
	topo    topology

	kindMsgs  [MaxKinds]int64
	kindBytes [MaxKinds]int64
}

// New creates a network of n nodes on kernel k. deliver is invoked (in
// kernel context) when a message arrives at its destination.
func New(k *sim.Kernel, n int, cfg Config, deliver func(*Message)) *Network {
	if n <= 0 {
		panic("netsim: need at least one node")
	}
	if err := cfg.Validate(n); err != nil {
		panic("netsim: " + err.Error())
	}
	net := &Network{k: k, bus: k.Bus(), cfg: cfg, stats: make([]LinkStats, n), deliver: deliver,
		topo: newTopology(n, cfg)}
	if cfg.Faults.Active() {
		net.rng = rand.New(rand.NewSource(cfg.Faults.Seed))
	}
	return net
}

// LinkLoads returns the per-link occupancy observed so far, in a fixed
// deterministic order: each node's outbound and inbound link, then (fat tree
// only) every inter-switch link, both directions.
func (n *Network) LinkLoads() []LinkLoad {
	out := make([]LinkLoad, len(n.topo.links))
	for i := range n.topo.links {
		l := &n.topo.links[i]
		out[i] = LinkLoad{Name: n.topo.linkName(i), Msgs: l.msgs, Busy: l.busy, Peak: l.peak}
	}
	return out
}

// Nodes returns the number of nodes.
func (n *Network) Nodes() int { return len(n.stats) }

// Stats returns the traffic counters for node id.
func (n *Network) Stats(id NodeID) LinkStats { return n.stats[id] }

// TotalStats sums traffic over all nodes (sent-side counters).
func (n *Network) TotalStats() LinkStats {
	var t LinkStats
	for i := range n.stats {
		s := &n.stats[i]
		t.MsgsSent += s.MsgsSent
		t.MsgsRecv += s.MsgsRecv
		t.BytesSent += s.BytesSent
		t.BytesRecv += s.BytesRecv
		t.Dropped += s.Dropped
		t.BytesDropped += s.BytesDropped
		t.FaultDrops += s.FaultDrops
		t.Duplicated += s.Duplicated
		t.BytesDup += s.BytesDup
	}
	return t
}

// KindStats returns (messages, bytes) sent with the given kind.
func (n *Network) KindStats(kind Kind) (msgs, bytes int64) {
	return n.kindMsgs[kind], n.kindBytes[kind]
}

// deliverAt schedules m's arrival at time at, emitting the delivery event
// at the moment it happens.
func (n *Network) deliverAt(at sim.Time, m *Message) {
	n.k.At(at, func() {
		n.bus.Emit(event.NetDeliver(int(m.Src), int(m.Dst), uint8(m.Kind), m.Size, m.Seq))
		n.deliver(m)
	})
}
