package netsim

import (
	"fmt"

	"godsm/internal/event"
	"godsm/internal/sim"
)

// Topologies and the one send path. A topology is a slice of directed links
// plus a route — the ordered links a message crosses from one node to
// another. Send plans a message over its route link by link (queueing behind
// each link's earlier traffic, serialization, store-and-forward latency in
// the switch between two links), decides its fate, then commits the
// occupancy. Every link tracks its occupancy (messages, busy time, peak
// backlog); Network.LinkLoads surfaces them.
//
// The star ("" / "single", the paper's LAN): one switch, and every route is
// the two level-0 links [source's outbound, destination's inbound]. Any
// node count works, including one.
//
// The fat tree: nodes hang off leaf switches of the configured radix;
// switches aggregate recursively until one root covers the cluster. A route
// climbs to the lowest common ancestor of source and destination and
// descends. Links fatten toward the root: a link at level l serializes at
// base/2^l (fatness 2 per level), the classic fat-tree compromise between a
// skinny tree's root bottleneck and a full Clos. When the cluster fits under
// one leaf switch (nodes <= radix) every route is the star's, so arrival
// times and link loads equal the star's exactly (test-pinned); the event
// stream still differs, because only the fat tree emits one NetHop per link.

// link is one directed link of the topology.
type link struct {
	level     int // 0 = node<->switch edge link
	busyUntil sim.Time

	msgs int64
	busy sim.Time // total serialization time the link was held
	peak sim.Time // largest ready-to-drained backlog of one message
}

// hop is one planned link crossing of a message in flight: when the message
// was ready for the link, when serialization starts (after queueing), and
// when the link drains it.
type hop struct {
	link             int // index into topology.links; the id NetHop carries
	ready, start, en sim.Time
	ser              sim.Time
}

// topology holds the links in a fixed order: node i's outbound and inbound
// edge links at 2i and 2i+1, then — fat tree only — for each level l >= 1 the
// link pair (up, down) joining every level-(l-1) switch to its parent.
type topology struct {
	radix int   // fat tree's downward ports per switch; 0 = the star
	base  []int // fat tree: base[l] is the index of level l's first link, l >= 1, plus a final len(links)
	links []link

	path []hop // reusable scratch; the simulation is single-threaded
}

func newTopology(nodes int, cfg Config) topology {
	t := topology{links: make([]link, 2*nodes)}
	if cfg.Topology != "fattree" {
		return t
	}
	t.radix = cfg.FatTreeRadix
	if t.radix == 0 {
		t.radix = DefaultFatTreeRadix
	}
	// Height: the top level is the lowest whose one switch spans all nodes.
	t.base = []int{0}
	nsw := (nodes + t.radix - 1) / t.radix // switches at level 0
	for span, l := t.radix, 1; span < nodes; span, l = span*t.radix, l+1 {
		t.base = append(t.base, len(t.links))
		for s := 0; s < 2*nsw; s++ {
			t.links = append(t.links, link{level: l})
		}
		nsw = (nsw + t.radix - 1) / t.radix
	}
	t.base = append(t.base, len(t.links))
	return t
}

// linkName renders link i's name: "node3.out"/"node3.in" on the star,
// "edge3.up"/"edge3.down" and "l2.sw5.up"/"l2.sw5.down" on the fat tree.
func (t *topology) linkName(i int) string {
	switch {
	case t.radix == 0:
		return fmt.Sprintf("node%d.%s", i/2, [2]string{"out", "in"}[i%2])
	case i < t.base[1]: // the edge links end where level 1 (or the sentinel) starts
		return fmt.Sprintf("edge%d.%s", i/2, [2]string{"up", "down"}[i%2])
	}
	l := 1
	for i >= t.base[l+1] {
		l++
	}
	return fmt.Sprintf("l%d.sw%d.%s", l, (i-t.base[l])/2, [2]string{"up", "down"}[i%2])
}

// route appends the links a message from src to dst crosses, in order.
func (t *topology) route(src, dst int, path []hop) []hop {
	path = append(path, hop{link: 2 * src})
	if t.radix > 0 {
		// Climb until one switch covers both nodes (the lowest common
		// ancestor), then descend. span is the node count under one
		// level-(l-1) switch.
		l, span := 1, t.radix
		for ; src/span != dst/span; l, span = l+1, span*t.radix {
			path = append(path, hop{link: t.base[l] + 2*(src/span)})
		}
		for l, span = l-1, span/t.radix; l >= 1; l, span = l-1, span/t.radix {
			path = append(path, hop{link: t.base[l] + 2*(dst/span) + 1})
		}
	}
	return append(path, hop{link: 2*dst + 1})
}

// Send transmits m at the current virtual time. It returns the delivery
// time, or -1 if the message was dropped. Loopback (Src == Dst) is
// delivered after the switch latency only, mirroring local IPC.
func (n *Network) Send(m *Message) sim.Time {
	if m.Src < 0 || int(m.Src) >= len(n.stats) {
		panic(fmt.Sprintf("netsim: bad source %d", m.Src))
	}
	if m.Dst < 0 || int(m.Dst) >= len(n.stats) {
		panic(fmt.Sprintf("netsim: bad destination %d", m.Dst))
	}
	now := n.k.Now()
	t := &n.topo
	src, dst := &n.stats[m.Src], &n.stats[m.Dst]
	esrc, edst, ekind := int(m.Src), int(m.Dst), uint8(m.Kind)
	f := &n.cfg.Faults

	n.bus.Emit(event.NetEnqueue(esrc, edst, ekind, m.Size, m.Seq))
	src.MsgsSent++
	src.BytesSent += int64(m.Size)
	n.kindMsgs[m.Kind]++
	n.kindBytes[m.Kind] += int64(m.Size)

	if m.Src == m.Dst {
		at := now + n.cfg.SwitchLatency
		dst.MsgsRecv++
		dst.BytesRecv += int64(m.Size)
		n.bus.Emit(event.NetTransmit(esrc, edst, ekind, at, 0))
		n.deliverAt(at, m)
		return at
	}

	path := t.route(esrc, edst, t.path[:0])
	t.path = path // retain the (possibly regrown) scratch for the next send

	// Plan: walk the path accumulating queueing, store-and-forward latency
	// in each switch, and propagation on the two edge links only — PropDelay
	// models the host adapter/driver/UDP-stack path (see DefaultConfig),
	// which exists at the two endpoint NICs, not on switch-to-switch hops.
	// NIC stall windows likewise apply to the two edge links, keyed by the
	// node whose adapter is wedged. Nothing is committed yet.
	at := now
	var queueing sim.Time
	for i := range path {
		h := &path[i]
		l := &t.links[h.link]
		h.ready = at
		// Links double in capacity per level toward the root.
		h.ser = sim.Time(float64(m.Size) * n.cfg.NsPerByte / float64(int64(1)<<l.level))
		h.start = max(at, l.busyUntil)
		if n.rng != nil && l.level == 0 {
			stallNode := m.Src
			if i == len(path)-1 {
				stallNode = m.Dst
			}
			if stalled := f.stallEnd(stallNode, h.start); stalled != h.start {
				h.start = stalled
				n.bus.Emit(event.NetFault(esrc, edst, ekind, event.FaultStall))
			}
		}
		h.en = h.start + h.ser
		queueing += h.start - h.ready
		at = h.en
		if l.level == 0 {
			at += n.cfg.PropDelay
		}
		if i < len(path)-1 {
			at += n.cfg.SwitchLatency
		}
	}
	arrive := at

	if !m.Reliable && n.cfg.DropThreshold > 0 && queueing > n.cfg.DropThreshold {
		n.bus.Emit(event.NetDrop(esrc, edst, ekind, m.Size, event.DropCongestion))
		src.Dropped++
		src.BytesDropped += int64(m.Size)
		return -1
	}

	if n.rng != nil {
		// Brown-outs eat the frame while it occupies a faulted edge link.
		first, last := &path[0], &path[len(path)-1]
		browned := f.brownedOut(m.Src, first.start, first.en) || f.brownedOut(m.Dst, last.start, last.en)
		if browned || (f.Loss > 0 && n.rng.Float64() < f.Loss) {
			reason := event.DropBrownout
			if !browned {
				// Probabilistic loss. The frame still occupied every link it crossed.
				reason = event.DropLoss
				n.commit(path, esrc, edst, ekind)
			}
			n.bus.Emit(event.NetDrop(esrc, edst, ekind, m.Size, reason))
			src.Dropped++
			src.BytesDropped += int64(m.Size)
			src.FaultDrops++
			return -1
		}
	}

	n.commit(path, esrc, edst, ekind)
	dst.MsgsRecv++
	dst.BytesRecv += int64(m.Size)

	if n.rng != nil {
		// Reordering: extra jitter lets later traffic overtake this frame.
		if f.Reorder > 0 && f.MaxJitter > 0 && n.rng.Float64() < f.Reorder {
			arrive += 1 + n.rng.Int63n(f.MaxJitter)
			n.bus.Emit(event.NetFault(esrc, edst, ekind, event.FaultJitter))
		}
		// Duplication: a second copy pops out of the switch a beat later.
		if f.Dup > 0 && n.rng.Float64() < f.Dup {
			dupAt := arrive + n.cfg.SwitchLatency
			if f.Reorder > 0 && f.MaxJitter > 0 && n.rng.Float64() < f.Reorder {
				dupAt += n.rng.Int63n(f.MaxJitter)
			}
			n.bus.Emit(event.NetFault(esrc, edst, ekind, event.FaultDup))
			src.Duplicated++
			src.BytesDup += int64(m.Size)
			dst.MsgsRecv++
			dst.BytesRecv += int64(m.Size)
			n.deliverAt(dupAt, m)
		}
	}

	n.bus.Emit(event.NetTransmit(esrc, edst, ekind, arrive, queueing))
	n.deliverAt(arrive, m)
	return arrive
}

// commit stamps the planned occupancy onto every link of the path; the fat
// tree also emits one NetHop per crossing.
func (n *Network) commit(path []hop, esrc, edst int, ekind uint8) {
	for i := range path {
		h := &path[i]
		l := &n.topo.links[h.link]
		l.busyUntil = h.en
		l.msgs++
		l.busy += h.ser
		l.peak = max(l.peak, h.en-h.ready)
		if n.topo.radix > 0 {
			n.bus.Emit(event.NetHop(esrc, edst, ekind, h.link, h.start-h.ready))
		}
	}
}
