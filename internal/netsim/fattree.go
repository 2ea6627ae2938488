package netsim

import (
	"fmt"

	"godsm/internal/event"
	"godsm/internal/sim"
)

// Fat-tree topology. Nodes hang off leaf switches of the configured radix;
// switches aggregate recursively until one root covers the cluster. A
// message climbs to the lowest common ancestor of source and destination and
// descends, paying serialization on every link it crosses and
// store-and-forward latency in every switch it passes through. Links fatten
// toward the root: a link at level l serializes at base/2^l (fatness 2 per
// level), the classic fat-tree compromise between a skinny tree's root
// bottleneck and a full Clos.
//
// When the cluster fits under one leaf switch (nodes <= radix) every path is
// edge-up, one switch, edge-down — term for term the single-switch timing
// formula — so the degenerate fat tree reproduces single-switch arrival
// times exactly. (The event stream still differs: fat-tree sends emit one
// NetHop per link, which the single switch never does.)
//
// Every directed link tracks its occupancy (messages, busy time, peak
// backlog); Network.LinkLoads surfaces them for the nodescale experiment's
// per-link congestion figures.

// topoLink is one directed link of the fat tree.
type topoLink struct {
	name      string
	idx       int // position in construction order; the id NetHop carries
	level     int // 0 = node<->leaf-switch edge link
	busyUntil sim.Time

	msgs int64
	busy sim.Time
	peak sim.Time
}

// hop is one planned link crossing of a message in flight: when the message
// was ready for the link, when serialization starts (after queueing), and
// when the link drains it.
type hop struct {
	link             *topoLink
	ready, start, en sim.Time
	ser              sim.Time
}

type fatTree struct {
	radix int
	top   int // level of the lowest switch covering the whole cluster

	edgeUp, edgeDown []*topoLink   // per node
	up, down         [][]*topoLink // [level l][switch at level l-1]: link to/from its parent
	links            []*topoLink   // all links, in construction order

	path []hop // reusable scratch; the simulation is single-threaded
}

// switchOf returns the index of the switch at level l covering node i.
func (t *fatTree) switchOf(i, l int) int {
	s := i
	for k := 0; k <= l; k++ {
		s /= t.radix
	}
	return s
}

func newFatTree(nodes, radix int) *fatTree {
	t := &fatTree{radix: radix}
	// Height: the top level is the lowest whose one switch spans all nodes.
	span := radix
	for span < nodes {
		span *= radix
		t.top++
	}
	t.edgeUp = make([]*topoLink, nodes)
	t.edgeDown = make([]*topoLink, nodes)
	for i := 0; i < nodes; i++ {
		t.edgeUp[i] = t.addLink(fmt.Sprintf("edge%d.up", i), 0)
		t.edgeDown[i] = t.addLink(fmt.Sprintf("edge%d.down", i), 0)
	}
	t.up = make([][]*topoLink, t.top+1)
	t.down = make([][]*topoLink, t.top+1)
	nsw := (nodes + radix - 1) / radix // switches at level 0
	for l := 1; l <= t.top; l++ {
		t.up[l] = make([]*topoLink, nsw)
		t.down[l] = make([]*topoLink, nsw)
		for s := 0; s < nsw; s++ {
			t.up[l][s] = t.addLink(fmt.Sprintf("l%d.sw%d.up", l, s), l)
			t.down[l][s] = t.addLink(fmt.Sprintf("l%d.sw%d.down", l, s), l)
		}
		nsw = (nsw + radix - 1) / radix
	}
	return t
}

func (t *fatTree) addLink(name string, level int) *topoLink {
	l := &topoLink{name: name, idx: len(t.links), level: level}
	t.links = append(t.links, l)
	return l
}

func (t *fatTree) loads() []LinkLoad {
	out := make([]LinkLoad, len(t.links))
	for i, l := range t.links {
		out[i] = LinkLoad{Name: l.name, Msgs: l.msgs, Busy: l.busy, Peak: l.peak}
	}
	return out
}

// serLevel is the serialization time of size bytes on a level-l link: links
// double in capacity per level toward the root.
func (n *Network) serLevel(size, level int) sim.Time {
	return sim.Time(float64(size) * n.cfg.NsPerByte / float64(int64(1)<<level))
}

// sendFatTree routes m through the fat tree. It mirrors the single-switch
// Send step for step — same fault-decision order, same statistics — but over
// the multi-link path: plan the whole path first (computing each link's
// queueing without committing it), decide congestion/brown-out/loss exactly
// as the single switch would, then commit occupancy and schedule delivery.
func (n *Network) sendFatTree(m *Message, now sim.Time) sim.Time {
	t := n.topo
	src, dst := &n.nics[m.Src], &n.nics[m.Dst]
	esrc, edst, ekind := int(m.Src), int(m.Dst), uint8(m.Kind)
	f := &n.cfg.Faults

	// Lowest common ancestor level of the two leaf switches.
	anc := 0
	for t.switchOf(int(m.Src), anc) != t.switchOf(int(m.Dst), anc) {
		anc++
	}

	// Assemble the path: edge up, climb to the ancestor, descend, edge down.
	path := t.path[:0]
	path = append(path, hop{link: t.edgeUp[m.Src]})
	for l := 1; l <= anc; l++ {
		path = append(path, hop{link: t.up[l][t.switchOf(int(m.Src), l-1)]})
	}
	for l := anc; l >= 1; l-- {
		path = append(path, hop{link: t.down[l][t.switchOf(int(m.Dst), l-1)]})
	}
	path = append(path, hop{link: t.edgeDown[m.Dst]})
	t.path = path // retain the (possibly regrown) scratch for the next send

	// Plan: walk the path accumulating queueing, store-and-forward latency
	// in each switch, and propagation on the two edge links only — PropDelay
	// models the host adapter/driver/UDP-stack path (see DefaultConfig),
	// which exists at the two endpoint NICs, not on switch-to-switch hops.
	// NIC stall windows likewise apply to the two edge links, keyed by the
	// node whose adapter is wedged — identical to the single switch.
	at := now
	var queueing sim.Time
	for i := range path {
		h := &path[i]
		h.ready = at
		h.ser = n.serLevel(m.Size, h.link.level)
		h.start = max(at, h.link.busyUntil)
		if n.rng != nil && h.link.level == 0 {
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
		if h.link.level == 0 {
			at += n.cfg.PropDelay
		}
		if i < len(path)-1 {
			at += n.cfg.SwitchLatency
		}
	}
	arrive := at

	if !m.Reliable && n.cfg.DropThreshold > 0 && queueing > n.cfg.DropThreshold {
		n.bus.Emit(event.NetDrop(esrc, edst, ekind, m.Size, event.DropCongestion))
		src.stats.Dropped++
		src.stats.BytesDropped += int64(m.Size)
		return -1
	}

	first, last := &path[0], &path[len(path)-1]
	if n.rng != nil {
		// Brown-outs eat the frame while it occupies a faulted edge link.
		if f.brownedOut(m.Src, first.start, first.en) || f.brownedOut(m.Dst, last.start, last.en) {
			n.bus.Emit(event.NetDrop(esrc, edst, ekind, m.Size, event.DropBrownout))
			src.stats.Dropped++
			src.stats.BytesDropped += int64(m.Size)
			src.stats.FaultDrops++
			return -1
		}
		// Probabilistic loss. The frame still occupied every link it crossed.
		if f.Loss > 0 && n.rng.Float64() < f.Loss {
			t.commit(n, path, esrc, edst, ekind)
			n.bus.Emit(event.NetDrop(esrc, edst, ekind, m.Size, event.DropLoss))
			src.stats.Dropped++
			src.stats.BytesDropped += int64(m.Size)
			src.stats.FaultDrops++
			return -1
		}
	}

	t.commit(n, path, esrc, edst, ekind)
	dst.stats.MsgsRecv++
	dst.stats.BytesRecv += int64(m.Size)

	if n.rng != nil {
		if f.Reorder > 0 && f.MaxJitter > 0 && n.rng.Float64() < f.Reorder {
			arrive += 1 + n.rng.Int63n(f.MaxJitter)
			n.bus.Emit(event.NetFault(esrc, edst, ekind, event.FaultJitter))
		}
		if f.Dup > 0 && n.rng.Float64() < f.Dup {
			dupAt := arrive + n.cfg.SwitchLatency
			if f.Reorder > 0 && f.MaxJitter > 0 && n.rng.Float64() < f.Reorder {
				dupAt += n.rng.Int63n(f.MaxJitter)
			}
			n.bus.Emit(event.NetFault(esrc, edst, ekind, event.FaultDup))
			src.stats.Duplicated++
			src.stats.BytesDup += int64(m.Size)
			dst.stats.MsgsRecv++
			dst.stats.BytesRecv += int64(m.Size)
			n.deliverAt(dupAt, m)
		}
	}

	n.bus.Emit(event.NetTransmit(esrc, edst, ekind, arrive, queueing))
	n.deliverAt(arrive, m)
	return arrive
}

// commit stamps the planned occupancy onto every link of the path and emits
// one NetHop per crossing. The scratch slice is retained for the next send.
func (t *fatTree) commit(n *Network, path []hop, esrc, edst int, ekind uint8) {
	for i := range path {
		h := &path[i]
		h.link.busyUntil = h.en
		h.link.msgs++
		h.link.busy += h.ser
		if backlog := h.en - h.ready; backlog > h.link.peak {
			h.link.peak = backlog
		}
		n.bus.Emit(event.NetHop(esrc, edst, ekind, h.link.idx, h.start-h.ready))
	}
}
