package proto

import (
	"math/rand"
	"sort"

	"godsm/internal/event"
	"godsm/internal/lrc"
	"godsm/internal/sim"
)

// Deterministic gossip write-notice dissemination (Spec.Gossip). ERC's
// release broadcast sends N-1 messages per interval close, so total notice
// traffic grows as O(N) per release and the sender serializes N-1 MsgSend
// charges on its own CPU. Gossip caps the per-node cost: each node pushes
// freshly-learned records to a fixed fanout-k peer set in periodic rounds,
// and a record reaches all N nodes in O(log N) rounds while every node
// sends at most k messages per round.
//
// Determinism. The peer set is fixed at construction from
// rand.New(rand.NewSource(Spec.GossipSeed + node-id mixing)) — the
// netsim.FaultPlan pattern — so it is a pure function of (N, fanout, seed).
// Rounds fire on a sim.Timer at a fixed interval, batches are sorted by
// (creator, seq) before sending, and peers are walked in slice order, so
// the whole message schedule is a deterministic function of the
// simulation's event order. dsmvet's globalrand analyzer enforces the
// seeded-source idiom; no map iteration or wall-clock input is involved.
//
// Termination. A record enters the hot list at most once per node: at its
// creator when the interval closes (Publish), or at the first receipt of
// its record (handle). A node therefore pushes each record at most once,
// the total message count for one record is bounded by k*N, and the round
// timer is only armed while undisseminated records exist — an idle node's
// timer stays idle and the kernel's run loop drains.
//
// Quiescence at barriers. A barrier release hands every node a vector time
// covering every interval closed at the arrivals, with the records each
// node was missing — global dissemination, done. The release path reports
// that vector time here (Cover), and both fire and handle drop records at
// or below it: relaying a record the barrier already delivered everywhere
// is pure waste. Gossip traffic therefore flows only while it is ahead of
// synchronization — between barriers, and during the arrival-skew window
// within one — which is what lets it undercut the broadcast even when few
// nodes write.
//
// GC safety. Diff GC truncates records below gcBase at barriers. Gossip
// never creates interval records during a GC round: new intervals only
// close at sync operations, and every node is parked at the barrier while
// validate/flush runs. A gossiped record that arrives after the collection
// that subsumed it carries Seq <= gcBase[creator] <= vc[creator] and is
// skipped as already covered; fire() filters its own backlog by gcBase.
type gossiper struct {
	n        *Node
	peers    []int           // fixed push targets; peers[0] is the ring successor
	interval sim.Time        // gossipInterval; a field so that a test can stretch it
	hot      []*lrc.Interval // records learned but not yet pushed
	held     []*lrc.Interval // records learned but not yet causally closed (drain)
	covered  lrc.VC          // barrier-released supremum: globally known records
	timer    *sim.Timer
	round    int64
}

// gossipSeedMix decorrelates per-node peer choices drawn from one seed.
const gossipSeedMix = 0x9e3779b9

// newGossiper builds node n's gossip engine, or returns nil when the
// cluster has no peers to gossip with.
func newGossiper(n *Node, cfg Spec) *gossiper {
	if n.N < 2 {
		return nil
	}
	k := cfg.GossipFanout
	if k == 0 {
		k = DefaultGossipFanout
	}
	if k > n.N-1 {
		k = n.N - 1
	}
	g := &gossiper{n: n, interval: gossipInterval, covered: lrc.NewVC(n.N)}

	// The ring successor guarantees the push graph is strongly connected
	// (every record can reach every node); the remaining k-1 peers are
	// seeded random picks that give the O(log N) expander behavior.
	g.peers = append(g.peers, (n.ID+1)%n.N)
	rng := rand.New(rand.NewSource(cfg.GossipSeed + int64(n.ID)*gossipSeedMix))
	for len(g.peers) < k {
		p := rng.Intn(n.N)
		dup := p == n.ID
		for _, q := range g.peers {
			if q == p {
				dup = true
			}
		}
		if !dup {
			g.peers = append(g.peers, p)
		}
	}
	g.timer = n.K.NewTimer(g.fire)
	return g
}

// Publish queues a locally-closed interval's record for the next round.
func (g *gossiper) Publish(iv *lrc.Interval) {
	g.hot = append(g.hot, iv)
	if !g.timer.Active() {
		g.timer.Arm(g.interval)
	}
}

// Cover records a barrier release's vector time: everything at or below it
// has been handed to every node by the release path, so pending pushes of
// those records are dropped. Called by the barrier on every release (root
// and receiving sides).
func (g *gossiper) Cover(vc lrc.VC) {
	for q, s := range vc {
		if s > g.covered[q] {
			g.covered[q] = s
		}
	}
}

// gossipCover forwards a barrier release's vector time to the gossiper, if
// the node has one.
func (n *Node) gossipCover(vc lrc.VC) {
	if n.gossip != nil {
		n.gossip.Cover(vc)
	}
}

// fire runs one gossip round: push every hot record to each peer, then go
// idle. The timer is re-armed by the next Publish or fresh receipt, never
// here — an unconditional re-arm would keep the kernel's queue non-empty
// forever.
func (g *gossiper) fire() {
	n := g.n
	batch := g.hot[:0]
	for _, iv := range g.hot {
		if iv.ID.Seq <= n.gcBase[iv.ID.Node] {
			continue // collected since it was queued; every peer skips it too
		}
		if iv.ID.Seq <= g.covered[iv.ID.Node] {
			continue // a barrier release delivered it everywhere already
		}
		batch = append(batch, iv)
	}
	g.hot = nil
	if len(batch) == 0 {
		return
	}
	sort.Slice(batch, func(i, j int) bool {
		if batch[i].ID.Node != batch[j].ID.Node {
			return batch[i].ID.Node < batch[j].ID.Node
		}
		return batch[i].ID.Seq < batch[j].ID.Seq
	})
	g.round++
	n.bus.Emit(event.GossipPush(n.ID, g.round, len(batch), len(g.peers)))

	pl := &msgGossip{From: n.ID, Ivs: batch}
	for _, q := range g.peers {
		n.post(0, n.msg(q, KindGossip, pl))
	}
}

// handle takes in one gossip push. A record this node has not seen is
// queued for relay at once, but it is only recorded (its pages invalidated)
// when it is causally closed here — see drain — and until then it waits on
// the held list. Unlike ERC's handleEagerNotice, which may record on arrival
// because per-pair FIFO delivers a creator's records in order, relayed
// records arrive in any order: peer A may learn (q,5) before (q,4), or
// before a third node's interval that (q,5) was created after.
func (g *gossiper) handle(m *msgGossip) {
	n := g.n
	fresh := false
	for _, iv := range m.Ivs {
		q := iv.ID.Node
		if q == n.ID || iv.ID.Seq <= n.vc[q] || g.seen(iv.ID) {
			continue // own, already covered (or collected), or known
		}
		g.held = append(g.held, iv)
		if iv.ID.Seq > g.covered[q] {
			g.hot = append(g.hot, iv)
			fresh = true
		}
	}
	n.CPU.Service(g.drain(), sim.CatDSM)
	if fresh && !g.timer.Active() {
		g.timer.Arm(g.interval)
	}
}

// seen reports whether this node already has id's record: recorded (possibly
// deferred, in the barrier-server role) or waiting on the held list.
func (g *gossiper) seen(id lrc.IntervalID) bool {
	if g.n.rec(id.Node, id.Seq) != nil {
		return true
	}
	for _, iv := range g.held {
		if iv.ID == id {
			return true
		}
	}
	return false
}

// drain records every held record that is causally closed: this node's
// vector time covers the creator's previous interval and every third-party
// interval the record was created after. Recording invalidates the record's
// pages and advances the creator's vector entry to it in one step, so the
// node never holds an invalidation whose causal predecessors it does not
// know — a fault in that state would apply the newer diff alone and let the
// older one overwrite it later — and never claims an interval it has not
// invalidated. Each recording can close others, so drain repeats to a fixed
// point. Records a lock grant or barrier release delivered meanwhile are
// dropped. Returns the CPU cost to charge.
func (g *gossiper) drain() sim.Time {
	n := g.n
	var cost sim.Time
	for progress := true; progress; {
		progress = false
		keep := g.held[:0]
		for _, iv := range g.held {
			q := iv.ID.Node
			switch {
			case iv.ID.Seq <= n.vc[q]:
			case g.closed(iv):
				cost += n.take(iv)
				n.vc[q] = iv.ID.Seq
				progress = true
			default:
				keep = append(keep, iv)
			}
		}
		g.held = keep
	}
	return cost
}

// closed reports whether this node's vector time covers everything iv was
// created after: the creator's previous interval and every other node's
// intervals in iv's vector time (its own entry aside — a node knows its own).
func (g *gossiper) closed(iv *lrc.Interval) bool {
	n := g.n
	for x, s := range iv.VC {
		if x == iv.ID.Node {
			s-- // the creator's previous interval
		}
		if x != n.ID && s > n.vc[x] {
			return false
		}
	}
	return true
}
