package proto

import (
	"godsm/internal/lrc"
	"godsm/internal/netsim"
	"godsm/internal/pagemem"
	"godsm/internal/sim"
)

// Spec declaratively selects a protocol backend and its policy knobs. It is
// the only declaration of these fields: the cluster configuration
// (core.Config, public as dsm.Config) embeds it, so cfg.Protocol,
// cfg.Gossip, ... are the fields below. The zero value is the default
// TreadMarks-style lazy release consistency engine with every knob off. A
// Spec is validated once (Validate) and then used to build every node.
type Spec struct {
	// Protocol names a backend ("lrc", "erc", "hlrc", "adp"); empty selects
	// the default "lrc". Names lists them.
	Protocol string

	// HomePolicy selects the page→home assignment policy of the home-based
	// backend: "static" (fixed page mod N; empty selects it, keeping the
	// default path byte-identical), "firsttouch" (a page's home is fixed at
	// the node that first shows traffic on it), or "migrate" (homes follow
	// the dominant accessor across barrier episodes). Only meaningful for
	// "hlrc"; the other backends reject a non-empty value ("adp" keeps
	// homes static and adapts the per-page protocol mode instead).
	HomePolicy string

	// ThrottlePf > 0 drops every ThrottlePf-th prefetch at issue time
	// (Section 5.1's RADIX optimization).
	ThrottlePf int

	// GCThreshold triggers diff garbage collection at barriers once a
	// node's diff storage exceeds it (bytes). Zero disables GC. Only
	// meaningful for diff-based backends; HLRC rejects it.
	GCThreshold int64

	// NoTokenCache returns the lock token to its manager at every release
	// (centralized locks): no last-holder re-acquire, and every acquire
	// pays the manager round trip.
	NoTokenCache bool

	// PfReliable makes prefetch messages reliable (never dropped), so
	// congested prefetches queue instead of falling back to demand fetches.
	PfReliable bool

	// PfHeapSharedGC counts the prefetch diff cache toward the GC trigger,
	// removing the paper's separate-heap relief (footnote 6). HLRC rejects
	// it along with the other diff-GC knobs.
	PfHeapSharedGC bool

	// Barrier selects the shape of the barrier's combining tree
	// (barriertree.go), whose arrivals combine interval/VC payloads upward
	// and whose releases fan down: "central" (the paper's single manager —
	// node 0 the parent of every other node; empty selects it) or "tree"
	// (arity BarrierFanout, so no node serves more than that many children).
	Barrier string

	// BarrierFanout is the arity under Barrier "tree"; zero means
	// DefaultBarrierFanout. A fanout >= N-1 is the central barrier.
	BarrierFanout int

	// Gossip replaces broadcast write-notice dissemination with seeded
	// deterministic gossip rounds (gossip.go): each interval close joins a
	// per-node hot set that is pushed, batched, to a fixed fanout of peers;
	// receivers relay records they had not seen. Diff-based backends only;
	// HLRC rejects it (notices travel through homes there).
	Gossip bool

	// GossipFanout is the number of peers each gossip round pushes to;
	// zero means DefaultGossipFanout. The first peer is always the ring
	// successor (guaranteeing every notice reaches every node); the rest
	// are a seeded deterministic sample.
	GossipFanout int

	// GossipSeed seeds the per-node long-link selection. Runs with equal
	// seeds are byte-identical.
	GossipSeed int64
}

// Defaults for the scalable-machine knobs.
const (
	DefaultBarrierFanout = 4
	DefaultGossipFanout  = 2
)

// gossipInterval is the batching delay between a record entering the hot
// set and the round that pushes it. It spans a few message flight times, so
// the records a node learns from several peers coalesce into one push — with
// an interval at or below the flight time every trickled-in record fires its
// own round and gossip degenerates to per-record forwarding, costing more
// messages than the broadcast it replaces.
const gossipInterval = 2 * sim.Millisecond

// The protocol engine has one policy seam, the interface below. The Node
// (node.go) is the shared chassis: it owns the vector time, interval
// records, page table, diff store, in-flight fetch table, transport,
// synchronization manager and diff collector, and delegates the coherence
// and prefetch decisions to the implementation its backend built.

// Coherence is the fault/validate/write-notice policy: what happens on an
// access to an invalid page, how a page is prefetched, what happens when an
// interval closes, and how the backend's own wire messages are handled.
type Coherence interface {
	// Fault resolves an access to a page the chassis found invalid. onValid
	// runs (in kernel context) once the page is valid; the caller parks the
	// faulting thread until then. Concurrent faults on the same page must
	// join the in-flight fetch (request combining).
	Fault(p pagemem.PageID, onValid func())

	// Prefetch issues a software-controlled non-binding prefetch for page
	// p, returning the number of request messages sent (0 when dropped).
	Prefetch(p pagemem.PageID) int

	// AfterClose runs immediately after the chassis closes a non-empty
	// interval: eager backends push write notices or flush diffs here.
	AfterClose(iv *lrc.Interval)

	// Handle dispatches one in-order message of a coherence-owned kind; it
	// reports false for a payload the backend does not know.
	Handle(m *netsim.Message) bool

	// onBase places pending interval id of f's page on the fetch's base
	// side, resolved by a copy of the page, rather than on its diff side,
	// resolved by the writer's diff: the one decision a fetch leaves to the
	// backend (node.go, fetch).
	onBase(f *fetch, id lrc.IntervalID) bool

	// The barrier's hooks for backends whose page→home or page→mode
	// assignment adapts at episode boundaries (a fixed backend reports and
	// decides nothing): episodeAcc drains this node's access counters for
	// its arrival, decideMoves runs at the root with every node's records,
	// and applyMoves applies the root's decisions to this node's replica,
	// on every node after release intake, before threads resume.
	episodeAcc() []PageAcc
	decideMoves(acc []PageAcc) []HomeMove
	applyMoves(moves []HomeMove)
}
