// Package proto implements the software DSM protocol engine as a chassis
// plus one pluggable policy seam. The chassis (Node) owns the state and the
// mechanisms every backend shares — vector time, interval records, the page
// table with each page's stored diffs, in-flight fetch table and its
// lifecycle, the wire format, reliable transport, the synchronization
// manager (locks, barrier tree) and the diff collector — and delegates the
// coherence and prefetch decisions to the Coherence implementation selected
// by a declarative Spec from the backend table.
//
// Backends: "lrc" (TreadMarks-style lazy release consistency, the default),
// "erc" (eager release consistency: notices broadcast at every release),
// "hlrc" (home-based LRC: diffs flushed to per-page homes at release,
// whole-page fetches at fault time, no diff GC), and "adp" (adaptive:
// per-page switching between the diff-based and home-based regimes, driven
// by access counters at barrier episodes).
//
// File ownership:
//
//	protocol.go   Spec and the policy seam: Coherence
//	registry.go   the backend table (Lookup/Names), Spec.Validate, builders
//	node.go       the Node chassis: construction, page table, the fetch
//	              (startFetch/tryComplete/askDiffs/install, takePf),
//	              dispatch
//	messages.go   the wire module: kind table, payload types and their wire
//	              sizes, the one message constructor
//	costs.go      CPU cost model and the charging send helpers (post)
//	transport.go  reliable ack/retransmit transport (fault injection)
//	intervals.go  interval records, write notices, vector-time intake
//	diffstore.go  the diffs a page's state holds, lazy own-diff creation,
//	              causal apply
//	idset.go      idSet: the small ordered sets of interval ids fetches keep
//	prefetch.go   the shared prefetch chassis: admit, throttle, issue
//	lrc.go        lrcCoherence: demand and prefetch diff fetch, eager-RC
//	              broadcast
//	locks.go      syncManager: distributed queue locks with token caching
//	barriertree.go the barrier: a combining tree; "central" is its depth-1 case
//	gossip.go     seeded deterministic gossip write-notice dissemination
//	gc.go         lrcGC: diff garbage collection (threshold 0 = never)
//	hlrc.go       hlrcCoherence: protocol overview, state, release flush
//	hlrchome.go   hlrc home side: flush apply, parked requests, page serve
//	hlrcfault.go  hlrc requester side: faults, page requests and replies
//	hlrcpf.go     hlrc whole-page prefetch and its cache
//	homepolicy.go pluggable page→home policies, episode access counters
//	homemigrate.go home moves: the cut, drain-then-ship, install (dynamic)
//	adp.go        adpCoherence: modes, fault and message routing
//	adpdecide.go  adp's decide rule and lockstep mode flips
//	adpfetch.go   adp's split of a fetch, the hybrid fault and the fill
//	errors.go     InvariantError and deterministic failure dumps
//
// Each simulated processor owns one Node. Nodes communicate only through
// the simulated network and execute protocol work on their simulated CPU,
// so all protocol costs land in the right processor-time categories.
package proto

import (
	"slices"

	"godsm/internal/event"
	"godsm/internal/lrc"
	"godsm/internal/netsim"
	"godsm/internal/pagemem"
	"godsm/internal/sim"
)

// Node is one processor's protocol engine chassis.
type Node struct {
	ID int
	N  int // number of processors

	K   *sim.Kernel
	CPU *sim.CPU
	C   *Costs
	bus *event.Bus // the kernel's event bus; counters and traces derive from it

	// Send transmits a message on the simulated network; injected by the
	// cluster wiring. Returns the delivery time or -1 if dropped.
	Send func(*netsim.Message) sim.Time

	Store *pagemem.Store

	mt         bool // multithreading active: arrivals pay the async-signal surcharge
	pfReliable bool // Spec.PfReliable: prefetch datagrams are sent reliable (never dropped)

	// The policy seam, built by the configured backend (registry.go), and
	// the synchronization manager and diff collector every backend shares.
	coh  Coherence
	sync *syncManager
	gc   *lrcGC

	// nf is coh's write-notice filter, cached to keep the intake path's
	// type assertion out of the per-notice loop; nil when coh has none.
	nf noticeFilter

	// hl is the home-based engine that serves a fetch's base side (hlrc's,
	// or the one adp embeds); nil under the diff-based backends, whose
	// fetches are all diffs.
	hl *hlrcCoherence

	// Lazy release consistency state. log is the machine's interval log,
	// log[node][seq-1], shared by every node; this node holds records
	// (q, gcBase[q]+1 … held[q]) and those in early, taken ahead of a gap
	// (intervals.go), and reads them through rec.
	vc    lrc.VC
	log   [][]*lrc.Interval
	held  lrc.VC
	early idSet

	// Per-page protocol state, which is also the diff store: a page's diffs
	// hang off its entry (diffstore.go). Entries appear a leaf at a time;
	// the zero pageState means valid+clean with nothing stored, so an
	// untouched entry and a missing leaf read the same.
	pages pagemem.Table[pageState]

	// Scratch for the fault path's short lists (missingDiffs and
	// tryComplete's asks, tryComplete's diff side, applyDiffs) and for the
	// records an intake or flushDeferred invalidates, reused so that
	// neither allocates them.
	missScratch []lrc.IntervalID
	diffScratch []lrc.IntervalID
	ivScratch   []*lrc.Interval

	// Pages twinned during the current (open) interval; becomes the next
	// interval's write notices.
	pendingNotices []pagemem.PageID

	// Own intervals not yet shipped to the barrier manager.
	ownSinceBarrier []*lrc.Interval

	// In-flight demand fetches, by page (request combining).
	fetches map[pagemem.PageID]*fetch

	// Prefetch state, by page.
	pf        map[pagemem.PageID]*pfState
	pfHeap    int64 // bytes in the prefetch cache (the "separate heap")
	diffBytes int64 // bytes of ordinary stored diffs (GC accounting)

	// Deferred invalidations (barrier-manager server role; see record in
	// intervals.go), in the order the records were taken.
	deferredSet idSet

	// gcBase: records below this vector time have been collected (gc.go).
	gcBase lrc.VC

	// gossip disseminates write notices in deterministic rounds when the
	// Gossip knob is set (gossip.go); nil otherwise.
	gossip *gossiper

	// Reliable transport state, one peer per remote node; nil until
	// EnableTransport (transport.go). Nil means fiat delivery.
	xp []*xpPeer
}

// pageState tracks one page's coherence state at this node. The zero value
// is a valid, clean page nobody has accessed yet.
type pageState struct {
	// pending are write-notice intervals (by other nodes) whose diffs have
	// not yet been applied to the local frame. Non-empty means invalid.
	pending []lrc.IntervalID

	// frame caches Store.Frame for the access fast path (Hit); nil until
	// the first access through Frame. Never invalidated: pagemem.Store
	// promises frames never move once materialised.
	frame *[pagemem.PageSize]byte

	// undiffed: the (single) own write notice whose diff has not yet been
	// created; zero Node+Seq when none. See DESIGN.md §4.
	undiffed    lrc.IntervalID
	hasUndiffed bool

	// twinned: the page has a twin and is collecting local modifications.
	twinned bool

	// batch counts the notices for this page in the batch being invalidated
	// (invalidate, intervals.go); zero between batches.
	batch uint16

	// flushed is the sequence of the last own interval whose diff of this
	// page was flushed to a home (home-based engines; zero when none). A
	// page request carries it, and the home serves no copy older than it.
	flushed int32

	// diffs are the diffs of this page the node holds, its own and those it
	// fetched, in arrival order until a collection drops them (diffstore.go).
	diffs []heldDiff
}

// fetch is one in-flight fetch of a page (DESIGN.md §4, "Fetch"). Each
// pending interval of the page is resolved on one of two sides. It is on the
// base side when a copy of the page covers it: the home's reply, or — at the
// home — the local frame once covered says so. It is on the diff side when
// its writer's diff, stored here, covers it. The backend only decides the
// split (Coherence.onBase): lrc puts everything on the diff side, hlrc
// everything on the base side, adp splits a page evicted from home mode at
// its exCover, and a fill is all diffs on the local frame. tryComplete does
// the rest.
type fetch struct {
	page    pagemem.PageID
	waiters []func()
	start   sim.Time

	// needed holds the asked ids whose diff or covering copy has not
	// arrived; nothing more is asked while it is non-empty. asked holds
	// every base-side id requested from the home so far (a diff-side id is
	// asked until its diff is stored, so needed says all there is).
	needed idSet
	asked  idSet

	// base is the newest copy the home sent, nil until one arrives; each
	// reply's copy covers everything an earlier one did, since the home's
	// frame only grows.
	base []byte

	// atFlush: the fetch completes at the done of the flush that covers it,
	// taken before that flush's handler serves the requests it unparks,
	// rather than when its own install's CPU work does. Set for hlrc's home
	// wait, whose install is empty; every other fetch reads the clock after
	// whatever the completing handler posted first.
	atFlush bool

	// fillVC is set on an adp fill: the switch-time vector time the frame
	// covers, as the page's home copy, once the fill installs (adpfetch.go).
	fillVC lrc.VC
}

type pfState struct {
	requested idSet // intervals the prefetch asked for
	inflight  int   // outstanding request messages
}

// startFetch registers f, born now, as its page's in-flight fetch and
// advances it, charging entry (the fault's entry cost) with whatever the
// first tryComplete asks.
func (n *Node) startFetch(f *fetch, entry sim.Time) {
	n.openFetch(f)
	n.tryComplete(f.page, entry, 0)
}

// openFetch registers f, born now, as its page's in-flight fetch.
func (n *Node) openFetch(f *fetch) {
	f.start = n.K.Now()
	n.fetches[f.page] = f
}

// tryComplete advances p's in-flight fetch, if any, after whatever might
// have changed it: a reply, a flush, the fetch's start. While an ask is
// outstanding nothing can change: the asked interval is still lacking, and
// nothing more is asked until it lands. Otherwise it re-derives the split
// from p's pending list. While the base side lacks something the diffs wait,
// since they apply on top of the base; the side being collected asks for
// every id neither held nor asked yet. Once both sides are satisfied it
// installs and completes the fetch. entry is CPU work to charge first;
// flushDone is the done of the covering flush when a flush or a home
// transfer calls (atFlush).
func (n *Node) tryComplete(p pagemem.PageID, entry, flushDone sim.Time) {
	f := n.fetches[p]
	if f == nil || len(f.needed) > 0 {
		return
	}
	ps := n.page(p)
	home := -1       // p's home, once some interval is on the base side
	waiting := false // the base is the local frame, and a flush is missing
	ask := n.missScratch[:0]
	for _, id := range ps.pending {
		if !n.coh.onBase(f, id) {
			continue
		}
		if home < 0 {
			home = n.hl.home(p)
		}
		if home == n.ID {
			waiting = waiting || !n.hl.covered(p, id)
		} else if !f.asked.has(id) {
			ask = append(ask, id)
		}
	}
	baseLacks := waiting || len(ask) > 0
	diffs := n.diffScratch[:0]
	for _, id := range ps.pending {
		if baseLacks || n.coh.onBase(f, id) {
			continue
		}
		diffs = append(diffs, id)
		if _, ok := ps.held(id); !ok {
			ask = append(ask, id)
		}
	}
	n.missScratch, n.diffScratch = ask, diffs
	if len(ask) > 0 {
		if baseLacks {
			f.needed = append(f.needed, ask...)
			f.asked = append(f.asked, ask...)
			n.post(entry, n.hl.pageReq(p, slices.Clone(ask), false))
			return
		}
		n.askDiffs(f, entry, ask)
		return
	}
	if entry > 0 {
		n.CPU.Service(entry, sim.CatDSM)
	}
	if waiting {
		return
	}
	cost := n.install(p, f.base, home, diffs)
	done := flushDone
	if !f.atFlush {
		done = n.CPU.Service(cost, sim.CatDSM)
	}
	// The fetch leaves the table before a fill's replay, whose flushes call
	// here; its waiters run (in kernel context) at done.
	delete(n.fetches, p)
	if f.fillVC != nil {
		n.hl.settle(p, f.fillVC)
	}
	n.bus.Emit(event.FetchDone(n.ID, int64(p), done-f.start))
	n.K.At(done, func() {
		for _, w := range f.waiters {
			w()
		}
	})
}

// askDiffs asks the writers of ids for their diffs on f's behalf, one
// request per writer, charging entry with the sends.
func (n *Node) askDiffs(f *fetch, entry sim.Time, ids []lrc.IntervalID) {
	f.needed = append(f.needed, ids...)
	msgs := n.diffReqs(f.page, ids, false)
	done := n.CPU.Service(entry+sim.Time(len(msgs))*n.C.MsgSend, sim.CatDSM)
	for _, m := range msgs {
		n.sendAfter(done, m)
	}
}

// install validates p from base — a copy of the page, nil when the frame is
// the base already; from names the home that sent it, or is -1 for a copy
// that was not fetched now — and the stored diffs of ids, and returns the
// CPU cost. If the install writes the frame, open local writes are committed
// as a diff first (TreadMarks's rule: otherwise later local writes, which
// may causally depend on the data applied now, would ride in the older
// concurrent interval's lazily made diff, and a third node applying diffs
// in causal order would order the dependency backwards). The base goes
// down, the diffs apply causally on top, and the local writes are re-applied
// over a copied base last: they are concurrent with everything the install
// brings, hence byte-disjoint under race freedom.
func (n *Node) install(p pagemem.PageID, base []byte, from int, ids []lrc.IntervalID) sim.Time {
	ps := n.page(p)
	var cost sim.Time
	var lm *pagemem.Diff
	if ps.twinned && (base != nil || len(ids) > 0) {
		if base != nil {
			lm = pagemem.MakeDiff(p, n.Store.Twin(p), n.Store.Frame(p))
		}
		cost += n.makeOwnDiff(p)
	}
	if base != nil {
		copy(n.Store.Frame(p), base)
		if from >= 0 {
			n.bus.Emit(event.HomeFetch(n.ID, from, int64(p), pagemem.PageSize))
		}
		cost += n.C.DiffApply + sim.Time(n.C.ApplyNs*float64(pagemem.PageSize))
	}
	cost += n.applyDiffs(p, ids)
	if !lm.Empty() {
		lm.Apply(n.Store.Frame(p))
	}
	ps.pending = ps.pending[:0]
	return cost
}

// takePf removes p's prefetch bookkeeping at a fault and classifies the
// fault for Figure 3 against ids, the intervals the fault must resolve: no
// prefetch was issued, the prefetch predates some of them (invalidated), or
// it asked for all of them and has not landed (late).
func (n *Node) takePf(p pagemem.PageID, ids []lrc.IntervalID) (outcome int64) {
	pfst := n.pf[p]
	delete(n.pf, p)
	switch {
	case pfst == nil:
		return event.OutcomeNoPf
	case anyOutside(ids, pfst.requested):
		return event.OutcomePfInvalided
	default:
		return event.OutcomePfLate
	}
}

// NewNode constructs protocol node id of the machine whose interval log is
// log — one list per node, len(log) nodes, shared by all of them: each node
// appends the intervals it closes to its own list — running the backend cfg
// selects. Wire Send before use. Protocol occurrences are emitted on k's event bus;
// subscribe a stats.Collector to derive per-node counters. NewNode panics
// on an invalid Spec — callers validate user input with Spec.Validate first.
func NewNode(id int, log [][]*lrc.Interval, k *sim.Kernel, cpu *sim.CPU, c *Costs, cfg Spec) *Node {
	if err := cfg.Validate(); err != nil {
		configInvariantf("proto: %v", err)
	}
	b, _ := Lookup(cfg.Protocol) // Validate resolved it
	n := len(log)
	nd := &Node{
		ID:      id,
		N:       n,
		K:       k,
		CPU:     cpu,
		C:       c,
		bus:     k.Bus(),
		Store:   pagemem.NewStore(),
		vc:      lrc.NewVC(n),
		log:     log,
		held:    lrc.NewVC(n),
		fetches: make(map[pagemem.PageID]*fetch),
		pf:      make(map[pagemem.PageID]*pfState),
		gcBase:  lrc.NewVC(n),

		pfReliable: cfg.PfReliable,
	}
	nd.coh = b.Build(nd, cfg)
	nd.sync = newSyncManager(nd, cfg)
	nd.gc = &lrcGC{n: nd, threshold: cfg.GCThreshold, sharedPfHeap: cfg.PfHeapSharedGC}
	if f, ok := nd.coh.(noticeFilter); ok {
		nd.nf = f
	}
	return nd
}

// SetMT enables or disables the multithreading arrival surcharge.
func (n *Node) SetMT(on bool) { n.mt = on }

// VC returns the node's current vector time (read-only; do not mutate).
func (n *Node) VC() lrc.VC { return n.vc }

func (n *Node) page(p pagemem.PageID) *pageState { return n.pages.Entry(p) }

// PageValid reports whether page p may be read locally without a fault.
func (n *Node) PageValid(p pagemem.PageID) bool {
	ps := n.pages.Lookup(p)
	return ps == nil || len(ps.pending) == 0
}

// PageWritable reports whether p is valid and already twinned, i.e. a write
// needs no protocol action.
func (n *Node) PageWritable(p pagemem.PageID) bool {
	ps := n.pages.Lookup(p)
	return ps != nil && len(ps.pending) == 0 && ps.twinned
}

// Hit is the access fast path, the one page-table lookup a simulated load
// or store pays: it returns p's frame if the access needs no protocol
// action — p is valid, twinned if write is set, and was accessed through
// Frame before — and nil otherwise. It never allocates or changes state.
func (n *Node) Hit(p pagemem.PageID, write bool) []byte {
	ps := n.pages.Lookup(p)
	if ps == nil || ps.frame == nil || len(ps.pending) != 0 || write && !ps.twinned {
		return nil
	}
	return ps.frame[:]
}

// Frame exposes the local frame for direct data access by the env layer,
// and arms Hit for p.
func (n *Node) Frame(p pagemem.PageID) []byte {
	ps := n.page(p)
	if ps.frame == nil {
		ps.frame = (*[pagemem.PageSize]byte)(n.Store.Frame(p))
	}
	return ps.frame[:]
}

// EnsureWritable prepares a valid page for local modification: on the first
// write since the page was last clean it creates the twin and records the
// pending write notice for the current open interval. The page must be
// valid.
func (n *Node) EnsureWritable(p pagemem.PageID) {
	ps := n.page(p)
	if len(ps.pending) != 0 {
		n.pageInvariantf(p, "EnsureWritable on invalid page %d (node %d)", p, n.ID)
	}
	if ps.twinned {
		return
	}
	n.Store.MakeTwin(p)
	n.bus.Emit(event.Twin(n.ID, int64(p)))
	ps.twinned = true
	n.pendingNotices = append(n.pendingNotices, p)
	n.CPU.Service(n.C.TwinMake, sim.CatDSM)
}

// Fault resolves an access to an invalid page: a fault on a page already
// being fetched joins that fetch (request combining), any other goes to the
// backend's coherence policy. See Coherence.Fault.
func (n *Node) Fault(p pagemem.PageID, onValid func()) {
	if n.PageValid(p) {
		n.pageInvariantf(p, "Fault on valid page %d", p)
	}
	if f := n.fetches[p]; f != nil {
		f.waiters = append(f.waiters, onValid)
		return
	}
	n.coh.Fault(p, onValid)
}

// Prefetch issues a non-binding prefetch through the backend's policy,
// returning the number of request messages sent.
func (n *Node) Prefetch(p pagemem.PageID) int { return n.coh.Prefetch(p) }

// AcquireLock acquires lock id, reporting true if the acquire completed
// immediately (cached token); otherwise onGranted runs (in kernel context)
// when the grant arrives.
func (n *Node) AcquireLock(id int, onGranted func()) bool { return n.sync.AcquireLock(id, onGranted) }

// ReleaseLock releases lock id, closing the current interval (the
// release-consistency boundary).
func (n *Node) ReleaseLock(id int) { n.sync.ReleaseLock(id) }

// Barrier arrives at barrier id; onRelease runs (in kernel context) when the
// barrier releases.
func (n *Node) Barrier(id int, onRelease func()) { n.sync.bar.Barrier(id, onRelease) }

// DiffHeapBytes returns the bytes of ordinary stored diffs.
func (n *Node) DiffHeapBytes() int64 { return n.diffBytes }

// Deliver receives an arriving network message. It charges receive-side
// CPU costs (plus the async-signal surcharge under multithreading), filters
// the message through the reliable transport when one is enabled (ack
// processing, duplicate suppression, reordering repair), and dispatches
// whatever becomes deliverable.
func (n *Node) Deliver(m *netsim.Message) {
	recv := n.C.MsgRecv
	if n.mt {
		recv += n.C.MTSig
	}
	n.CPU.Service(recv, sim.CatDSM)
	if n.xp != nil {
		n.xpReceive(m)
		return
	}
	n.dispatch(m)
}

// dispatch hands one in-order message to the subsystem that owns its kind;
// a kind nobody owns, or a payload its owner does not know, is a protocol
// invariant violation.
func (n *Node) dispatch(m *netsim.Message) {
	ok := false
	switch kinds[m.Kind].owner {
	case ownSync:
		ok = n.sync.Handle(m)
	case ownCoherence:
		ok = n.coh.Handle(m)
	case ownGC:
		ok = n.gc.Handle(m)
	case ownGossip:
		pl, isGossip := m.Payload.(*msgGossip)
		if ok = isGossip && n.gossip != nil; ok {
			n.gossip.handle(pl)
		}
	}
	if !ok {
		n.invariantf("node %d: unknown message payload %T (kind %s)", n.ID, m.Payload, KindName(m.Kind))
	}
}
