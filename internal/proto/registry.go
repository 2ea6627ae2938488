package proto

import (
	"fmt"
	"sort"

	"godsm/internal/lrc"
	"godsm/internal/pagemem"
)

// Backend is one registered coherence protocol: a name, a one-line
// description, an optional config validator, and a builder producing the
// per-node coherence policy and prefetcher.
type Backend struct {
	Name string
	Doc  string

	// Validate rejects Spec combinations the backend cannot honor; nil
	// accepts everything.
	Validate func(cfg Spec) error

	// Build constructs the backend's policies for one node. It runs during
	// NewNode, after the chassis state is initialized.
	Build func(n *Node, cfg Spec) (Coherence, Prefetcher)
}

// The registry is populated at init time (and by tests); simulations only
// read it, so no locking is needed beyond Go's init ordering.
var registry = map[string]*Backend{}

// Register adds a backend to the protocol registry. It panics on a
// duplicate or empty name — registration happens at init time, where a
// conflict is a programming error.
func Register(b *Backend) {
	if b.Name == "" {
		configInvariantf("proto: Register with empty backend name")
	}
	if _, dup := registry[b.Name]; dup {
		configInvariantf("proto: duplicate backend %s", b.Name)
	}
	registry[b.Name] = b
}

// Lookup resolves a protocol name to its backend. The empty name resolves
// to the default ("lrc"). Unknown names return an error listing the
// registered protocols.
func Lookup(name string) (*Backend, error) {
	if name == "" {
		name = "lrc"
	}
	b, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("unknown protocol %q (registered: %v)", name, Names())
	}
	return b, nil
}

// Names returns the registered protocol names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Validate checks that cfg names a registered backend, that the
// backend-independent knobs are in range, and that the backend accepts the
// combination.
func (cfg Spec) Validate() error {
	b, err := Lookup(cfg.Protocol)
	if err != nil {
		return err
	}
	if err := validateCommon(cfg); err != nil {
		return err
	}
	if b.Validate != nil {
		return b.Validate(cfg)
	}
	return nil
}

// validateCommon checks the backend-independent machine knobs (barrier
// topology, gossip parameters).
func validateCommon(cfg Spec) error {
	switch cfg.Barrier {
	case "", "central", "tree":
	default:
		return fmt.Errorf("unknown barrier %q (have: central, tree)", cfg.Barrier)
	}
	if cfg.BarrierFanout != 0 && cfg.BarrierFanout < 2 {
		return fmt.Errorf("barrier fanout %d: a combining tree needs arity >= 2", cfg.BarrierFanout)
	}
	if cfg.GossipFanout < 0 {
		return fmt.Errorf("gossip fanout %d must be >= 0 (0 selects the default)", cfg.GossipFanout)
	}
	if cfg.GossipInterval < 0 {
		return fmt.Errorf("gossip interval %d must be >= 0 (0 selects the default)", cfg.GossipInterval)
	}
	return nil
}

// rejectHomePolicy is the validation shared by every backend without
// pluggable homes.
func rejectHomePolicy(proto string, cfg Spec) error {
	if cfg.HomePolicy != "" {
		return fmt.Errorf("protocol %s has no home assignment; HomePolicy must be empty, got %q", proto, cfg.HomePolicy)
	}
	return nil
}

func init() {
	Register(&Backend{
		Name:     "lrc",
		Doc:      "TreadMarks-style lazy release consistency: distributed diff fetch at fault time, diff GC at barriers",
		Validate: func(cfg Spec) error { return rejectHomePolicy("lrc", cfg) },
		Build:    buildDiffBased(false),
	})
	Register(&Backend{
		Name:     "erc",
		Doc:      "eager release consistency (Munin-style): write notices broadcast at every release; data still moves as lazy diffs",
		Validate: func(cfg Spec) error { return rejectHomePolicy("erc", cfg) },
		Build:    buildDiffBased(true),
	})
	Register(&Backend{
		Name:     "hlrc",
		Doc:      "home-based LRC: writers flush diffs to each page's home at release; faults fetch the whole page from home; no diff GC",
		Validate: validateHLRC,
		Build:    buildHLRC,
	})
	Register(&Backend{
		Name:     "adp",
		Doc:      "adaptive coherence: per-page switching between diff-based (lrc) and home-based (hlrc) regimes at barrier episodes",
		Validate: validateADP,
		Build:    buildADP,
	})
}

// buildDiffBased builds the shared LRC/ERC policy pair; eager selects the
// eager-release-consistency notice broadcast at interval close.
func buildDiffBased(eager bool) func(n *Node, cfg Spec) (Coherence, Prefetcher) {
	return func(n *Node, cfg Spec) (Coherence, Prefetcher) {
		if cfg.Gossip {
			n.gossip = newGossiper(n, cfg) // nil on one-node clusters
		}
		return &lrcCoherence{n: n, eager: eager, pfReliable: cfg.PfReliable},
			&lrcPrefetcher{n: n, throttle: cfg.ThrottlePf, reliable: cfg.PfReliable}
	}
}

func validateHLRC(cfg Spec) error {
	if cfg.GCThreshold != 0 {
		return fmt.Errorf("protocol hlrc has no diff GC (homes apply diffs eagerly); GCThreshold must be 0, got %d", cfg.GCThreshold)
	}
	if cfg.PfHeapSharedGC {
		return fmt.Errorf("protocol hlrc has no diff GC; PfHeapSharedGC does not apply")
	}
	if cfg.Gossip {
		return fmt.Errorf("protocol hlrc distributes notices through page homes; Gossip does not apply")
	}
	if _, err := newHomePolicy(cfg.HomePolicy); err != nil {
		return err
	}
	return nil
}

// newHLRC builds the home-based coherence pair. The adaptive backend embeds
// one with the static policy and tracking off (it counts at its own layer).
func newHLRC(n *Node, cfg Spec, policy HomePolicy) (*hlrcCoherence, *hlrcPrefetcher) {
	pf := &hlrcPrefetcher{
		n: n, throttle: cfg.ThrottlePf, reliable: cfg.PfReliable,
		cache: make(map[pagemem.PageID]*pfPage),
	}
	coh := &hlrcCoherence{
		n: n, pf: pf, pfReliable: cfg.PfReliable,
		homes:   newHomeTable(n.N),
		policy:  policy,
		dyn:     policy.Dynamic(),
		applied: make(map[pagemem.PageID]lrc.VC),
		parked:  make(map[pagemem.PageID][]*msgPageReq),
		asked:   make(map[pagemem.PageID]map[lrc.IntervalID]bool),
	}
	if coh.dyn {
		coh.track = true
		coh.acc = newAccSet()
		coh.xin = make(map[pagemem.PageID]*xferIn)
		coh.away = make(map[pagemem.PageID]bool)
	}
	pf.coh = coh
	return coh, pf
}

func buildHLRC(n *Node, cfg Spec) (Coherence, Prefetcher) {
	policy, err := newHomePolicy(cfg.HomePolicy)
	if err != nil {
		configInvariantf("proto: %v", err)
	}
	return newHLRC(n, cfg, policy)
}
