package proto

import (
	"fmt"

	"godsm/internal/lrc"
	"godsm/internal/pagemem"
)

// Backend is one coherence protocol: a name, a config validator, and a
// builder producing the per-node coherence policy.
type Backend struct {
	Name string

	// Validate rejects Spec combinations the backend cannot honor.
	Validate func(cfg Spec) error

	// Build constructs the backend's policy for one node. It runs during
	// NewNode, after the chassis state is initialized.
	Build func(n *Node, cfg Spec) Coherence
}

// backends is the closed set of protocols, in the (sorted) order Names
// reports them.
var backends = []Backend{
	// Adaptive coherence: per-page switching between the diff-based (lrc)
	// and home-based (hlrc) regimes at barrier episodes.
	{Name: "adp", Validate: validateADP, Build: buildADP},
	// Eager release consistency (Munin-style): write notices broadcast at
	// every release; data still moves as lazy diffs.
	{Name: "erc",
		Validate: func(cfg Spec) error { return rejectHomePolicy("erc", cfg) },
		Build:    func(n *Node, cfg Spec) Coherence { return newLRC(n, cfg, true) }},
	// Home-based LRC: writers flush diffs to each page's home at release;
	// faults fetch the whole page from home; no diff GC.
	{Name: "hlrc", Validate: validateHLRC, Build: buildHLRC},
	// TreadMarks-style lazy release consistency: distributed diff fetch at
	// fault time, diff GC at barriers.
	{Name: "lrc",
		Validate: func(cfg Spec) error { return rejectHomePolicy("lrc", cfg) },
		Build:    func(n *Node, cfg Spec) Coherence { return newLRC(n, cfg, false) }},
}

// Lookup resolves a protocol name to its backend. The empty name resolves
// to the default ("lrc"). Unknown names return an error listing the
// protocols.
func Lookup(name string) (*Backend, error) {
	if name == "" {
		name = "lrc"
	}
	for i := range backends {
		if backends[i].Name == name {
			return &backends[i], nil
		}
	}
	return nil, fmt.Errorf("unknown protocol %q (registered: %v)", name, Names())
}

// Names returns the protocol names, sorted.
func Names() []string {
	out := make([]string, len(backends))
	for i := range backends {
		out[i] = backends[i].Name
	}
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
	return b.Validate(cfg)
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

// newLRC builds the diff-based engine (and its gossiper, when configured);
// eager selects the eager-release-consistency notice broadcast at interval
// close. The adaptive backend embeds one.
func newLRC(n *Node, cfg Spec, eager bool) *lrcCoherence {
	if cfg.Gossip {
		n.gossip = newGossiper(n, cfg) // nil on one-node clusters
	}
	return &lrcCoherence{n: n, eager: eager, throttle: pfThrottle{every: cfg.ThrottlePf}}
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

// newHLRC builds the home-based engine, which serves the node's fetches
// their base side (Node.hl). The adaptive backend embeds one with the static
// policy and tracking off (it counts at its own layer).
func newHLRC(n *Node, cfg Spec, policy HomePolicy) *hlrcCoherence {
	coh := &hlrcCoherence{
		n: n, throttle: pfThrottle{every: cfg.ThrottlePf},
		pfCache: make(map[pagemem.PageID]*pfPage),
		homes:   newHomeTable(n.N),
		policy:  policy,
		dyn:     policy.Dynamic(),
		applied: make(map[pagemem.PageID]lrc.VC),
		parked:  make(map[pagemem.PageID][]*msgPageReq),
	}
	if coh.dyn {
		coh.track = true
		coh.acc = newAccSet()
		coh.xin = make(map[pagemem.PageID]*xferIn)
		coh.out = make(map[pagemem.PageID]*xferOut)
	}
	n.hl = coh
	return coh
}

func buildHLRC(n *Node, cfg Spec) Coherence {
	policy, err := newHomePolicy(cfg.HomePolicy)
	if err != nil {
		configInvariantf("proto: %v", err)
	}
	return newHLRC(n, cfg, policy)
}
