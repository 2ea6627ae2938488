// Package core assembles the simulated cluster and implements the paper's
// latency-tolerance machinery on top of the protocol engine: per-processor
// user-level thread scheduling (switch-on-miss and/or switch-on-sync, with
// request combining), and the application-facing environment that performs
// shared-memory accesses, inserts prefetches, and accumulates busy time.
package core

import (
	"fmt"

	"godsm/internal/lrc"
	"godsm/internal/netsim"
	"godsm/internal/pagemem"
	"godsm/internal/proto"
	"godsm/internal/race"
	"godsm/internal/sim"
	"godsm/internal/stats"
)

// Config selects a cluster configuration and latency-tolerance mode.
type Config struct {
	Procs          int // processors (paper: 8)
	ThreadsPerProc int // user-level threads per processor (1 = original)

	// Spec selects the coherence backend and its policy knobs (Protocol,
	// HomePolicy, ThrottlePf, GCThreshold, Barrier, Gossip, ... and the
	// protocol-level ablation switches). It is embedded, so the fields read
	// as cfg.Protocol, cfg.Gossip, ...; proto.Spec documents each one.
	proto.Spec

	// SwitchOnMiss makes a thread yield the processor on a remote memory
	// miss: the paper's "nT" configurations set it, the combined "nTP"
	// ones spin on misses (Section 5). On a synchronization stall a thread
	// with siblings always yields: one spin-waiting at a barrier would
	// starve them of the CPU forever.
	SwitchOnMiss bool

	// Prefetch tells the applications to execute their inserted prefetch
	// calls (Section 3).
	Prefetch bool

	// NoPfSuppress disables redundant-prefetch suppression between sibling
	// threads (Section 5.1); an ablation switch, normally false.
	NoPfSuppress bool

	// RaceCheck enables the deterministic happens-before race detector
	// (internal/race): every shared access is checked against the ordering
	// induced by Lock/Unlock and Barrier, and the first conflicting
	// unordered pair panics with a *race.RaceError naming both sites. Off
	// by default; when off the detector is not even constructed, so the
	// default path's output stays byte-identical.
	RaceCheck bool
	// RaceGranularity selects the detector's conflict unit: "" or "word"
	// (8-byte words — exact for the repo's apps) or "page" (whole
	// coherence pages, which additionally flags false sharing). Requires
	// RaceCheck.
	RaceGranularity string

	// AccessNs is the busy cost charged per shared-memory access.
	AccessNs sim.Time

	// LocalLockPass is the cost of handing a lock between threads on the
	// same processor.
	LocalLockPass sim.Time

	Net   netsim.Config
	Costs proto.Costs

	// Limit aborts the simulation at this virtual time (0 = none); used to
	// guard against accidental livelock in tests.
	Limit sim.Time
}

// DefaultConfig returns the paper's baseline: 8 processors, 1 thread each,
// no prefetching, calibrated ATM network and protocol costs.
func DefaultConfig() Config {
	return Config{
		Procs:          8,
		ThreadsPerProc: 1,
		AccessNs:       30,
		LocalLockPass:  5 * sim.Microsecond,
		Net:            netsim.DefaultConfig(),
		Costs:          proto.DefaultCosts(),
	}
}

// MT reports whether this configuration multithreads at all.
func (c *Config) MT() bool {
	return c.ThreadsPerProc > 1
}

// System is one simulated cluster run.
type System struct {
	Cfg   Config
	K     *sim.Kernel
	Net   *netsim.Network
	Alloc *pagemem.Allocator

	CPUs    []*sim.CPU
	Nodes   []*proto.Node
	NodeSt  []stats.Node
	Procs   []*Processor
	started bool

	// snap is the report frozen at EndMeasurement, so that verification
	// reads after the timed region do not pollute the reported metrics.
	snap *stats.Report
}

// Validate checks the whole configuration — processor and thread counts,
// thread-switching rules, race-detector granularity, interconnect topology,
// and the protocol spec — and reports the first problem as a plain error.
// It is the only validator: NewSystem panics on its error, and front ends
// call it first so user mistakes surface as usage errors.
func (c Config) Validate() error {
	if c.Procs <= 0 || c.ThreadsPerProc <= 0 {
		return fmt.Errorf("Procs and ThreadsPerProc must be positive (got %d and %d)",
			c.Procs, c.ThreadsPerProc)
	}
	if c.RaceGranularity != "" && !c.RaceCheck {
		return fmt.Errorf("RaceGranularity set without RaceCheck")
	}
	if _, err := race.ParseGranularity(c.RaceGranularity); err != nil {
		return err
	}
	if n := c.Procs * c.ThreadsPerProc; c.RaceCheck && n >= race.MaxThreads {
		return fmt.Errorf("RaceCheck supports fewer than %d threads (got %d × %d = %d)",
			race.MaxThreads, c.Procs, c.ThreadsPerProc, n)
	}
	if err := c.Net.Validate(c.Procs); err != nil {
		return err
	}
	return c.Spec.Validate()
}

// NewSystem builds the cluster.
func NewSystem(cfg Config) *System {
	if err := cfg.Validate(); err != nil {
		panic("core: " + err.Error())
	}
	s := &System{Cfg: cfg, K: sim.NewKernel(), Alloc: pagemem.NewAllocator()}
	if cfg.Limit > 0 {
		s.K.SetLimit(cfg.Limit)
	}
	s.Net = netsim.New(s.K, cfg.Procs, cfg.Net, func(m *netsim.Message) {
		s.Nodes[m.Dst].Deliver(m)
	})
	s.NodeSt = make([]stats.Node, cfg.Procs)
	// All per-node protocol counters are derived from the event bus: layers
	// emit at the point something happens and the collector folds the events
	// into NodeSt, so counters and traces can never disagree.
	s.K.Bus().Subscribe(stats.NewCollector(s.NodeSt))
	log := make([][]*lrc.Interval, cfg.Procs) // the machine's interval log, shared by its nodes
	for i := 0; i < cfg.Procs; i++ {
		cpu := sim.NewCPU(s.K)
		node := proto.NewNode(i, log, s.K, cpu, &cfg.Costs, cfg.Spec)
		node.Send = s.Net.Send
		node.SetMT(cfg.MT())
		if cfg.Net.Faults.Active() {
			// An adversarial network needs earned reliability: switch the
			// node from fiat delivery to the ack/retransmit transport.
			node.EnableTransport()
		}
		s.CPUs = append(s.CPUs, cpu)
		s.Nodes = append(s.Nodes, node)
		s.Procs = append(s.Procs, newProcessor(s, i, node, cpu))
	}
	if cfg.RaceCheck {
		g, _ := race.ParseGranularity(cfg.RaceGranularity)
		det := race.NewDetector(race.Config{
			Threads:        s.TotalThreads(),
			ThreadsPerProc: cfg.ThreadsPerProc,
			Granularity:    g,
			Now:            s.K.Now,
		})
		for _, pr := range s.Procs {
			pr.race = det
		}
	}
	return s
}

// TotalThreads returns Procs × ThreadsPerProc.
func (s *System) TotalThreads() int { return s.Cfg.Procs * s.Cfg.ThreadsPerProc }

// Run executes app on every thread of the cluster and returns the
// measurement report. app receives each thread's Env; thread 0 of
// processor 0 conventionally initializes shared data before the first
// barrier. Run panics with a *StallError if any thread is unfinished when
// the simulation ends (a deadlock in the application or the model, or
// Config.Limit).
func (s *System) Run(app func(*Env)) *stats.Report {
	if s.started {
		panic("core: System.Run called twice")
	}
	s.started = true
	for _, p := range s.Procs {
		p.spawnThreads(app)
	}
	end := s.K.Run()
	if stalled := s.stalledThreads(); len(stalled) > 0 {
		panic(&StallError{At: end, Pending: s.K.Pending(), Limit: s.Cfg.Limit,
			Threads: stalled, Events: s.K.Bus().Recent()})
	}
	if s.snap != nil {
		return s.snap
	}
	return s.report(end)
}

// snapshot freezes the measurement state; called via Env.EndMeasurement.
func (s *System) snapshot() {
	if s.snap == nil {
		s.snap = s.report(s.K.Now())
	}
}

// report computes the measurement report for a run that ended at end.
func (s *System) report(end sim.Time) *stats.Report {
	tot := s.Net.TotalStats()
	r := &stats.Report{
		Procs:      s.Cfg.Procs,
		Threads:    s.Cfg.ThreadsPerProc,
		Elapsed:    end,
		Nodes:      append([]stats.Node(nil), s.NodeSt...),
		MsgsTotal:  tot.MsgsSent,
		BytesTotal: tot.BytesSent,
		Drops:      tot.Dropped,
		KindMsgs:   make([]int64, netsim.MaxKinds),
		KindBytes:  make([]int64, netsim.MaxKinds),
	}
	for k := range r.KindMsgs {
		r.KindMsgs[k], r.KindBytes[k] = s.Net.KindStats(netsim.Kind(k))
	}
	for _, l := range s.Net.LinkLoads() {
		if l.Peak > r.PeakLinkBacklog {
			r.PeakLinkBacklog, r.PeakLink = l.Peak, l.Name
		}
	}

	var avg stats.Breakdown
	for _, cpu := range s.CPUs {
		b := stats.Breakdown{Cat: cpu.Accounts(), Elapsed: end}
		// Active categories are exact; raw idle attribution can over- or
		// under-count around service overlap, so rescale the two idle
		// categories to exactly fill the processor's unaccounted time.
		active := b.Cat[sim.CatBusy] + b.Cat[sim.CatDSM] + b.Cat[sim.CatPrefetchOv] + b.Cat[sim.CatMTOv]
		leftover := end - active
		if leftover < 0 {
			leftover = 0
		}
		rawIdle := b.Cat[sim.CatMemIdle] + b.Cat[sim.CatSyncIdle]
		if rawIdle > 0 {
			b.Cat[sim.CatMemIdle] = sim.Time(float64(leftover) * float64(b.Cat[sim.CatMemIdle]) / float64(rawIdle))
			b.Cat[sim.CatSyncIdle] = leftover - b.Cat[sim.CatMemIdle]
		} else {
			b.Cat[sim.CatSyncIdle] = leftover
		}
		r.PerProc = append(r.PerProc, b)
		for c := range avg.Cat {
			avg.Cat[c] += b.Cat[c]
		}
	}
	for c := range avg.Cat {
		avg.Cat[c] /= sim.Time(s.Cfg.Procs)
	}
	avg.Elapsed = end
	r.Breakdown = avg
	return r
}
