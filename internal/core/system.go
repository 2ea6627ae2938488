// Package core assembles the simulated cluster and implements the paper's
// latency-tolerance machinery on top of the protocol engine: per-processor
// user-level thread scheduling (switch-on-miss and/or switch-on-sync, with
// request combining), and the application-facing environment that performs
// shared-memory accesses, inserts prefetches, and accumulates busy time.
package core

import (
	"fmt"

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
	// miss; SwitchOnSync does the same for remote synchronization stalls.
	// The paper's "nT" configurations set both; the combined "nTP"
	// configurations set only SwitchOnSync (Section 5).
	SwitchOnMiss bool
	SwitchOnSync bool

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
	return c.ThreadsPerProc > 1 && (c.SwitchOnMiss || c.SwitchOnSync)
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

	// Measurement snapshot taken at EndMeasurement, so that verification
	// reads after the timed region do not pollute the reported metrics.
	snapped      bool
	snapTime     sim.Time
	snapNodes    []stats.Node
	snapCPUs     [][sim.NumCategories]sim.Time
	snapMsgs     int64
	snapBytes    int64
	snapDrops    int64
	snapKindMsgs []int64
	snapKindByt  []int64
	snapPeakLink string
	snapPeakBack sim.Time
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
	if c.ThreadsPerProc > 1 && !c.SwitchOnSync {
		// A thread spin-waiting at a barrier would starve its siblings of
		// the CPU forever; multithreaded configurations must switch on
		// synchronization stalls (as all of the paper's do).
		return fmt.Errorf("ThreadsPerProc > 1 requires SwitchOnSync")
	}
	if c.RaceGranularity != "" && !c.RaceCheck {
		return fmt.Errorf("RaceGranularity set without RaceCheck")
	}
	if _, err := race.ParseGranularity(c.RaceGranularity); err != nil {
		return err
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
	for i := 0; i < cfg.Procs; i++ {
		cpu := sim.NewCPU(s.K)
		node := proto.NewNode(i, cfg.Procs, s.K, cpu, &cfg.Costs, cfg.Spec)
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
// barrier. Run panics if any thread is still blocked when the simulation
// drains (a deadlock in the application or the model).
func (s *System) Run(app func(*Env)) *stats.Report {
	if s.started {
		panic("core: System.Run called twice")
	}
	s.started = true

	remaining := s.TotalThreads()
	for _, p := range s.Procs {
		p.spawnThreads(app, func() { remaining-- })
	}
	end := s.K.Run()
	if remaining != 0 {
		panic(fmt.Sprintf("core: %d threads never finished (deadlock or time limit)", remaining))
	}
	return s.report(end)
}

// snapshot freezes the measurement state; called via Env.EndMeasurement.
func (s *System) snapshot() {
	if s.snapped {
		return
	}
	s.snapped = true
	s.snapTime = s.K.Now()
	s.snapNodes = append([]stats.Node(nil), s.NodeSt...)
	for _, cpu := range s.CPUs {
		s.snapCPUs = append(s.snapCPUs, cpu.Accounts())
	}
	tot := s.Net.TotalStats()
	s.snapMsgs, s.snapBytes, s.snapDrops = tot.MsgsSent, tot.BytesSent, tot.Dropped
	s.snapKindMsgs, s.snapKindByt, s.snapPeakLink, s.snapPeakBack = s.traffic()
}

// traffic reads the network's per-kind counters and the busiest link seen.
func (s *System) traffic() (kindMsgs, kindBytes []int64, peakLink string, peakBacklog sim.Time) {
	kindMsgs = make([]int64, netsim.MaxKinds)
	kindBytes = make([]int64, netsim.MaxKinds)
	for k := 0; k < netsim.MaxKinds; k++ {
		kindMsgs[k], kindBytes[k] = s.Net.KindStats(netsim.Kind(k))
	}
	for _, l := range s.Net.LinkLoads() {
		if l.Peak > peakBacklog {
			peakBacklog, peakLink = l.Peak, l.Name
		}
	}
	return
}

func (s *System) report(end sim.Time) *stats.Report {
	nodes := s.NodeSt
	accounts := make([][sim.NumCategories]sim.Time, len(s.CPUs))
	for i, cpu := range s.CPUs {
		accounts[i] = cpu.Accounts()
	}
	tot := s.Net.TotalStats()
	msgs, bytes, drops := tot.MsgsSent, tot.BytesSent, tot.Dropped
	kindMsgs, kindBytes, peakLink, peakBack := s.traffic()
	if s.snapped {
		end = s.snapTime
		nodes = s.snapNodes
		accounts = s.snapCPUs
		msgs, bytes, drops = s.snapMsgs, s.snapBytes, s.snapDrops
		kindMsgs, kindBytes, peakLink, peakBack = s.snapKindMsgs, s.snapKindByt, s.snapPeakLink, s.snapPeakBack
	}

	r := &stats.Report{
		Procs:   s.Cfg.Procs,
		Threads: s.Cfg.ThreadsPerProc,
		Elapsed: end,
		Nodes:   nodes,
	}
	r.MsgsTotal = msgs
	r.BytesTotal = bytes
	r.Drops = drops
	r.KindMsgs = kindMsgs
	r.KindBytes = kindBytes
	r.PeakLink = peakLink
	r.PeakLinkBacklog = peakBack

	var avg stats.Breakdown
	for i := range accounts {
		b := stats.Breakdown{Cat: accounts[i], Elapsed: end}
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
		_ = i
	}
	for c := range avg.Cat {
		avg.Cat[c] /= sim.Time(s.Cfg.Procs)
	}
	avg.Elapsed = end
	r.Breakdown = avg
	return r
}
