package race

import (
	"math/rand"
	"testing"
)

// detector is what the differential test drives: Detector and refDetector.
type detector interface {
	Access(t int, addr uint64, write bool)
	Acquire(t, l int)
	Release(t, l int)
	BarrierArrive(t int)
	ThreadExit(t int)
	ExemptPush(t int)
	ExemptPop(t int)
}

// diffAddrs is the schedules' address pool: twelve words in each of three
// distant regions of four pages, so a handful of granules at either
// granularity take every access and their shadow pages lie far apart.
var diffAddrs = func() (as []uint64) {
	for _, base := range []uint64{1, 1000, 70000} {
		for j := uint64(0); j < 12; j++ {
			as = append(as, (base+j%4)<<12+8*(j*37%512))
		}
	}
	return as
}()

// schedule is one seeded random run of both detectors in lockstep. Accesses
// follow a data-race-free discipline — per barrier phase a granule is
// read-only, owned by one thread, or guarded by a lock — except inside
// Exempt regions and, with probability wild, anywhere.
type schedule struct {
	t        *testing.T
	rng      *rand.Rand
	dut      *Detector
	ref      *refDetector
	now      int64
	threads  int
	shift    uint
	wild     float64
	phase    int
	live     int
	arriving int
	arrived  []bool
	exited   []bool
	dirty    []bool // accessed since the last barrier release
	ops      int
	cover    *coverage
}

// coverage counts, over every schedule, the shadow transitions the test
// exists to pin.
type coverage struct {
	promoted, collapsed, recycled, exemptAccesses int
}

const diffLocks = 5

// step applies one operation to both detectors and compares the verdicts.
// It returns the race both reported, if any.
func (s *schedule) step(op func(detector)) *RaceError {
	s.t.Helper()
	s.now += int64(s.rng.Intn(3))
	s.ops++
	run := func(d detector) (re *RaceError) {
		defer func() {
			if r := recover(); r != nil {
				var ok bool
				if re, ok = r.(*RaceError); !ok {
					panic(r)
				}
			}
		}()
		op(d)
		return nil
	}
	want, got := run(s.ref), run(s.dut)
	switch {
	case want == nil && got == nil:
	case want == nil || got == nil:
		s.t.Fatalf("op %d: reference reports %v, detector reports %v", s.ops, want, got)
	case got.Addr != want.Addr || got.Page != want.Page || got.Granularity != want.Granularity ||
		got.Prev != want.Prev || got.Curr != want.Curr:
		s.t.Fatalf("op %d: reports differ\nreference: %v\ndetector:  %v", s.ops, want, got)
	}
	return got
}

func (s *schedule) access(t int, addr uint64, write bool) *RaceError {
	c := s.dut.loc(addr >> s.shift)
	wasShared, freed := c.r&sharedBit != 0, len(s.dut.free)
	re := s.step(func(d detector) { d.Access(t, addr, write) })
	s.dirty[t] = true
	if re == nil {
		switch isShared := c.r&sharedBit != 0; {
		case isShared && !wasShared:
			s.cover.promoted++
			if freed > 0 {
				s.cover.recycled++
			}
		case wasShared && !isShared:
			s.cover.collapsed++
		}
		if c.w&exemptBit != 0 {
			s.cover.exemptAccesses++
		}
	}
	return re
}

// mode is the discipline for granule g in the current phase: 0 read-only,
// 1 owned by thread owner, 2 guarded by lock.
func (s *schedule) mode(g uint64) (mode, owner, lock int) {
	h := (g*0x9e3779b97f4a7c15 + uint64(s.phase)*0xbf58476d1ce4e5b9) >> 33
	return int(h % 3), int(h / 3 % uint64(s.threads)), int(g % diffLocks)
}

func (s *schedule) barrierMayRelease() {
	if s.arriving == 0 || s.arriving < s.live {
		return
	}
	s.phase++
	s.arriving = 0
	clear(s.arrived)
	clear(s.dirty)
}

// next performs one randomly chosen operation (a lock or Exempt region is
// one operation of several steps) by a running thread.
func (s *schedule) next() *RaceError {
	t := s.rng.Intn(s.threads)
	for s.exited[t] || s.arrived[t] {
		t = (t + 1) % s.threads
	}
	addr := diffAddrs[s.rng.Intn(len(diffAddrs))]
	write := s.rng.Intn(3) == 0
	switch r := s.rng.Float64(); {
	case r < s.wild:
		return s.access(t, addr, write)
	case r < 0.08:
		s.arrived[t] = true
		s.arriving++
		re := s.step(func(d detector) { d.BarrierArrive(t) })
		s.barrierMayRelease()
		return re
	case r < 0.09:
		if s.live == 1 || s.dirty[t] && s.rng.Float64() >= s.wild {
			return nil
		}
		s.exited[t] = true
		s.live--
		re := s.step(func(d detector) { d.ThreadExit(t) })
		s.barrierMayRelease()
		return re
	case r < 0.095:
		depth := 1 + s.rng.Intn(2)
		for i := 0; i < depth; i++ {
			s.step(func(d detector) { d.ExemptPush(t) })
		}
		for i := s.rng.Intn(3); i >= 0; i-- {
			a := diffAddrs[s.rng.Intn(len(diffAddrs))]
			if re := s.access(t, a, s.rng.Intn(2) == 0); re != nil {
				s.t.Fatalf("op %d: race reported inside an Exempt region: %v", s.ops, re)
			}
		}
		for i := 0; i < depth; i++ {
			s.step(func(d detector) { d.ExemptPop(t) })
		}
		return nil
	}
	switch mode, owner, lock := s.mode(addr >> s.shift); mode {
	case 0:
		return s.access(t, addr, false)
	case 1:
		if s.exited[owner] || s.arrived[owner] {
			return nil
		}
		return s.access(owner, addr, write)
	default:
		s.step(func(d detector) { d.Acquire(t, lock) })
		for i := s.rng.Intn(3); i >= 0; i-- {
			if re := s.access(t, addr, s.rng.Intn(2) == 0); re != nil {
				return re
			}
		}
		s.step(func(d detector) { d.Release(t, lock) })
		return nil
	}
}

// TestDifferentialAgainstReference drives Detector and the map-based
// reference it replaced with the same seeded random schedules and requires
// the same verdict after every operation: both silent, or RaceErrors equal
// field for field. It is what pins the shadow cell's encoding — the exempt
// bit surviving writes, a recycled stripe handed out zeroed, timestamps
// stored on every recorded access.
func TestDifferentialAgainstReference(t *testing.T) {
	const schedules, minOps = 2400, 500
	var cover coverage
	var racy, clean int
	for seed := int64(0); seed < schedules; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := &schedule{t: t, rng: rng, threads: 2 + rng.Intn(32), cover: &cover}
		if seed%3 != 0 {
			s.wild = 0.002 + 0.03*rng.Float64()
		}
		cfg := Config{
			Threads:        s.threads,
			ThreadsPerProc: 1 + rng.Intn(4),
			Granularity:    Granularity(seed % 2),
			Now:            func() int64 { return s.now },
		}
		s.shift = cfg.Granularity.shift()
		s.dut, s.ref = NewDetector(cfg), newRefDetector(cfg)
		s.live = s.threads
		s.arrived = make([]bool, s.threads)
		s.exited = make([]bool, s.threads)
		s.dirty = make([]bool, s.threads)

		var re *RaceError
		for s.ops < minOps && re == nil {
			re = s.next()
		}
		switch {
		case re == nil:
			clean++
		case s.wild == 0:
			t.Fatalf("seed %d: a schedule that kept the discipline throughout was reported: %v", seed, re)
		default:
			racy++
		}
	}
	t.Logf("%d schedules: %d ended in a race, %d ran clean; %+v", schedules, racy, clean, cover)
	if racy < schedules/10 || clean < schedules/10 {
		t.Errorf("lopsided split: %d racy, %d clean of %d schedules", racy, clean, schedules)
	}
	if cover.promoted == 0 || cover.collapsed == 0 || cover.recycled == 0 || cover.exemptAccesses == 0 {
		t.Errorf("schedules never reached a shadow transition: %+v", cover)
	}
}
