package race

import "godsm/internal/pagemem"

// refDetector is the detector's access path as it was before shadow memory
// was paged: a map from granule to a heap object that carries the
// read-shared vector clock itself. It is kept, logic unchanged, as the
// reference the differential test compares Detector's verdicts with. Thread
// clocks, locks, the barrier and Exempt nesting — which paging did not touch
// — are the embedded Detector's own; its shadow stays empty.
type refDetector struct {
	*Detector
	words map[uint64]*refLocation
}

type refLocation struct {
	w      epoch
	wAt    int64
	r      epoch // last read when rvc == nil; ⊥ if none
	rAt    int64
	rvc    vclock  // read-shared: per-thread last-read clocks (0 = none)
	rAts   []int64 // read-shared: per-thread last-read times
	exempt bool
}

func newRefDetector(cfg Config) *refDetector {
	return &refDetector{NewDetector(cfg), make(map[uint64]*refLocation)}
}

func (d *refDetector) loc(key uint64) *refLocation {
	s := d.words[key]
	if s == nil {
		s = &refLocation{}
		d.words[key] = s
	}
	return s
}

func (d *refDetector) Access(t int, addr uint64, write bool) {
	key := addr >> d.shift
	s := d.loc(key)
	ct := d.vcs[t]
	if d.exempt[t] > 0 {
		s.exempt = true
	}
	if write {
		d.write(t, key, s, ct)
	} else {
		d.read(t, key, s, ct)
	}
}

func (d *refDetector) read(t int, key uint64, s *refLocation, ct vclock) {
	if s.w != 0 && !s.w.ordered(ct) {
		d.report(key, s, refPrevWrite(s), Access{Write: false, Thread: t, Clock: ct[t], At: d.cfg.Now()})
	}
	now := d.cfg.Now()
	if s.rvc != nil {
		s.rvc[t] = ct[t]
		s.rAts[t] = now
		return
	}
	if s.r == 0 || s.r.tid() == t || s.r.ordered(ct) {
		s.r = makeEpoch(t, ct[t])
		s.rAt = now
		return
	}
	s.rvc = make(vclock, d.cfg.Threads)
	s.rAts = make([]int64, d.cfg.Threads)
	s.rvc[s.r.tid()] = s.r.clock()
	s.rAts[s.r.tid()] = s.rAt
	s.rvc[t] = ct[t]
	s.rAts[t] = now
	s.r = 0
}

func (d *refDetector) write(t int, key uint64, s *refLocation, ct vclock) {
	cur := Access{Write: true, Thread: t, Clock: ct[t], At: d.cfg.Now()}
	if s.w != 0 && !s.w.ordered(ct) {
		d.report(key, s, refPrevWrite(s), cur)
	}
	if s.rvc == nil {
		if s.r != 0 && !s.r.ordered(ct) {
			d.report(key, s, Access{Write: false, Thread: s.r.tid(), Clock: s.r.clock(), At: s.rAt}, cur)
		}
	} else {
		for u, c := range s.rvc {
			if c != 0 && c > ct[u] {
				d.report(key, s, Access{Write: false, Thread: u, Clock: c, At: s.rAts[u]}, cur)
			}
		}
		s.rvc, s.rAts = nil, nil
	}
	s.w = makeEpoch(t, ct[t])
	s.wAt = d.cfg.Now()
}

func refPrevWrite(s *refLocation) Access {
	return Access{Write: true, Thread: s.w.tid(), Clock: s.w.clock(), At: s.wAt}
}

func (d *refDetector) report(key uint64, s *refLocation, prev, cur Access) {
	if s.exempt {
		return
	}
	base := key << d.shift
	prev.Proc = prev.Thread / d.cfg.ThreadsPerProc
	cur.Proc = cur.Thread / d.cfg.ThreadsPerProc
	panic(&RaceError{
		Addr:        base,
		Page:        int64(base >> pagemem.PageShift),
		Granularity: d.cfg.Granularity.String(),
		Prev:        prev,
		Curr:        cur,
	})
}
