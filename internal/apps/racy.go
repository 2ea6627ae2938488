package apps

import (
	"fmt"

	"godsm/dsm"
)

// This file holds the intentionally-broken mini-fixtures behind the negative
// tests of the race detector and the stall report (dsmrun -race-check, the
// CI racy-fixture and wedged-run smokes, and the harness determinism tests).
// They live in Fixtures, not All, so dsmrun's "all" selection and the
// experiment grids never run them by accident; they are only reachable by
// explicit name.

// Fixtures lists the fixtures: RACY and RACY-STALE always race; RACY-EXEMPT
// is the same pattern as RACY wrapped in Env.RaceExempt and must stay clean
// under -race-check; STUCK deadlocks.
var Fixtures = []Spec{
	{"RACY", BuildRacy},
	{"RACY-STALE", BuildRacyStale},
	{"RACY-EXEMPT", BuildRacyExempt},
	{"STUCK", BuildStuck},
}

// BuildStuck is a barrier thread 0 never reaches: every other thread waits
// at it forever, the event queue drains, and the run ends in a
// *dsm.StallError naming them.
func BuildStuck(*dsm.System, Options) *Instance {
	return &Instance{
		Name: "STUCK",
		Run: func(e *dsm.Env) {
			if e.ThreadID() != 0 {
				e.Barrier(0)
			}
		},
		Err: func() error { return nil },
	}
}

// BuildRacy is an unsynchronized shared counter: every thread increments
// the same word with no lock, so the second thread to touch it races with
// the first (write/write or read/write depending on interleaving — but the
// interleaving is deterministic, so the report is too).
func BuildRacy(sys *dsm.System, opt Options) *Instance {
	return buildRacy(sys, opt, false)
}

// BuildRacyExempt is BuildRacy with the racy increment wrapped in
// Env.RaceExempt: the same access pattern, audited as benign, must run
// clean under -race-check.
func BuildRacyExempt(sys *dsm.System, opt Options) *Instance {
	return buildRacy(sys, opt, true)
}

func buildRacy(sys *dsm.System, opt Options, exempt bool) *Instance {
	counter := sys.Alloc.Alloc(8, dsm.PageSize)
	name := "RACY"
	if exempt {
		name = "RACY-EXEMPT"
	}
	var box errBox
	return &Instance{
		Name: name,
		Run: func(e *dsm.Env) {
			e.Barrier(0)
			bump := func() {
				e.Compute(costKeyOp)
				e.WriteI64(counter, e.ReadI64(counter)+1)
			}
			if exempt {
				e.RaceExempt("fixture: lossy event counter, increments may be dropped by design", bump)
			} else {
				bump()
			}
			e.Barrier(1)
			if e.ThreadID() == 0 {
				e.EndMeasurement()
				if opt.Verify && exempt {
					// Increments can be lost to stale pages, never invented.
					if got := e.ReadI64(counter); got < 1 || got > int64(e.NumThreads()) {
						box.set(fmt.Errorf("counter = %d, want 1..%d", got, e.NumThreads()))
					}
				}
			}
			e.Barrier(2)
		},
		Err: box.get,
	}
}

// BuildRacyStale is a missing-flag handoff: thread 0 publishes a value and
// the other threads read it with no intervening release/acquire edge — the
// classic stale-read pattern release consistency explicitly permits, and
// exactly what the detector must flag.
func BuildRacyStale(sys *dsm.System, opt Options) *Instance {
	data := sys.Alloc.Alloc(8, dsm.PageSize)
	return &Instance{
		Name: "RACY-STALE",
		Run: func(e *dsm.Env) {
			e.Barrier(0)
			if e.ThreadID() == 0 {
				e.WriteI64(data, 42)
			} else {
				// No barrier or lock separates this read from the write.
				e.Compute(costKeyOp)
				_ = e.ReadI64(data)
			}
			e.Barrier(1)
			if e.ThreadID() == 0 {
				e.EndMeasurement()
			}
			e.Barrier(2)
		},
		Err: func() error { return nil },
	}
}
