package core

import (
	"fmt"
	"math/rand"
	"testing"

	"godsm/internal/netsim"
	"godsm/internal/pagemem"
	"godsm/internal/sim"
)

// Random data-race-free program generator: the strongest protocol test in
// the suite. A program is a sequence of phases separated by barriers; in
// each phase every cell of a small shared heap is either owned by one
// thread (only the owner writes it; others may read only values committed
// in earlier phases) or designated lock-protected (any thread may
// read-modify-write it under its lock, adding deterministic constants —
// commutative, so the final state is schedule-independent). The final
// shared state is therefore computable by a trivial sequential oracle, and
// must match under every cluster configuration, prefetch pattern and
// thread count.

const (
	rpPages   = 6
	rpCells   = 24 // cells per page (64-bit each, spread across the page)
	rpLocks   = 5
	rpPhases  = 5
	rpOpsBase = 12 // ops per thread per phase (scaled by rng)
)

type rpOp struct {
	kind int // 0 = write own cell, 1 = read old cell, 2 = lock add, 3 = compute, 4 = prefetch
	cell int // global cell index
	val  int64
	lock int
}

type rpProgram struct {
	threads int
	// owner[phase][cell]: thread that may write the cell in that phase;
	// -1 = lock-protected, -2 = frozen (readable by anyone, no writes).
	owner  [][]int
	lockOf []int      // lock id per cell (for lock-protected phases)
	ops    [][][]rpOp // [phase][thread][]op
}

func rpCellAddr(base pagemem.Addr, cell int) Addr {
	page := cell / rpCells
	idx := cell % rpCells
	// Spread cells through the page so diffs have multiple runs.
	return base + Addr(page*pagemem.PageSize+idx*168)
}

// rpGenerate builds a random DRF program for the given thread count.
func rpGenerate(rng *rand.Rand, threads int) *rpProgram {
	nCells := rpPages * rpCells
	p := &rpProgram{threads: threads, lockOf: make([]int, nCells)}
	for c := range p.lockOf {
		p.lockOf[c] = rng.Intn(rpLocks)
	}
	for ph := 0; ph < rpPhases; ph++ {
		owners := make([]int, nCells)
		for c := range owners {
			switch r := rng.Intn(10); {
			case r < 4:
				owners[c] = rng.Intn(threads) // owned
			case r < 7:
				owners[c] = -1 // lock-protected
			default:
				owners[c] = -2 // frozen this phase
			}
		}
		p.owner = append(p.owner, owners)

		phaseOps := make([][]rpOp, threads)
		for t := 0; t < threads; t++ {
			nOps := rpOpsBase + rng.Intn(rpOpsBase)
			for o := 0; o < nOps; o++ {
				c := rng.Intn(nCells)
				switch own := owners[c]; {
				case own == t && rng.Intn(2) == 0:
					phaseOps[t] = append(phaseOps[t], rpOp{kind: 0, cell: c,
						val: int64(1000*ph + 10*t + o%7)})
				case own == -1 && rng.Intn(2) == 0:
					phaseOps[t] = append(phaseOps[t], rpOp{kind: 2, cell: c,
						val: int64(1 + rng.Intn(5)), lock: p.lockOf[c]})
				case own == -2 || own == t:
					phaseOps[t] = append(phaseOps[t], rpOp{kind: 1, cell: c})
				default:
					if rng.Intn(3) == 0 {
						phaseOps[t] = append(phaseOps[t], rpOp{kind: 4, cell: c})
					} else {
						phaseOps[t] = append(phaseOps[t], rpOp{kind: 3, val: int64(rng.Intn(50))})
					}
				}
			}
			// Writers must write their owned cells at least once so the
			// oracle's "last write wins" is well defined per phase.
			for c := range owners {
				if owners[c] == t {
					phaseOps[t] = append(phaseOps[t], rpOp{kind: 0, cell: c,
						val: int64(1000*ph + 10*t + 999)})
				}
			}
		}
		p.ops = append(p.ops, phaseOps)
	}
	return p
}

// rpOracle computes the final cell values sequentially.
func (p *rpProgram) rpOracle() []int64 {
	nCells := rpPages * rpCells
	state := make([]int64, nCells)
	for ph := range p.ops {
		next := append([]int64(nil), state...)
		for t := 0; t < p.threads; t++ {
			for _, op := range p.ops[ph][t] {
				switch op.kind {
				case 0:
					next[op.cell] = op.val // last write by the owner wins
				case 2:
					next[op.cell] += op.val // commutative
				}
			}
		}
		state = next
	}
	return state
}

// rpRun executes the program on a simulated cluster and returns the final
// cell values read back by thread 0.
func rpRun(t *testing.T, p *rpProgram, cfg Config) []int64 {
	t.Helper()
	sys := NewSystem(cfg)
	base := sys.Alloc.AllocPages(rpPages)
	nCells := rpPages * rpCells
	out := make([]int64, nCells)
	sys.Run(func(e *Env) {
		me := e.ThreadID()
		bar := 0
		for ph := range p.ops {
			for _, op := range p.ops[ph][me] {
				switch op.kind {
				case 0:
					e.WriteI64(rpCellAddr(base, op.cell), op.val)
				case 1:
					_ = e.ReadI64(rpCellAddr(base, op.cell))
				case 2:
					e.Lock(op.lock)
					a := rpCellAddr(base, op.cell)
					e.WriteI64(a, e.ReadI64(a)+op.val)
					e.Unlock(op.lock)
				case 3:
					e.Compute(sim.Time(op.val) * sim.Microsecond)
				case 4:
					e.Prefetch(rpCellAddr(base, op.cell))
				}
			}
			e.Barrier(bar)
			bar++
		}
		if me == 0 {
			for c := 0; c < nCells; c++ {
				out[c] = e.ReadI64(rpCellAddr(base, c))
			}
		}
		e.Barrier(bar)
	})
	return out
}

// oracle-consistency: the owner's last write per phase must be the value
// the generator intends. (The generator appends a final write per owned
// cell, so "last" is deterministic.)

func rpConfigs() []Config {
	mk := func(procs, threads int, pf, swMiss bool, gc int64) Config {
		cfg := DefaultConfig()
		cfg.Procs = procs
		cfg.ThreadsPerProc = threads
		cfg.Prefetch = pf
		cfg.SwitchOnMiss = threads > 1 && swMiss
		cfg.GCThreshold = gc
		cfg.Limit = 10000 * sim.Second
		return cfg
	}
	noCache := mk(4, 1, false, false, 0)
	noCache.NoTokenCache = true
	noCacheMT := mk(3, 2, true, false, 0)
	noCacheMT.NoTokenCache = true
	reliable := mk(4, 1, true, false, 0)
	reliable.PfReliable = true
	eager := mk(4, 1, false, false, 0)
	eager.Protocol = "erc"
	eagerMT := mk(2, 2, true, false, 8192)
	eagerMT.Protocol = "erc"
	// Faulty-network configurations: the oracle must hold while the
	// reliable transport recovers lost, duplicated and reordered messages.
	faulty := mk(4, 1, false, false, 0)
	faulty.Net.Faults = netsim.FaultPlan{Seed: 9, Loss: 0.05, Dup: 0.03,
		Reorder: 0.1, MaxJitter: 2 * sim.Millisecond}
	faultyFull := mk(3, 2, true, false, 4096)
	faultyFull.Net.Faults = netsim.FaultPlan{Seed: 10, Loss: 0.03, Dup: 0.05,
		Reorder: 0.2, MaxJitter: sim.Millisecond,
		Brownouts: []netsim.LinkFault{{Node: 1, From: 5 * sim.Millisecond, To: 25 * sim.Millisecond}}}
	return []Config{
		mk(1, 1, false, false, 0),
		mk(3, 1, false, false, 0),
		mk(4, 1, true, false, 0),
		mk(4, 2, false, true, 0),
		mk(2, 4, true, false, 0),    // combined: MT on sync only + prefetch
		mk(4, 1, true, false, 4096), // prefetch + aggressive GC
		mk(4, 2, false, true, 4096), // MT + aggressive GC
		noCache,                     // centralized locks (ablation)
		noCacheMT,                   // centralized locks + MT + prefetch
		reliable,                    // reliable prefetch messages (ablation)
		eager,                       // eager release consistency
		eagerMT,                     // eager RC + MT + prefetch + GC
		faulty,                      // lossy network + reliable transport
		faultyFull,                  // faults + brown-out + MT + prefetch + GC
	}
}

// TestRandomDRFPrograms runs many random programs under every
// configuration and compares the final shared state with the oracle.
func TestRandomDRFPrograms(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 3
	}
	for seed := 0; seed < seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			for ci, cfg := range rpConfigs() {
				rng := rand.New(rand.NewSource(int64(1000 + seed)))
				p := rpGenerate(rng, cfg.Procs*cfg.ThreadsPerProc)
				want := p.rpOracle()
				got := rpRun(t, p, cfg)
				for c := range want {
					if got[c] != want[c] {
						t.Fatalf("config %d (procs=%d threads=%d pf=%v gc=%d): cell %d = %d, want %d",
							ci, cfg.Procs, cfg.ThreadsPerProc, cfg.Prefetch,
							cfg.GCThreshold, c, got[c], want[c])
					}
				}
			}
		})
	}
}
