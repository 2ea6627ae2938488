package main

import (
	"io"
	"math/rand"
	"runtime"

	"godsm/dsm"
	"godsm/internal/apps"
	"godsm/internal/event"
	"godsm/internal/harness"
	"godsm/internal/lrc"
	"godsm/internal/netsim"
	"godsm/internal/pagemem"
	"godsm/internal/race"
	"godsm/internal/sim"
	"godsm/internal/stats"
)

// This file measures each layer's unit costs from outside, by timing calls
// into its public functions at fixed iteration counts. Every figure is host
// nanoseconds per operation unless its name says otherwise; *_virt_us
// figures are simulated time and repeat exactly.

// unitReps is how many times a unit cost is measured; the median is kept.
const unitReps = 3

// perOp returns the median host ns per operation of a body that performs n
// operations. prep builds fresh state outside the timed region and returns
// the body.
func perOp(n int, prep func() func()) float64 {
	var v []float64
	for i := 0; i < unitReps; i++ {
		body := prep()
		runtime.GC()
		t0 := harness.Wallclock()
		body()
		v = append(v, float64(harness.Wallclock().Sub(t0).Nanoseconds())/float64(n))
	}
	return median(v)
}

// allocsPerOp returns heap allocations per operation of one run of body.
func allocsPerOp(n int, body func()) float64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	body()
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

type nopSink struct{}

func (nopSink) Event(event.Event) {}

// unitCosts measures every workload-independent per-layer metric.
func unitCosts(quick bool) map[string]float64 {
	m := make(map[string]float64)
	scale := 1
	if quick {
		scale = 50 // a smoke run only has to produce every name
	}
	simCosts(m, scale)
	eventCosts(m, scale)
	netsimCosts(m, scale)
	pagememCosts(m, scale)
	lrcCosts(m, scale)
	raceCosts(m, scale)
	coreCosts(m, scale)
	protoCosts(m, scale)
	harnessCosts(m, quick)
	return m
}

func simCosts(m map[string]float64, scale int) {
	// Event push/pop: 64 self-rescheduling chains keep the heap at a
	// realistic depth.
	const chains = 64
	perChain := 4096 / scale
	eventChains := func() func() {
		k := sim.NewKernel()
		for c := 0; c < chains; c++ {
			left := perChain
			var fn func()
			fn = func() {
				if left--; left > 0 {
					k.After(sim.Time(1+c), fn)
				}
			}
			k.After(sim.Time(c), fn)
		}
		return func() { k.Run() }
	}
	m["sim.event_ns"] = perOp(chains*perChain, eventChains)
	m["sim.event_allocs"] = allocsPerOp(chains*perChain, eventChains())

	arms := 100000 / scale
	m["sim.timer_ns"] = perOp(arms, func() func() {
		k := sim.NewKernel()
		left := arms
		var t *sim.Timer
		t = k.NewTimer(func() {
			if left--; left > 0 {
				t.Arm(sim.Microsecond)
			}
		})
		t.Arm(sim.Microsecond)
		return func() { k.Run() }
	})

	spawns := 20000 / scale
	m["sim.spawn_ns"] = perOp(spawns, func() func() {
		k := sim.NewKernel()
		return func() {
			for i := 0; i < spawns; i++ {
				k.Spawn("p", func(*sim.Proc) {})
			}
			k.Run()
		}
	})

	// One Sleep is one kernel→proc→kernel round trip: two goroutine
	// handoffs over unbuffered channels.
	sleeps := 100000 / scale
	pingPong := func() func() {
		k := sim.NewKernel()
		k.Spawn("p", func(p *sim.Proc) {
			for i := 0; i < sleeps; i++ {
				p.Sleep(1)
			}
		})
		return func() { k.Run() }
	}
	m["sim.proc_switch_ns"] = perOp(sleeps, pingPong)
	prev := runtime.GOMAXPROCS(runtime.NumCPU())
	m["sim.proc_switch_mp_ns"] = perOp(sleeps, pingPong)
	runtime.GOMAXPROCS(prev)
}

func eventCosts(m map[string]float64, scale int) {
	emits := 2000000 / scale
	emit := func(sinks int) float64 {
		return perOp(emits, func() func() {
			var now int64
			b := event.NewBus(func() int64 { return now })
			for i := 0; i < sinks; i++ {
				b.Subscribe(nopSink{})
			}
			return func() {
				for i := 0; i < emits; i++ {
					now++
					b.Emit(event.Twin(i&7, int64(i)))
				}
			}
		})
	}
	m["event.emit0_ns"] = emit(0)
	m["event.emit1_ns"] = emit(1)
	m["event.emit4_ns"] = emit(4)

	writes := 200000 / scale
	m["event.tracewriter_ns"] = perOp(writes, func() func() {
		tw := event.NewTraceWriter(io.Discard)
		return func() {
			for i := 0; i < writes; i++ {
				tw.Event(event.NetDeliver(i&7, (i+1)&7, 3, 128, uint64(i)))
			}
			_ = tw.Close() // io.Discard cannot fail
		}
	})

	folds := 2000000 / scale
	m["stats.collector_ns"] = perOp(folds, func() func() {
		col := stats.NewCollector(make([]stats.Node, 8))
		evs := []event.Event{
			event.FaultRemote(1, 7, event.OutcomeNoPf, 2), event.FetchDone(1, 7, 900),
			event.DiffMake(2, 7, 64), event.DiffApply(1, 7, 64), event.Twin(2, 7),
			event.BarArrive(3, 1), event.BarRelease(3, 1, 500), event.ThreadBlock(4, 4, 100),
		}
		return func() {
			for i := 0; i < folds; i++ {
				col.Event(evs[i&7])
			}
		}
	})
}

func netsimCosts(m map[string]float64, scale int) {
	const batch = 256
	batches := 400 / scale
	if batches == 0 {
		batches = 1
	}
	send := func(nodes int, cfg netsim.Config) func() func() {
		return func() func() {
			k := sim.NewKernel()
			net := netsim.New(k, nodes, cfg, func(*netsim.Message) {})
			rng := rand.New(rand.NewSource(1))
			return func() {
				for b := 0; b < batches; b++ {
					for i := 0; i < batch; i++ {
						src := rng.Intn(nodes)
						dst := (src + 1 + rng.Intn(nodes-1)) % nodes
						net.Send(&netsim.Message{Src: netsim.NodeID(src), Dst: netsim.NodeID(dst),
							Size: 128, Reliable: true, Kind: 1})
					}
					k.Run() // deliver the batch
				}
			}
		}
	}
	single := netsim.DefaultConfig()
	fat := netsim.DefaultConfig()
	fat.Topology = "fattree"
	faulted := netsim.DefaultConfig()
	faulted.Faults = netsim.FaultPlan{Seed: 1, Loss: 0.01, Dup: 0.005, Reorder: 0.02, MaxJitter: 500 * sim.Microsecond}
	n := batch * batches
	m["netsim.send_single_ns"] = perOp(n, send(8, single))
	m["netsim.send_fattree_ns"] = perOp(n, send(1024, fat))
	m["netsim.send_faulted_ns"] = perOp(n, send(8, faulted))
	m["netsim.send_allocs"] = allocsPerOp(n, send(8, single)())
}

// diffPages builds a twin/current pair: "sparse" flips 32 short scattered
// runs, "dense" every other 8-byte word.
func diffPages(dense bool) (twin, cur []byte) {
	rng := rand.New(rand.NewSource(42))
	twin = make([]byte, pagemem.PageSize)
	rng.Read(twin)
	cur = append([]byte(nil), twin...)
	if dense {
		for off := 0; off < pagemem.PageSize; off += 16 {
			for j := 0; j < 8; j++ {
				cur[off+j] ^= 0xFF
			}
		}
		return twin, cur
	}
	for i := 0; i < 32; i++ {
		off := rng.Intn(pagemem.PageSize - 16)
		for j := 0; j < 4+rng.Intn(12); j++ {
			cur[off+j] ^= 0xFF
		}
	}
	return twin, cur
}

func pagememCosts(m map[string]float64, scale int) {
	n := 20000 / scale
	makeDiff := func(dense bool) float64 {
		twin, cur := diffPages(dense)
		return perOp(n, func() func() {
			return func() {
				for i := 0; i < n; i++ {
					pagemem.MakeDiff(0, twin, cur)
				}
			}
		})
	}
	m["pagemem.makediff_sparse_ns"] = makeDiff(false)
	m["pagemem.makediff_dense_ns"] = makeDiff(true)

	twin, cur := diffPages(false)
	d := pagemem.MakeDiff(0, twin, cur)
	m["pagemem.apply_ns"] = perOp(n, func() func() {
		return func() {
			for i := 0; i < n; i++ {
				d.Apply(twin)
			}
		}
	})
	m["pagemem.twin_ns"] = perOp(n, func() func() {
		s := pagemem.NewStore()
		for p := 0; p < 16; p++ {
			s.Frame(pagemem.PageID(p))
		}
		return func() {
			for i := 0; i < n; i++ {
				p := pagemem.PageID(i & 15)
				s.MakeTwin(p)
				s.DropTwin(p)
			}
		}
	})
}

func lrcCosts(m map[string]float64, scale int) {
	// One op is the release/acquire pair of clock work: a Merge and a Covers.
	vc := func(width, n int) float64 {
		return perOp(n, func() func() {
			a, b := lrc.NewVC(width), lrc.NewVC(width)
			for i := range b {
				b[i] = int32(i & 3)
			}
			covered := 0
			return func() {
				for i := 0; i < n; i++ {
					b[i%width]++
					a.Merge(b)
					if a.Covers(b) {
						covered++
					}
				}
			}
		})
	}
	m["lrc.vc8_ns"] = vc(8, 1000000/scale)
	m["lrc.vc1024_ns"] = vc(1024, 20000/scale)
}

// raceSweep drives a detector the way a barrier-phased stencil does: each
// of 8 threads writes its own stripe, all cross a barrier, each reads its
// neighbour's stripe, all cross a barrier.
func raceSweep(g race.Granularity, rounds int) (ops int, body func()) {
	const threads, stripe = 8, 4096 // words per stripe
	d := race.NewDetector(race.Config{Threads: threads, ThreadsPerProc: 1, Granularity: g,
		Now: func() int64 { return 0 }})
	barrier := func() {
		for t := 0; t < threads; t++ {
			d.BarrierArrive(t)
		}
	}
	return rounds * 2 * threads * stripe, func() {
		for r := 0; r < rounds; r++ {
			for t := 0; t < threads; t++ {
				for w := 0; w < stripe; w++ {
					d.Access(t, uint64(8*(t*stripe+w)), true)
				}
			}
			barrier()
			for t := 0; t < threads; t++ {
				nb := (t + 1) % threads
				for w := 0; w < stripe; w++ {
					d.Access(t, uint64(8*(nb*stripe+w)), false)
				}
			}
			barrier()
		}
	}
}

func raceCosts(m map[string]float64, scale int) {
	rounds := max(1, 10/scale)
	sweep := func(g race.Granularity) float64 {
		ops, _ := raceSweep(g, rounds)
		return perOp(ops, func() func() { _, body := raceSweep(g, rounds); return body })
	}
	m["race.access_word_ns"] = sweep(race.Word)
	m["race.access_page_ns"] = sweep(race.Page)
	ops, body := raceSweep(race.Word, rounds)
	m["race.access_allocs"] = allocsPerOp(ops, body)
}

func coreCosts(m map[string]float64, scale int) {
	// The access fast path: one processor touching 16 resident pages, so no
	// access faults and the kernel is never entered.
	accesses := 2000000 / scale
	hit := func(write, raceCheck bool) float64 {
		return perOp(accesses, func() func() {
			cfg := dsm.DefaultConfig()
			cfg.Procs = 1
			cfg.RaceCheck = raceCheck
			sys := dsm.NewSystem(cfg)
			base := sys.Alloc.AllocPages(16)
			return func() {
				sys.Run(func(e *dsm.Env) {
					var sum float64
					for i := 0; i < accesses; i++ {
						a := base + dsm.Addr(8*(i&8191))
						if write {
							e.WriteF64(a, sum)
						} else {
							sum += e.ReadF64(a)
						}
					}
				})
			}
		})
	}
	m["core.access_hit_ns"] = hit(false, false)
	m["core.write_hit_ns"] = hit(true, false)
	m["core.access_hit_race_ns"] = hit(false, true)

	small := 200 / scale
	m["core.newsystem_8_us"] = perOp(small, func() func() {
		return func() {
			for i := 0; i < small; i++ {
				dsm.NewSystem(dsm.DefaultConfig())
			}
		}
	}) / 1e3
	big := cell{App: "FFT", Variant: harness.VarO, Backend: "lrc", Procs: 1024, Big: true}.config()
	if scale > 1 {
		big.Procs = 64
	}
	m["core.newsystem_1024_ms"] = perOp(1, func() func() {
		return func() { dsm.NewSystem(big) }
	}) / 1e6
}

// rig runs a small program on a fresh machine three times and returns the
// median host ns System.Run took and the (identical) report.
func rig(cfg dsm.Config, body func(sys *dsm.System) func(*dsm.Env)) (hostNs float64, rep *dsm.Report) {
	var v []float64
	for i := 0; i < unitReps; i++ {
		sys := dsm.NewSystem(cfg)
		app := body(sys)
		runtime.GC()
		t0 := harness.Wallclock()
		rep = sys.Run(app)
		v = append(v, float64(harness.Wallclock().Sub(t0).Nanoseconds()))
	}
	return median(v), rep
}

// faultRig is the two-node page-fault round trip: node 0 rewrites a set of
// pages, a barrier, node 1 reads one word of each, a barrier.
func faultRig(protocol string, faults dsm.FaultPlan, rounds int) (nsPerFault, virtUsPerFault float64) {
	const pages = 32
	cfg := dsm.DefaultConfig()
	cfg.Procs = 2
	cfg.Protocol = protocol
	cfg.Net.Faults = faults
	host, rep := rig(cfg, func(sys *dsm.System) func(*dsm.Env) {
		base := sys.Alloc.AllocPages(pages)
		return func(e *dsm.Env) {
			var sum int64
			for r := 0; r < rounds; r++ {
				for p := 0; p < pages && e.ProcID() == 0; p++ {
					e.WriteI64(base+dsm.Addr(p*dsm.PageSize), int64(r+1))
				}
				e.Barrier(2 * r)
				for p := 0; p < pages && e.ProcID() == 1; p++ {
					sum += e.ReadI64(base + dsm.Addr(p*dsm.PageSize))
				}
				e.Barrier(2*r + 1)
			}
		}
	})
	misses := float64(max(1, rep.TotalMisses()))
	return host / misses, float64(rep.AvgMissLatency()) / float64(dsm.Microsecond)
}

func protoCosts(m map[string]float64, scale int) {
	rounds := max(2, 40/scale)
	for _, p := range []string{"lrc", "erc", "hlrc", "adp"} {
		m["proto."+p+".fault_ns"], m["proto."+p+".fault_virt_us"] = faultRig(p, dsm.FaultPlan{}, rounds)
	}
	m["proto.transport_loss_ns"], _ = faultRig("lrc", dsm.FaultPlan{Seed: 1, Loss: 0.05}, rounds)

	// Lock handoff: two nodes take turns on one lock.
	turns := max(4, 1000/scale)
	cfg := dsm.DefaultConfig()
	cfg.Procs = 2
	host, rep := rig(cfg, func(sys *dsm.System) func(*dsm.Env) {
		ctr := sys.Alloc.Alloc(8, 8)
		return func(e *dsm.Env) {
			for i := 0; i < turns; i++ {
				e.Lock(0)
				e.WriteI64(ctr, e.ReadI64(ctr)+1)
				e.Unlock(0)
				e.Compute(dsm.Microsecond)
			}
		}
	})
	sum := rep.Sum()
	remote := float64(max(1, sum.RemoteLockAcqs))
	m["proto.lock_handoff_ns"] = host / remote
	m["proto.lock_handoff_virt_us"] = float64(sum.LockStall) / remote / float64(dsm.Microsecond)

	// Barrier episodes: the paper's central manager at 8 nodes, and the
	// combining tree on the fat tree at 64.
	barrier := func(cfg dsm.Config, episodes int) (ns, virtUs float64) {
		host, rep := rig(cfg, func(*dsm.System) func(*dsm.Env) {
			return func(e *dsm.Env) {
				for i := 0; i < episodes; i++ {
					e.Compute(dsm.Microsecond)
					e.Barrier(i)
				}
			}
		})
		return host / float64(episodes), float64(rep.Elapsed) / float64(episodes) / float64(dsm.Microsecond)
	}
	m["proto.barrier8_ns"], m["proto.barrier8_virt_us"] = barrier(dsm.DefaultConfig(), max(4, 500/scale))
	tree := cell{App: "SOR", Variant: harness.VarO, Backend: "lrc", Procs: 64, Big: true}.config()
	m["proto.barriertree64_ns"], m["proto.barriertree64_virt_us"] = barrier(tree, max(4, 100/scale))
}

// paperExperiments are the seven artifacts of the paper's evaluation.
var paperExperiments = []string{"fig1", "fig2", "table1", "fig3", "fig4", "table2", "fig5"}

func harnessCosts(m map[string]float64, quick bool) {
	// The harness figures use the 64-cell paper grid at unit scale.
	opt := harness.Options{Procs: 8, Scale: apps.Unit, Workers: 1}
	verified := apps.All
	if quick {
		opt.Apps, verified = []string{"FFT"}, apps.All[:1]
	}
	var exps []harness.Experiment
	for _, id := range paperExperiments {
		e, err := harness.ByID(id)
		if err != nil {
			panic(err)
		}
		exps = append(exps, e)
	}
	s := harness.NewSession(opt)
	keys := harness.PrewarmKeys(s, exps)

	timeIt := func(fn func()) float64 {
		runtime.GC()
		t0 := harness.Wallclock()
		fn()
		return harness.Wallclock().Sub(t0).Seconds()
	}
	direct := timeIt(func() {
		for _, k := range keys {
			spec, _ := apps.ByName(k.App)
			sys := dsm.NewSystem(s.Config(k.App, k.Variant))
			sys.Run(spec.Build(sys, apps.Options{Scale: apps.Unit}).Run)
		}
	})
	var runErr error
	pooled := timeIt(func() { runErr = s.RunAll(keys) })
	if runErr != nil {
		panic(runErr)
	}
	m["harness.grid_overhead_pct"] = 100 * (pooled - direct) / direct
	m["harness.render_ms"] = 1e3 * timeIt(func() {
		for _, e := range exps {
			if err := e.Run(s, io.Discard); err != nil {
				panic(err)
			}
		}
	})

	const hits = 100000
	m["harness.cache_hit_ns"] = perOp(hits, func() func() {
		return func() {
			for i := 0; i < hits; i++ {
				if _, err := s.Run(keys[0].App, keys[0].Variant); err != nil {
					panic(err)
				}
			}
		}
	})

	// Informational: the same grid on two workers and every core.
	prev := runtime.GOMAXPROCS(runtime.NumCPU())
	opt.Workers = 2
	s2 := harness.NewSession(opt)
	two := timeIt(func() { runErr = s2.RunAll(keys) })
	runtime.GOMAXPROCS(prev)
	if runErr != nil {
		panic(runErr)
	}
	m["harness.workers2_speedup"] = pooled / two

	// Golden verification: the eight apps at O with and without it.
	verify := func(on bool) float64 {
		var v []float64
		for i := 0; i < unitReps; i++ {
			v = append(v, timeIt(func() {
				for _, a := range verified {
					sys := dsm.NewSystem(s.Config(a.Name, harness.VarO))
					inst := a.Build(sys, apps.Options{Scale: apps.Unit, Verify: on})
					sys.Run(inst.Run)
					if err := inst.Err(); err != nil {
						panic(err)
					}
				}
			}))
		}
		return median(v)
	}
	m["apps.golden_verify_ms"] = 1e3 * (verify(true) - verify(false))
}
