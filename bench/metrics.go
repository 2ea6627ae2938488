package main

import (
	"runtime"
	"slices"
	"strings"

	"godsm/dsm"
	"godsm/internal/event"
)

// metricDef names one metric the benchmark emits. BENCHMARK.json carries the
// same lists; bench_test.go keeps the two equal.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median a later PR may lose
}

// endToEnd lists what a user of the simulator sees. Lower is better for all
// of them. fail_ratio is not here because the contract forbids an
// end-to-end metric that is always 0; the result line's attempted/failed
// carry it, and it is emitted per layer.
var endToEnd = []metricDef{
	{"wall_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"virt_ms", "sim_ms", "lower", 0},
	{"allocs_per_event", "count", "lower", 0.01},
	{"bytes_per_event", "B", "lower", 0.02},
	{"live_heap_mb", "MB", "lower", 0.05},
}

func defs(unit, better string, names ...string) []metricDef {
	var d []metricDef
	for _, n := range names {
		d = append(d, metricDef{Name: n, Unit: unit, Better: better})
	}
	return d
}

// perLayer lists the traced invocation's metrics. Host times are ns, us, ms
// or s; sim_us is simulated time and repeats exactly, as every count does.
var perLayer = slices.Concat(
	// (a) Unit costs: one operation of one layer, timed from outside.
	defs("ns", "lower",
		"sim.event_ns", "sim.timer_ns", "sim.spawn_ns", "sim.proc_switch_ns", "sim.proc_switch_mp_ns",
		"event.emit0_ns", "event.emit1_ns", "event.emit4_ns", "event.tracewriter_ns", "stats.collector_ns",
		"netsim.send_single_ns", "netsim.send_fattree_ns", "netsim.send_faulted_ns",
		"pagemem.makediff_sparse_ns", "pagemem.makediff_dense_ns", "pagemem.apply_ns", "pagemem.twin_ns",
		"lrc.vc8_ns", "lrc.vc1024_ns",
		"race.access_word_ns", "race.access_page_ns",
		"core.access_hit_ns", "core.write_hit_ns", "core.access_hit_race_ns",
		"proto.lrc.fault_ns", "proto.erc.fault_ns", "proto.hlrc.fault_ns", "proto.adp.fault_ns",
		"proto.lock_handoff_ns", "proto.barrier8_ns", "proto.barriertree64_ns", "proto.transport_loss_ns",
		"harness.cache_hit_ns"),
	defs("us", "lower", "core.newsystem_8_us"),
	defs("ms", "lower", "core.newsystem_1024_ms", "harness.render_ms", "apps.golden_verify_ms"),
	defs("count", "lower", "sim.event_allocs", "netsim.send_allocs", "race.access_allocs"),
	defs("sim_us", "lower",
		"proto.lrc.fault_virt_us", "proto.erc.fault_virt_us", "proto.hlrc.fault_virt_us", "proto.adp.fault_virt_us",
		"proto.lock_handoff_virt_us", "proto.barrier8_virt_us", "proto.barriertree64_virt_us"),
	defs("%", "lower", "harness.grid_overhead_pct"),
	defs("ratio", "higher", "harness.workers2_speedup"),

	// (b) Exact counts from the count pass, and the modelled breakdown.
	defs("count", "lower",
		"sim.events", "event.emitted",
		"netsim.msgs", "netsim.hops", "netsim.drops",
		"proto.faults", "proto.diffs_made", "proto.home_fetches", "proto.home_flushes", "proto.lock_acquires",
		"proto.barriers", "proto.retransmits", "proto.mode_switches", "proto.gossip_rounds",
		"core.thread_switches", "pagemem.twins"),
	defs("B", "lower", "netsim.bytes", "proto.diff_bytes"),
	defs("sim_us", "lower", "netsim.peak_backlog_us"),
	defs("ns", "lower", "sim.ns_per_event"),
	defs("%", "higher", "virt.busy_pct"),
	defs("%", "lower", "virt.dsm_pct", "virt.mem_idle_pct", "virt.sync_idle_pct", "virt.pf_ov_pct", "virt.mt_ov_pct"),

	// (c) Spans around the four layer calls of a cell, and wall_s shares
	// estimated from outside as count x unit cost.
	defs("s", "lower", "core.newsystem_s", "apps.build_s", "core.run_s", "apps.verify_s"),
	defs("ratio", "lower",
		"est.sim_share", "est.switch_share", "est.netsim_share", "est.event_share", "est.pagemem_share",
		"est.race_share", "est.unattributed_share"),

	// (d) The benchmark itself.
	defs("%", "lower", "bench.trace_overhead_pct", "bench.rep_spread_pct"),
	defs("count", "lower", "bench.gc_cycles"),
	defs("ms", "lower", "bench.gc_pause_ms"),
	defs("ratio", "lower", "fail_ratio"),
)

// div is a/b, or 0 when b is 0 (a workload whose every cell failed has no
// events to divide by; its result line still has to print).
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// failed returns how many cells failed.
func (res *result) failed() int {
	n := 0
	for _, cr := range res.cells {
		if cr.failure != "" {
			n++
		}
	}
	return n
}

// sum adds f over the cells.
func (res *result) sum(f func(*cellResult) float64) float64 {
	var t float64
	for _, cr := range res.cells {
		t += f(cr)
	}
	return t
}

// best returns the index of the cell's fastest timed rep. Interference on
// a shared host only ever adds time, so the fastest rep is the steadiest
// estimate of what the cell costs (NOISE.md has the comparison with the
// median).
func (cr *cellResult) best() int {
	b := 0
	for i, t := range cr.times {
		if t < cr.times[b] {
			b = i
		}
	}
	return b
}

// wall is wall_s: every cell's fastest rep, summed.
func (res *result) wall() float64 {
	return res.sum(func(cr *cellResult) float64 { return cr.times[cr.best()] })
}

func (res *result) events() float64 {
	return res.sum(func(cr *cellResult) float64 { return float64(cr.counts.n[event.KindDispatch]) })
}

// endToEndValues computes the end-to-end metrics.
func (res *result) endToEndValues() map[string]float64 {
	ev := res.events()
	var heap uint64
	for _, cr := range res.cells {
		heap = max(heap, cr.heap)
	}
	return map[string]float64{
		"wall_s":           res.wall(),
		"setup_s":          res.setupS,
		"virt_ms":          res.sum(func(cr *cellResult) float64 { return float64(cr.virt) }) / float64(dsm.Millisecond),
		"allocs_per_event": div(res.sum(func(cr *cellResult) float64 { return median(cr.mallocs) }), ev),
		"bytes_per_event":  div(res.sum(func(cr *cellResult) float64 { return median(cr.bytes) }), ev),
		"live_heap_mb":     float64(heap) / 1e6,
	}
}

// countValues computes the per-layer metrics that need no unit costs: the
// count pass's exact counts, the spans, and the benchmark's own health.
func (res *result) countValues() map[string]float64 {
	var tot counter
	var cat [dsm.NumCategories]float64
	var virt, peak float64
	for _, cr := range res.cells {
		tot.add(&cr.counts)
		if cr.rep == nil {
			continue
		}
		for c, v := range cr.rep.Breakdown.Cat {
			cat[c] += float64(v)
		}
		virt += float64(cr.rep.Elapsed)
		peak = max(peak, float64(cr.rep.PeakLinkBacklog))
	}
	n := func(k event.Kind) float64 { return float64(tot.n[k]) }
	wall, ev := res.wall(), res.events()
	span := func(s int) float64 {
		return res.sum(func(cr *cellResult) float64 { return cr.spans[s][cr.best()] })
	}
	pct := func(c int) float64 { return 100 * div(cat[c], virt) }
	countWall := res.sum(func(cr *cellResult) float64 { return cr.countTime })
	return map[string]float64{
		"sim.events":             ev,
		"sim.ns_per_event":       1e9 * div(wall, ev),
		"event.emitted":          float64(tot.emitted()),
		"netsim.msgs":            n(event.KindNetEnqueue),
		"netsim.bytes":           float64(tot.arg[event.KindNetEnqueue]),
		"netsim.hops":            n(event.KindNetHop),
		"netsim.drops":           n(event.KindNetDrop),
		"netsim.peak_backlog_us": peak / float64(dsm.Microsecond),
		"proto.faults":           n(event.KindFaultLocal) + n(event.KindFaultRemote),
		"proto.diffs_made":       n(event.KindDiffMake),
		"proto.diff_bytes":       float64(tot.arg[event.KindDiffMake]),
		"proto.home_fetches":     n(event.KindHomeFetch),
		"proto.home_flushes":     n(event.KindHomeFlush),
		"proto.lock_acquires":    n(event.KindLockLocal) + n(event.KindLockRemote),
		"proto.barriers":         n(event.KindBarArrive),
		"proto.retransmits":      n(event.KindXpRetransmit),
		"proto.mode_switches":    n(event.KindModeSwitch),
		"proto.gossip_rounds":    n(event.KindGossipPush),
		"core.thread_switches":   n(event.KindThreadSwitch),
		"pagemem.twins":          n(event.KindTwin),
		"virt.busy_pct":          pct(int(dsm.CatBusy)),
		"virt.dsm_pct":           pct(int(dsm.CatDSM)),
		"virt.mem_idle_pct":      pct(int(dsm.CatMemIdle)),
		"virt.sync_idle_pct":     pct(int(dsm.CatSyncIdle)),
		"virt.pf_ov_pct":         pct(int(dsm.CatPrefetchOv)),
		"virt.mt_ov_pct":         pct(int(dsm.CatMTOv)),

		"core.newsystem_s": span(spanNewSystem),
		"apps.build_s":     span(spanBuild),
		"core.run_s":       span(spanRun),
		"apps.verify_s":    span(spanVerify),

		"bench.trace_overhead_pct": 100 * (countWall - wall) / wall,
		"bench.rep_spread_pct":     100 * (slices.Max(res.passes) - slices.Min(res.passes)) / median(res.passes),
		"bench.gc_cycles":          float64(res.gcN) / float64(len(res.passes)),
		"bench.gc_pause_ms":        float64(res.gcPause) / 1e6 / float64(len(res.passes)),
		"fail_ratio":               float64(res.failed()) / float64(len(res.cells)),
	}
}

// estimateShares attributes the workload's wall_s to layers from outside:
// each is an exact count times a unit cost measured in this process, over
// wall_s. They are estimates — unit costs come from synthetic loops with
// warm caches — and what they leave is est.unattributed_share (mostly
// core.Env.access and application code).
func (res *result) estimateShares(unit, m map[string]float64) {
	wall := res.wall() * 1e9
	var switches, sends, applies, raceNs float64
	for _, cr := range res.cells {
		switches += float64(cr.counts.switches)
		send := unit["netsim.send_single_ns"]
		switch {
		case cr.cell.Big:
			send = unit["netsim.send_fattree_ns"]
		case strings.HasSuffix(cr.cell.Backend, "+loss"):
			send = unit["netsim.send_faulted_ns"]
		}
		sends += send * float64(cr.counts.n[event.KindNetEnqueue])
		applies += float64(cr.counts.n[event.KindDiffApply])
		if cr.cell.Race {
			// The detector emits no events, so there is no count to
			// multiply: run the cell once unchecked and take the difference.
			plain := cr.cell
			plain.Race = false
			runtime.GC()
			if r := runCell(plain, nil); r.err == nil {
				raceNs += 1e9 * (cr.spans[spanRun][cr.best()] - r.spans[spanRun].Seconds())
			}
		}
	}
	// A dispatch that resumes a Proc is counted under switch, not sim.
	m["est.sim_share"] = (m["sim.events"] - switches) * unit["sim.event_ns"] / wall
	m["est.switch_share"] = switches * unit["sim.proc_switch_ns"] / wall
	m["est.netsim_share"] = sends / wall
	// Every run has exactly one sink subscribed, the stats collector.
	m["est.event_share"] = m["event.emitted"] * (unit["event.emit1_ns"] + unit["stats.collector_ns"]) / wall
	m["est.pagemem_share"] = (m["pagemem.twins"]*unit["pagemem.twin_ns"] +
		m["proto.diffs_made"]*unit["pagemem.makediff_sparse_ns"] +
		applies*unit["pagemem.apply_ns"]) / wall
	m["est.race_share"] = raceNs / wall
	m["est.unattributed_share"] = 1 - m["est.sim_share"] - m["est.switch_share"] - m["est.netsim_share"] -
		m["est.event_share"] - m["est.pagemem_share"] - m["est.race_share"]
}
