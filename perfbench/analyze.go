package main

import (
	"math"
	"runtime"
	"time"

	"cachecraft/internal/config"
	"cachecraft/internal/gpu"
)

// allocLayers are the simulator layers whose per-access allocations are
// reported.
var allocLayers = []string{"sim", "gpu", "cache", "dram", "protect", "core", "trace"}

// analyzeCells is the traced run's cell-level analysis, shared by every
// workload. Per cell it makes an untraced run, a traced run (engine step
// hook, DRAM submit recorder and counting scheme wrapper, plus a CPU
// profile when profileCPU is set), a heap-profiled run at
// MemProfileRate 1 with a quarter of the accesses, and layer calls timed
// from outside: trace.Build plus a Next drain, gpu.Coalesce over the same
// stream, and a replay of the recorded DRAM submit stream into a fresh
// dram.New. It sets the sim, trace, gpu, cache, dram, protect and core
// per-layer metrics and returns the cells' results with the CPU
// attribution (nil without profileCPU) and the summed untraced and traced
// Machine.Run process CPU times.
func analyzeCells(b *benchRun, cfg config.GPU, cells []cell, profileCPU bool) (analysis, error) {
	var an analysis
	parent := b.spans.begin(0, "analyze-cells", map[string]any{"cells": len(cells)})
	defer b.spans.end(parent)

	var (
		news                        []float64
		events, readMisses, wbs     uint64
		latCycles, latN             uint64
		replayNs                    float64
		replayReqs                  float64
		rowErr, rowTotal            float64
		traceNs, coalesceNs         float64
		accesses                    float64
		mallocsDuring, heapAccesses float64
	)
	if profileCPU {
		an.cpu = newAttribution()
	}
	heap := newAttribution()

	for _, c := range cells {
		cs := b.spans.begin(parent, "cell", map[string]any{"cell": c.String()})

		// Untraced reference run.
		id := b.spans.begin(cs, "gpu.New", nil)
		m, d, err := build(cfg, c, nil)
		b.spans.end(id)
		b.op(err)
		if err != nil {
			return an, err
		}
		news = append(news, ms(d))
		id = b.spans.begin(cs, "Machine.Run", map[string]any{"traced": false})
		ref, err := simulate(m, c)
		b.spans.end(id)
		b.op(err)
		if err != nil {
			return an, err
		}
		m = nil
		an.untraced += ref.cpu
		ok, classes, total := classBytesMatch(ref.res)
		if b.planted("class-bytes") {
			ok = false
		}
		b.check(ok, "%s: DRAM class bytes sum to %d, total is %d", c, classes, total)
		an.results = append(an.results, ref.res)

		// Traced run: observers attached through the scheme factory.
		probe := &cellProbe{record: true}
		var prof *cpuProfile
		if profileCPU {
			if prof, err = startCPUProfile(); err != nil {
				return an, err
			}
		}
		id = b.spans.begin(cs, "gpu.New", map[string]any{"traced": true})
		m, _, err = build(cfg, c, probe.wrap)
		b.spans.end(id)
		b.op(err)
		if err != nil {
			if prof != nil {
				prof.stop()
			}
			return an, err
		}
		id = b.spans.begin(cs, "Machine.Run", map[string]any{"traced": true})
		tr, err := simulate(m, c)
		b.spans.end(id)
		m = nil
		if prof != nil {
			a, perr := prof.stop()
			if perr != nil {
				return an, perr
			}
			an.cpu.merge(a)
		}
		b.op(err)
		if err != nil {
			return an, err
		}
		an.traced += tr.cpu
		if b.planted("traced") {
			tr.res.Cycles++
		}
		b.check(sameResult(ref.res, tr.res), "%s: traced result differs from untraced", c)
		events += probe.events
		readMisses += probe.readMisses
		wbs += probe.writebacks
		latCycles += probe.latCycles
		latN += probe.latN

		// DRAM replay of the recorded submit stream.
		id = b.spans.begin(cs, "dram.replay", map[string]any{"requests": len(probe.subs)})
		rd, rows, err := replayDRAM(cfg, probe.subs)
		b.spans.end(id)
		b.op(err)
		if err != nil {
			return an, err
		}
		replayNs += float64(rd.Nanoseconds())
		replayReqs += float64(len(probe.subs))
		orig := [3]uint64{ref.res.DRAMRowHits, ref.res.DRAMRowMisses, ref.res.DRAMRowConfl}
		for i := range rows {
			rowErr += math.Abs(float64(rows[i]) - float64(orig[i]))
			rowTotal += float64(orig[i])
		}
		probe = nil

		// Heap-profiled run: every allocation recorded with its stack. At
		// MemProfileRate 1 a run takes about ten times as long, so it
		// simulates a quarter of the cell's accesses; allocations per
		// access barely depend on the count.
		old := runtime.MemProfileRate
		runtime.MemProfileRate = 1
		hcfg := heapConfig(cfg)
		m, _, err = build(hcfg, c, nil)
		if err == nil {
			before := takeHeapSnapshot()
			id = b.spans.begin(cs, "Machine.Run", map[string]any{"heap_profile": true})
			var hr runOnce
			hr, err = simulate(m, c)
			b.spans.end(id)
			if err == nil {
				chargeAllocs(heap, before, takeHeapSnapshot())
				mallocsDuring += float64(hr.allocs)
				heapAccesses += accessesOf(hcfg)
				ok, classes, total := classBytesMatch(hr.res)
				if b.planted("heap") {
					ok = false
				}
				b.check(ok, "%s: heap-profiled run's DRAM class bytes sum to %d, total is %d", c, classes, total)
			}
		}
		m = nil
		runtime.MemProfileRate = old
		b.op(err)
		if err != nil {
			return an, err
		}

		// Layer calls, timed from outside.
		id = b.spans.begin(cs, "trace.Build+Next", nil)
		td, n, err := driveTrace(cfg, c.Workload)
		b.spans.end(id)
		b.op(err)
		if err != nil {
			return an, err
		}
		if b.planted("accesses") {
			n++
		}
		b.check(float64(n) == accessesOf(cfg), "%s: trace produced %d accesses, want %v", c, n, accessesOf(cfg))
		id = b.spans.begin(cs, "gpu.Coalesce", nil)
		cd, err := driveCoalesce(cfg, c.Workload)
		b.spans.end(id)
		b.op(err)
		if err != nil {
			return an, err
		}
		traceNs += float64(td.Nanoseconds())
		coalesceNs += float64(cd.Nanoseconds())
		accesses += accessesOf(cfg)
		b.spans.end(cs)
	}

	b.set("sim.events", float64(events))
	b.set("sim.ns_per_event", float64(an.untraced.Nanoseconds())/float64(events))
	b.set("trace.ns_per_access", traceNs/accesses)
	b.set("gpu.coalesce_ns_per_access", coalesceNs/accesses)
	b.set("gpu.new_ms_p50", median(news))
	b.set("dram.replay_ns_per_req", replayNs/math.Max(replayReqs, 1))
	b.set("dram.replay_row_mismatch_frac", rowErr/math.Max(rowTotal, 1))
	b.set("protect.read_misses", float64(readMisses))
	b.set("protect.writebacks", float64(wbs))
	b.set("protect.read_latency_cycles_mean", float64(latCycles)/math.Max(float64(latN), 1))
	for _, l := range allocLayers {
		b.set(l+".allocs_per_access", heap.byLayer[l]/heapAccesses)
	}
	b.report["heap_profile"] = map[string]any{
		"profiled_allocs_per_access": heap.total / heapAccesses,
		"memstats_allocs_per_access": mallocsDuring / heapAccesses,
		"other_allocs_per_access":    heap.other / heapAccesses,
		"accesses_per_sm":            heapConfig(cfg).AccessesPerSM,
		"note":                       "allocations during Machine.Run at MemProfileRate=1, charged to the innermost layer frame",
	}
	setResultMetrics(b, an.results)
	return an, nil
}

// analysis is what analyzeCells measured beyond the metrics it sets.
type analysis struct {
	cpu      *attribution
	untraced time.Duration
	traced   time.Duration
	results  []gpu.Result
}

// heapConfig is cfg with a quarter of the accesses (at least 100 per SM),
// for the heap-profiled runs.
func heapConfig(cfg config.GPU) config.GPU {
	if n := cfg.AccessesPerSM / 4; n >= 100 {
		cfg.AccessesPerSM = n
	}
	return cfg
}

// setResultMetrics derives the exact per-layer counts from the cells'
// results (simulated quantities; they repeat exactly for a seed).
func setResultMetrics(b *benchRun, results []gpu.Result) {
	var sectorReqs, l1h, l1m, l2h, l2m, dramReq, rh, rm, rc float64
	var latW, busW, cycles float64
	var rcHits, redDRAM, reconUsed, reconIns float64
	classes := map[string]float64{}
	for _, r := range results {
		sectorReqs += float64(r.Machine.Get("sector_requests"))
		l1h += float64(r.Machine.Get("l1_hits"))
		l1m += float64(r.Machine.Get("l1_misses"))
		l2h += float64(r.Machine.Get("l2_hits"))
		l2m += float64(r.Machine.Get("l2_misses"))
		req := float64(r.DRAMStats.Get("requests"))
		dramReq += req
		latW += r.AvgMemLatency * req
		rh += float64(r.DRAMRowHits)
		rm += float64(r.DRAMRowMisses)
		rc += float64(r.DRAMRowConfl)
		busW += r.BusUtilization * float64(r.Cycles)
		cycles += float64(r.Cycles)
		for k, v := range r.DRAMBytes {
			classes[k] += float64(v)
		}
		rcHits += float64(r.ControllerSt.Get("red_rc_hits"))
		redDRAM += float64(r.ControllerSt.Get("red_reads_dram"))
		reconUsed += float64(r.ControllerSt.Get("reconstruct_used"))
		reconIns += float64(r.ControllerSt.Get("reconstruct_sectors"))
	}
	rate := func(n, d float64) float64 {
		if d == 0 {
			return 0
		}
		return n / d
	}
	b.set("gpu.sector_requests", sectorReqs)
	b.set("gpu.l1_hit_rate", rate(l1h, l1h+l1m))
	b.set("gpu.l2_hit_rate", rate(l2h, l2h+l2m))
	b.set("gpu.avg_mem_latency_cycles", rate(latW, dramReq))
	b.set("dram.requests", dramReq)
	b.set("dram.row_hit_rate", rate(rh, rh+rm+rc))
	for _, k := range []string{"demand", "redundancy", "reconstruct", "writeback", "rmw"} {
		b.set("dram.bytes."+k, classes[k])
	}
	b.set("dram.bus_util", rate(busW, cycles))
	b.set("core.rc_hit_rate", rate(rcHits, rcHits+redDRAM))
	b.set("core.recon_used_frac", rate(reconUsed, reconIns))
}

// merge adds o's counts into a.
func (a *attribution) merge(o *attribution) {
	for k, v := range o.byLayer {
		a.byLayer[k] += v
	}
	a.gc += o.gc
	a.other += o.other
	a.total += o.total
}

// setCPUFractions reports each layer's share of the CPU samples, GC's
// share and the rest, and checks that the shares sum to one.
func setCPUFractions(b *benchRun, a *attribution) {
	if a.total == 0 {
		b.check(false, "cpu profile recorded no samples")
		return
	}
	s := 0.0
	for _, l := range layers {
		f := a.byLayer[l] / a.total
		b.set(l+".cpu_frac", f)
		s += f
	}
	b.set("runtime.gc_cpu_frac", a.gc/a.total)
	b.set("other.cpu_frac", a.other/a.total)
	s += (a.gc + a.other) / a.total
	b.check(math.Abs(s-1) < 1e-9, "cpu_frac values plus other sum to %v, not 1", s)
	b.report["cpu_profile"] = map[string]any{"samples": a.total, "frac_sum": s}
}

// setOverhead reports the traced run's slowdown against the untraced run
// of the same work.
func setOverhead(b *benchRun, untraced, traced time.Duration) {
	b.set("perfbench.trace_overhead_frac", traced.Seconds()/untraced.Seconds()-1)
	b.report["tracing_overhead"] = map[string]any{
		"untraced_s": untraced.Seconds(),
		"traced_s":   traced.Seconds(),
	}
}
