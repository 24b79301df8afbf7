package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"cachecraft/internal/bench"
	"cachecraft/internal/config"
	"cachecraft/internal/schemes"
	"cachecraft/internal/store"
	"cachecraft/internal/trace"
)

// quickConfig is the quick configuration with the run's seed.
func quickConfig(b *benchRun) config.GPU {
	cfg := config.Quick()
	cfg.Seed = b.o.seed
	if b.o.tiny {
		cfg.AccessesPerSM = 40
	}
	return cfg
}

// quickGrid is every workload under every scheme (tiny: a corner of it).
func quickGrid(b *benchRun) []cell {
	if b.o.tiny {
		return cross([]string{"stream", "bfs"}, []string{"none", "cachecraft"})
	}
	return cross(trace.Names(), schemes.All())
}

// The sweep's set-up (one store.Open and two runners) takes tens of
// microseconds, so it is timed in blocks of setupPerBlock constructions
// and reported as the median block's CPU time per construction. The
// blocks reopen one existing store directory, as every pass after the
// first does: creating a directory per construction made the figure a
// reading of the filesystem journal's latency.
const (
	setupBlocks   = 21
	setupPerBlock = 200
)

// sweepPass runs every experiment through r, writing their tables to
// out, and returns the experiments' process CPU time. calSamples
// calibration samples follow each experiment, outside the time returned.
func sweepPass(b *benchRun, r *bench.Runner, base config.GPU, out *bytes.Buffer, ts *timedStore, parent, calSamples int) (time.Duration, error) {
	var total time.Duration
	for _, e := range bench.All() {
		id := b.spans.begin(parent, "experiment", map[string]any{"id": e.ID})
		ts.under(id)
		fmt.Fprintf(out, "\n### %s — %s\n\n", e.ID, e.Title)
		c0 := cpuTime()
		err := e.Run(r, base, out)
		total += cpuTime() - c0
		b.spans.end(id)
		b.cal.sample(calSamples)
		b.op(err)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", e.ID, err)
		}
	}
	return total, nil
}

// newSweepRunner is the sweep's runner: one simulation at a time over ts.
func newSweepRunner(base config.GPU, ts *timedStore) *bench.Runner {
	r := bench.NewRunner(base)
	r.SetWorkers(1)
	r.SetStore(ts)
	return r
}

// coldPass is one cold sweep's measurements.
type coldPass struct {
	out    *bytes.Buffer
	cpu    time.Duration // process CPU time
	allocs uint64
	stats  bench.Stats
	ts     *timedStore
}

// coldSweep runs the full experiment set over a fresh store.
func coldSweep(b *benchRun, base config.GPU, name string, parent int) (coldPass, error) {
	var p coldPass
	s, err := store.Open(filepath.Join(b.tmp, name))
	if err != nil {
		return p, err
	}
	p.ts = newTimedStore(s, b.spans)
	r := newSweepRunner(base, p.ts)
	p.out = &bytes.Buffer{}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p.cpu, err = sweepPass(b, r, base, p.out, p.ts, parent, 3)
	runtime.ReadMemStats(&after)
	p.allocs = after.Mallocs - before.Mallocs
	p.stats = r.Stats()
	return p, err
}

// runSweepQuick measures the full quick experiment set through
// bench.Runner with one simulation at a time: a cold pass that simulates
// and saves every cell, then warm passes — each a new runner over the
// same store, so every cell is a store read — until the measuring time is
// spent. Cold and warm output must be byte-identical. Throughputs and
// set-up are in process CPU time, store reads in thread CPU time, each
// calibrated by the kernel samples of its phase.
func runSweepQuick(b *benchRun) error {
	base := quickConfig(b)

	setup := make([]float64, 0, setupBlocks)
	setupDir := filepath.Join(b.tmp, "setup")
	setupCal := b.cal.mark()
	for i := 0; i < setupBlocks; i++ {
		b.cal.sample(1)
		c0 := cpuTime()
		for k := 0; k < setupPerBlock; k++ {
			s, err := store.Open(setupDir)
			if err != nil {
				return err
			}
			ts := newTimedStore(s, nil)
			newSweepRunner(base, ts)
			newSweepRunner(base, ts)
		}
		setup = append(setup, (cpuTime()-c0).Seconds()/setupPerBlock)
	}
	if err := os.RemoveAll(setupDir); err != nil {
		return err
	}

	// Untimed warm-up: one cell through a throwaway runner and store.
	ws, err := store.Open(filepath.Join(b.tmp, "warmup"))
	if err != nil {
		return err
	}
	_, err = newSweepRunner(base, newTimedStore(ws, nil)).Result(bench.Spec{CfgID: "base", Workload: "stream", Variant: "cachecraft"})
	b.op(err)
	if err != nil {
		return err
	}

	setupScale := b.cal.scale(setupCal)
	measureStart := time.Now()
	coldCal := b.cal.mark()
	parent := b.spans.begin(0, "cold-pass", nil)
	cold, err := coldSweep(b, base, "store", parent)
	b.spans.end(parent)
	if err != nil {
		return err
	}
	var acc, cycles float64
	for _, s := range cold.ts.saved {
		acc += s.accesses
		cycles += s.cycles
	}
	// A cold cell is materialised by simulating it or, when another
	// experiment already simulated the same configuration under a
	// different id, by reading it from the store — as the sweep's own
	// footer counts results.
	coldCells := cold.stats.Runs + cold.stats.StoreHits
	b.check(cold.stats.Runs > 0 && len(cold.ts.saved) == cold.stats.Runs, "cold pass: %d sims, %d saves", cold.stats.Runs, len(cold.ts.saved))
	coldScale := b.cal.scale(coldCal)
	b.set("cells_per_s", float64(coldCells)/(cold.cpu.Seconds()*coldScale))
	b.set("accesses_per_s", acc/(cold.cpu.Seconds()*coldScale))
	b.set("sim_cycles", cycles)
	b.set("allocs_per_access", float64(cold.allocs)/acc)

	if b.o.trace {
		return traceSweep(b, base, cold)
	}

	var warmCPU []float64
	hits := 0
	warmCal := b.cal.mark()
	for {
		d, st, err := warmSweep(b, base, cold.ts, cold.out)
		if err != nil {
			return err
		}
		warmCPU = append(warmCPU, d.Seconds())
		hits += st.StoreHits
		if !b.more(measureStart, d.Seconds()) && len(cold.ts.hitCPU) >= 2*tailChunk {
			break
		}
		if b.o.tiny && len(warmCPU) >= 2 {
			break
		}
	}
	warmScale := b.cal.scale(warmCal)
	b.set("warm_cells_per_s", float64(hits)/(sum(warmCPU)*warmScale))
	b.set("hit_ms_p50", median(cold.ts.hitCPU)*warmScale)
	b.set("hit_ms_p99", p99(cold.ts.hitCPU)*warmScale)
	b.set("setup_s", median(setup)*setupScale)
	b.report["raw"] = map[string]any{
		"setup_cpu_s": setup, "cold_cpu_s": cold.cpu.Seconds(), "cold_cells": coldCells, "cold_sims": cold.stats.Runs,
		"warm_cpu_s": warmCPU, "hit_samples": len(cold.ts.hitCPU),
		"scale": map[string]float64{"setup": setupScale, "cold": coldScale, "warm": warmScale},
	}
	return nil
}

// warmSweep re-runs the experiment set through a new runner over the
// cold pass's store, checks its output against the cold output, and
// returns the pass's process CPU time and the runner's accounting.
func warmSweep(b *benchRun, base config.GPU, ts *timedStore, cold *bytes.Buffer) (time.Duration, bench.Stats, error) {
	r := newSweepRunner(base, ts)
	var warm bytes.Buffer
	parent := b.spans.begin(0, "warm-pass", nil)
	d, err := sweepPass(b, r, base, &warm, ts, parent, 1)
	b.spans.end(parent)
	if err != nil {
		return 0, bench.Stats{}, err
	}
	if b.planted("warm-stdout") {
		warm.WriteString("x")
	}
	b.check(bytes.Equal(cold.Bytes(), warm.Bytes()), "warm sweep output differs from cold output")
	st := r.Stats()
	b.check(st.Runs == 0, "warm sweep simulated %d cells; want 0", st.Runs)
	return d, st, nil
}

// traceSweep is the traced run of sweep-quick: a second cold pass under a
// CPU profile (its output must match the untraced pass), one warm pass
// for the bench and store layers, and the cell analysis over the quick
// grid for the simulator layers.
func traceSweep(b *benchRun, base config.GPU, cold coldPass) error {
	prof, err := startCPUProfile()
	if err != nil {
		return err
	}
	parent := b.spans.begin(0, "cold-pass", map[string]any{"traced": true})
	traced, err := coldSweep(b, base, "store-traced", parent)
	b.spans.end(parent)
	cpu, perr := prof.stop()
	if err != nil {
		return err
	}
	if perr != nil {
		return perr
	}
	if b.planted("traced-stdout") {
		traced.out.WriteString("x")
	}
	b.check(bytes.Equal(cold.out.Bytes(), traced.out.Bytes()), "traced sweep output differs from untraced output")
	setCPUFractions(b, cpu)
	setOverhead(b, cold.cpu, traced.cpu)

	_, warmStats, err := warmSweep(b, base, cold.ts, cold.out)
	if err != nil {
		return err
	}
	cold.ts.setStoreMetrics(b)
	setBenchMetrics(b, addStats(cold.stats, warmStats))
	if _, err := analyzeCells(b, base, quickGrid(b), false); err != nil {
		return err
	}
	return os.RemoveAll(filepath.Join(b.tmp, "store-traced"))
}
