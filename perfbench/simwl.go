package main

import (
	"runtime"
	"time"

	"cachecraft/internal/config"
	"cachecraft/internal/gpu"
)

// newReps is how many times each cell's machine is built per pass; the
// cell's set-up time is the median of its builds.
const newReps = 3

// sim-divergent: irregular workloads whose warp accesses scatter over many
// sectors, so DRAM queues run deep and protection adds the most traffic
// (histogram's partial writes drive read-modify-writes). DRAM, protection
// and per-access allocation dominate host time.
func runSimDivergent(b *benchRun) error {
	return runSim(b,
		cross([]string{"random", "spmv", "bfs", "histogram"}, []string{"inline-naive", "cachecraft"}),
		cell{"bfs", "inline-naive"})
}

// sim-coalesced: streaming workloads with one line per access and row-hit
// DRAM traffic, so the engine, SM/coalescer, caches and crossbar dominate.
// The none cells skip protection entirely; the cachecraft cells exercise
// reconstruction and full-line writes.
func runSimCoalesced(b *benchRun) error {
	return runSim(b,
		cross([]string{"stream", "gemm", "stencil", "scan", "transpose"}, []string{"none", "cachecraft"}),
		cell{"stream", "none"})
}

// simConfig is the default configuration with the run's seed; tiny runs
// shrink the access count only.
func simConfig(b *benchRun) config.GPU {
	cfg := config.Default()
	cfg.Seed = b.o.seed
	if b.o.tiny {
		cfg.AccessesPerSM = 100
	}
	return cfg
}

// runSim measures a set of default-config cells one at a time. After an
// untimed warm-up cell (which must be in the set: its repeat is checked),
// it makes passes over the set until the measuring time is spent; each
// cell's run time, set-up time and allocation count is the median over
// passes. Then it serves the cells warm from a store (simWarmPhase).
func runSim(b *benchRun, cells []cell, warm cell) error {
	cfg := simConfig(b)
	if b.o.trace {
		return traceSim(b, cfg, cells)
	}

	m, _, err := build(cfg, warm, nil)
	b.op(err)
	if err != nil {
		return err
	}
	warmRes, err := simulate(m, warm)
	b.op(err)
	if err != nil {
		return err
	}

	n := len(cells)
	runs := make([][]float64, n)
	cpus := make([][]float64, n)
	news := make([][]float64, n)
	allocs := make([][]float64, n)
	refs := make([]gpu.Result, n)
	minPasses := 1
	if b.o.tiny {
		minPasses = 2
	}
	measureStart := time.Now()
	passCal := b.cal.mark()
	b.cal.sample(3)
	var passDur []float64
	for pass := 0; ; pass++ {
		passStart := time.Now()
		for i, c := range cells {
			var m *gpu.Machine
			for k := 0; k < newReps; k++ {
				m = nil
				runtime.GC() // every build and run starts from a collected heap
				var d time.Duration
				m, d, err = build(cfg, c, nil)
				b.op(err)
				if err != nil {
					return err
				}
				news[i] = append(news[i], d.Seconds())
			}
			runtime.GC()
			r, err := simulate(m, c)
			m = nil
			b.op(err)
			if err != nil {
				return err
			}
			b.cal.sample(3)
			runs[i] = append(runs[i], r.dur.Seconds())
			cpus[i] = append(cpus[i], r.cpu.Seconds())
			allocs[i] = append(allocs[i], float64(r.allocs))
			if b.planted("repeat") {
				r.res.Cycles++
			}
			if pass == 0 {
				refs[i] = r.res
				ok, classes, total := classBytesMatch(r.res)
				if b.planted("class-bytes") {
					ok = false
				}
				b.check(ok, "%s: DRAM class bytes sum to %d, total is %d", c, classes, total)
				if c == warm {
					b.check(sameResult(warmRes.res, r.res), "%s: result differs from the warm-up run", c)
				}
			} else {
				b.check(sameResult(refs[i], r.res), "%s: result differs between passes", c)
			}
		}
		passDur = append(passDur, time.Since(passStart).Seconds())
		if pass+1 >= minPasses && !b.more(measureStart, passDur[pass]) {
			break
		}
	}

	// Host times are process CPU seconds (on a shared VM the wall clock
	// also counts time the host steals from the guest), calibrated by the
	// kernel samples taken after every cell.
	scale := b.cal.scale(passCal)
	var runS, wallS, newS, allocN, acc, cycles float64
	perCell := map[string]any{}
	for i, c := range cells {
		runS += median(cpus[i])
		wallS += median(runs[i])
		newS += median(news[i])
		allocN += median(allocs[i])
		acc += accessesOf(cfg)
		cycles += float64(refs[i].Cycles)
		perCell[c.String()] = map[string]any{"wall_s": runs[i], "cpu_s": cpus[i], "new_cpu_s": news[i], "allocs": allocs[i], "cycles": refs[i].Cycles}
	}
	b.set("accesses_per_s", acc/(runS*scale))
	b.set("sim_cycles", cycles)
	b.set("allocs_per_access", allocN/acc)
	b.set("cells_per_s", float64(n)/((runS+newS)*scale))
	b.set("setup_s", newS*scale)
	b.report["raw"] = map[string]any{"passes": len(passDur), "pass_s": passDur, "cells": perCell,
		"cpu_accesses_per_s": acc / runS, "wall_accesses_per_s": acc / wallS, "scale": scale}
	return simWarmPhase(b, cfg, cells, refs)
}

// traceSim is the traced run of a sim workload: the cell analysis with a
// CPU profile over every traced cell, then the warm phase for the bench
// and store layers.
func traceSim(b *benchRun, cfg config.GPU, cells []cell) error {
	an, err := analyzeCells(b, cfg, cells, true)
	if err != nil {
		return err
	}
	setCPUFractions(b, an.cpu)
	setOverhead(b, an.untraced, an.traced)
	return simWarmPhase(b, cfg, cells, an.results)
}
