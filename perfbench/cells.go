package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"time"

	"cachecraft/internal/config"
	"cachecraft/internal/dram"
	"cachecraft/internal/gpu"
	"cachecraft/internal/mem"
	"cachecraft/internal/protect"
	"cachecraft/internal/schemes"
	"cachecraft/internal/sim"
	"cachecraft/internal/trace"
)

// cell is one (workload, scheme) simulation.
type cell struct {
	Workload string
	Scheme   string
}

func (c cell) String() string { return c.Workload + "/" + c.Scheme }

func cross(wls, schs []string) []cell {
	var out []cell
	for _, w := range wls {
		for _, s := range schs {
			out = append(out, cell{w, s})
		}
	}
	return out
}

// accessesOf is the number of warp accesses one cell simulates: every
// generator emits exactly AccessesPerSM accesses per SM (driveTrace
// checks this).
func accessesOf(cfg config.GPU) float64 { return float64(cfg.NumSMs * cfg.AccessesPerSM) }

// build constructs a machine for c and reports the CPU time gpu.New
// took; wrap, when non-nil, decorates the scheme factory with the traced
// run's observers.
func build(cfg config.GPU, c cell, wrap func(protect.Factory) protect.Factory) (*gpu.Machine, time.Duration, error) {
	f, err := schemes.ByName(c.Scheme)
	if err != nil {
		return nil, 0, err
	}
	if wrap != nil {
		f = wrap(f)
	}
	c0 := cpuTime()
	m, err := gpu.New(cfg, c.Workload, f)
	return m, cpuTime() - c0, err
}

// runOnce is one timed Machine.Run with the heap allocations it made.
type runOnce struct {
	res    gpu.Result
	dur    time.Duration
	cpu    time.Duration
	allocs uint64
}

func simulate(m *gpu.Machine, c cell) (runOnce, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c0 := cpuTime()
	t0 := time.Now()
	res, err := m.Run()
	dur := time.Since(t0)
	cpu := cpuTime() - c0
	runtime.ReadMemStats(&after)
	if err != nil {
		return runOnce{}, fmt.Errorf("%s: %w", c, err)
	}
	res.Workload, res.Scheme = c.Workload, c.Scheme
	return runOnce{res: res, dur: dur, cpu: cpu, allocs: after.Mallocs - before.Mallocs}, nil
}

// canon is a result's canonical encoding, for identity checks.
func canon(res gpu.Result) []byte {
	b, err := json.Marshal(res)
	if err != nil {
		panic(err) // gpu.Result always encodes
	}
	return b
}

func sameResult(a, b gpu.Result) bool { return bytes.Equal(canon(a), canon(b)) }

// classBytesMatch checks that the per-class DRAM byte counts sum to the
// DRAM's total bytes read and written.
func classBytesMatch(res gpu.Result) (bool, uint64, uint64) {
	var classes uint64
	for _, v := range res.DRAMBytes {
		classes += v
	}
	total := res.DRAMStats.Get("bytes_read") + res.DRAMStats.Get("bytes_written")
	return classes == total, classes, total
}

// submission is one recorded DRAM request.
type submission struct {
	at    sim.Cycle
	addr  uint64
	bytes int32
	class mem.Class
	write bool
}

// cellProbe is the traced run's observer set for one cell: it counts
// engine events (Engine.SetStepHook), records the DRAM submit stream
// (dram.Hook) and wraps the protection scheme. All of it is reached
// through the factory's protect.Env, so the machine itself is unchanged.
type cellProbe struct {
	events     uint64
	readMisses uint64
	writebacks uint64
	latCycles  uint64
	latN       uint64
	record     bool
	subs       []submission
}

func (p *cellProbe) wrap(f protect.Factory) protect.Factory {
	return func(env *protect.Env) protect.Scheme {
		env.Eng.SetStepHook(func(sim.Cycle) { p.events++ })
		env.DRAM.SetHook(p)
		inner := f(env)
		w := &countingScheme{inner: inner, p: p}
		if ro, ok := inner.(protect.ReconstructionObserver); ok {
			return &countingObserver{countingScheme: w, ro: ro}
		}
		return w
	}
}

// Submitted implements dram.Hook.
func (p *cellProbe) Submitted(now sim.Cycle, req mem.Request, ch, bk int, row int64) {
	if p.record {
		p.subs = append(p.subs, submission{at: now, addr: req.Addr, bytes: int32(req.Bytes), class: req.Class, write: req.Write})
	}
}

// Serviced implements dram.Hook.
func (p *cellProbe) Serviced(sim.Cycle, mem.Request, int, int, int64, int64, sim.Cycle) {}

// Refreshed implements dram.Hook.
func (p *cellProbe) Refreshed(sim.Cycle, int) {}

// countingScheme counts the controller's read misses and writebacks and
// the simulated cycles from each ReadMiss to its done callback.
type countingScheme struct {
	inner protect.Scheme
	p     *cellProbe
}

func (s *countingScheme) Name() string { return s.inner.Name() }

func (s *countingScheme) ReadMiss(now sim.Cycle, lineAddr uint64, mask uint64, class mem.Class, done func(sim.Cycle)) {
	s.p.readMisses++
	s.inner.ReadMiss(now, lineAddr, mask, class, func(at sim.Cycle) {
		s.p.latCycles += uint64(at - now)
		s.p.latN++
		done(at)
	})
}

func (s *countingScheme) Writeback(now sim.Cycle, lineAddr uint64, dirtyMask uint64) {
	s.p.writebacks++
	s.inner.Writeback(now, lineAddr, dirtyMask)
}

func (s *countingScheme) NeedsRMWFetch() bool { return s.inner.NeedsRMWFetch() }

func (s *countingScheme) Drain(now sim.Cycle) { s.inner.Drain(now) }

// countingObserver forwards reconstruction feedback, which CacheCraft's
// predictor needs; dropping it would change the simulated results.
type countingObserver struct {
	*countingScheme
	ro protect.ReconstructionObserver
}

func (s *countingObserver) ReconstructedUse(addr uint64, used bool) {
	s.ro.ReconstructedUse(addr, used)
}

var (
	_ dram.Hook                      = (*cellProbe)(nil)
	_ protect.ReconstructionObserver = (*countingObserver)(nil)
	_ protect.Scheme                 = (*countingScheme)(nil)
	_ sim.Handler                    = (*replayer)(nil)
)

// replayer feeds a recorded submit stream into a fresh DRAM model, each
// request at the cycle it was submitted for. Controllers may submit for a
// cycle later than the engine's, so the stream is replayed in cycle
// order (stable, so same-cycle requests keep their order).
type replayer struct {
	eng  *sim.Engine
	d    *dram.DRAM
	subs []submission
	i    int
}

func (r *replayer) OnEvent(now sim.Cycle, _, _ uint64) {
	for r.i < len(r.subs) && r.subs[r.i].at <= now {
		s := r.subs[r.i]
		r.d.Submit(now, mem.Request{Addr: s.addr, Write: s.write, Bytes: int(s.bytes), Class: s.class})
		r.i++
	}
	if r.i < len(r.subs) {
		r.eng.Post(r.subs[r.i].at, r, 0, 0)
	}
}

// replayDRAM replays subs into dram.New and returns the wall time and the
// replay's row hit/miss/conflict counts.
func replayDRAM(cfg config.GPU, subs []submission) (time.Duration, [3]uint64, error) {
	var rows [3]uint64
	if len(subs) == 0 {
		return 0, rows, nil
	}
	sort.SliceStable(subs, func(i, j int) bool { return subs[i].at < subs[j].at })
	t0 := time.Now()
	eng := sim.NewEngine()
	d := dram.New(eng, cfg.DRAM)
	r := &replayer{eng: eng, d: d, subs: subs}
	eng.Post(subs[0].at, r, 0, 0)
	eng.Run(subs[len(subs)-1].at + 50_000_000)
	dur := time.Since(t0)
	if !d.Drain() {
		return dur, rows, fmt.Errorf("dram replay did not drain")
	}
	rows = [3]uint64{d.Stats.Get("row_hits"), d.Stats.Get("row_misses"), d.Stats.Get("row_conflicts")}
	return dur, rows, nil
}

// driveTrace times trace.Build plus a Next drain for every SM of a cell
// and returns the accesses it produced.
func driveTrace(cfg config.GPU, workload string) (time.Duration, int, error) {
	t0 := time.Now()
	n := 0
	for sm := 0; sm < cfg.NumSMs; sm++ {
		wl, err := trace.Build(workload, params(cfg, sm))
		if err != nil {
			return 0, 0, err
		}
		for {
			if _, ok := wl.Next(); !ok {
				break
			}
			n++
		}
	}
	return time.Since(t0), n, nil
}

// driveCoalesce materialises a cell's access stream (untimed), then times
// gpu.Coalesce over it.
func driveCoalesce(cfg config.GPU, workload string) (time.Duration, error) {
	var stream []trace.Access
	for sm := 0; sm < cfg.NumSMs; sm++ {
		wl, err := trace.Build(workload, params(cfg, sm))
		if err != nil {
			return 0, err
		}
		for {
			a, ok := wl.Next()
			if !ok {
				break
			}
			a.Addrs = append([]uint64(nil), a.Addrs...)
			stream = append(stream, a)
		}
	}
	sectors := 0
	t0 := time.Now()
	for _, a := range stream {
		sectors += len(gpu.Coalesce(a, cfg.L2.SectorBytes))
	}
	dur := time.Since(t0)
	coalesceSink = sectors
	return dur, nil
}

// coalesceSink keeps the timed Coalesce calls observable.
var coalesceSink int

// params mirrors gpu.New's per-SM workload parameters.
func params(cfg config.GPU, sm int) trace.Params {
	return trace.Params{
		SMID:           sm,
		NumSMs:         cfg.NumSMs,
		Seed:           cfg.Seed,
		Accesses:       cfg.AccessesPerSM,
		FootprintBytes: cfg.FootprintBytes,
	}
}
