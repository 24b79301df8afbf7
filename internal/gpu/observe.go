package gpu

import (
	"context"
	"fmt"

	"cachecraft/internal/audit"
	"cachecraft/internal/config"
	"cachecraft/internal/mem"
	"cachecraft/internal/obs"
	"cachecraft/internal/protect"
	"cachecraft/internal/sim"
)

// Observers selects what watches one run. The zero value watches nothing:
// no observer is attached and every hot-path event pays one nil check.
type Observers struct {
	// Audit arms the invariant checker (internal/audit); a violation
	// fails Run with an error naming the first broken rule.
	Audit bool
	// Probes, when non-nil, records the time-resolved probe tracks (see
	// docs/OBSERVABILITY.md for the catalog) into this set.
	Probes *obs.Probes
	// Tracer, when non-nil, receives the run's two stage spans:
	// sim.execute (attrs sms, cycles; converged=false when the run hits
	// MaxCycles) and sim.drain. The event-by-event hot path is never
	// traced.
	Tracer *obs.Tracer
}

// Simulate is the one build → observe → run → flush → label sequence
// behind every single-cell entry point: it builds the machine for (cfg,
// workload, factory), attaches o's observers (stage spans parent to the
// span carried by ctx), runs to completion, flushes the probe set, and
// labels the result with workload and scheme. A nil src draws each SM's
// accesses from the built-in generator named workload; a non-nil src
// supplies them instead, and workload only labels the result.
func Simulate(ctx context.Context, cfg config.GPU, workload, scheme string, factory protect.Factory, src WorkloadSource, o Observers) (Result, error) {
	var (
		m   *Machine
		err error
	)
	if src == nil {
		m, err = New(cfg, workload, factory)
	} else {
		m, err = NewFromSource(cfg, src, factory)
	}
	if err != nil {
		return Result{}, err
	}
	m.Observe(o)
	_, exec := o.Tracer.Start(ctx, "sim.execute", obs.Int("sms", len(m.sms)))
	perfEnd, err := m.execute()
	if err != nil {
		exec.SetAttr(obs.Bool("converged", false))
		exec.End()
		return Result{}, err
	}
	exec.SetAttr(obs.Uint64("cycles", uint64(perfEnd)))
	exec.End()
	_, drain := o.Tracer.Start(ctx, "sim.drain")
	res, err := m.drain(perfEnd)
	drain.End()
	if err != nil {
		return Result{}, err
	}
	o.Probes.Flush()
	res.Workload = workload
	res.Scheme = scheme
	return res, nil
}

// Observe attaches o's subscribers through the machine's one observer,
// which takes the single observation slot of every layer: the engine's
// step hook, the DRAM scheduling hook and both crossbar hooks. The L2
// banks and the token path call it directly, including around every
// controller read and writeback, since they are the protection
// controller's only callers. Subscribers only read simulator state and
// never schedule engine events (the zero-latency decode path in
// protect.Env.finishDecode says why that would perturb same-cycle
// ordering), so observing cannot change simulated timing or results. Must
// be called before Run; with neither Audit nor Probes set, or on a second
// call, it does nothing.
func (m *Machine) Observe(o Observers) {
	if m.obs != nil || (!o.Audit && o.Probes == nil) {
		return
	}
	ob := &observer{eng: m.eng}
	if o.Audit {
		ob.audit = audit.NewChecker()
		ob.audit.SetMSHRCapacity(m.cfg.L2MSHRs)
	}
	if o.Probes != nil {
		ob.probes = newProbeTracks(o.Probes, len(m.banks))
	}
	m.obs = ob
	m.eng.SetStepHook(ob.step)
	m.dram.SetHook(ob)
	reqLat, respLat := m.reqNet.Latency(), m.respNet.Latency()
	m.reqNet.SetHook(func(at, deliver sim.Cycle, _, _, bytes int) {
		ob.audit.XbarTransfer("req", at, deliver, bytes, reqLat)
		ob.probes.xbarReq.Add(uint64(at), float64(bytes))
	})
	m.respNet.SetHook(func(at, deliver sim.Cycle, _, _, bytes int) {
		ob.audit.XbarTransfer("resp", at, deliver, bytes, respLat)
		ob.probes.xbarResp.Add(uint64(at), float64(bytes))
	})
}

// observer is the machine's one observation point. Its methods fan each
// event out to the two subscribers; events only the checker consumes
// (SM↔L2 tokens, MSHR fetch and fill, controller read issue and
// writeback) go to o.audit directly. Both are
// nil-safe when absent: *audit.Checker methods accept a nil receiver, and
// a zero probeTracks holds nil series whose Add is a no-op.
type observer struct {
	eng    *sim.Engine
	audit  *audit.Checker
	probes probeTracks
}

// probeTracks is the probe subscriber: the mapping from machine events to
// the named probe tracks. Registration order is the export's track order.
// Shared series are safe to feed from every bank: the engine runs events
// in cycle order, so observations arrive cycle-monotone.
type probeTracks struct {
	issue, mshr, reconFill, reconHit *obs.Series
	fills                            *obs.Series
	bankHit                          []*obs.Series // per L2 bank
	classBytes                       []*obs.Series // indexed by mem.Class
	rowHit                           *obs.Series
	xbarReq, xbarResp                *obs.Series
	depth, join                      *obs.Series
}

func newProbeTracks(p *obs.Probes, banks int) probeTracks {
	t := probeTracks{
		issue:     p.Series("sm.issue", obs.Sum),
		mshr:      p.Series("l2.mshr_occupancy", obs.Mean),
		reconFill: p.Series("l2.recon_fills", obs.Sum),
		reconHit:  p.Series("l2.recon_hit_rate", obs.Mean),
		fills:     p.Series("l2.fills", obs.Sum),
	}
	for i := 0; i < banks; i++ {
		t.bankHit = append(t.bankHit, p.Series(fmt.Sprintf("l2.bank%d.hit_rate", i), obs.Mean))
	}
	for _, c := range mem.Classes() {
		for int(c) >= len(t.classBytes) {
			t.classBytes = append(t.classBytes, nil)
		}
		t.classBytes[c] = p.Series("dram.bytes."+c.String(), obs.Sum)
	}
	t.rowHit = p.Series("dram.row_hit_rate", obs.Mean)
	t.xbarReq = p.Series("xbar.req.bytes", obs.Sum)
	t.xbarResp = p.Series("xbar.resp.bytes", obs.Sum)
	t.depth = p.Series("sim.queue_depth", obs.Mean)
	t.join = p.Series("protect.join_latency", obs.Mean)
	return t
}

func boolValue(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// step is the engine's step hook.
func (o *observer) step(at sim.Cycle) {
	o.audit.EngineStep(at)
	o.probes.depth.Add(uint64(at), float64(o.eng.Pending()))
}

// Submitted implements dram.Hook.
func (o *observer) Submitted(now sim.Cycle, req mem.Request, ch, bk int, row int64) {
	o.audit.Submitted(now, req, ch, bk, row)
	if int(req.Class) < len(o.probes.classBytes) {
		o.probes.classBytes[req.Class].Add(uint64(now), float64(req.Bytes))
	}
}

// Serviced implements dram.Hook.
func (o *observer) Serviced(now sim.Cycle, req mem.Request, ch, bk int, row, openBefore int64, readyBefore sim.Cycle) {
	o.audit.Serviced(now, req, ch, bk, row, openBefore, readyBefore)
	o.probes.rowHit.Add(uint64(now), boolValue(row == openBefore))
}

// Refreshed implements dram.Hook.
func (o *observer) Refreshed(now sim.Cycle, ch int) { o.audit.Refreshed(now, ch) }

// readMissDone records the completion of a controller read issued at
// cycle issued; token is the checker's, from ReadMissIssued.
func (o *observer) readMissDone(issued, at sim.Cycle, token uint64) {
	o.audit.ReadMissDone(at, token)
	o.probes.join.Add(uint64(at), float64(at-issued))
}

// issued records an SM issuing n sector requests.
func (o *observer) issued(now sim.Cycle, n int) { o.probes.issue.Add(uint64(now), float64(n)) }

// l2Access records one L2 bank tag lookup's outcome.
func (o *observer) l2Access(bank int, hit bool) {
	if bank < len(o.probes.bankHit) {
		o.probes.bankHit[bank].Add(uint64(o.eng.Now()), boolValue(hit))
	}
}

// l2Fill records one L2 fill that allocated a line or added sectors.
func (o *observer) l2Fill() { o.probes.fills.Add(uint64(o.eng.Now()), 1) }

// mshrAlloc and mshrRelease bracket an L2 MSHR entry; live is the bank's
// entry count after the change.
func (o *observer) mshrAlloc(now sim.Cycle, bank int, lineAddr uint64, live int) {
	o.audit.MSHRAlloc(now, bank, lineAddr, live)
	o.probes.mshr.Add(uint64(now), float64(live))
}

func (o *observer) mshrRelease(now sim.Cycle, bank int, lineAddr uint64, live int) {
	o.audit.MSHRRelease(now, bank, lineAddr)
	o.probes.mshr.Add(uint64(now), float64(live))
}

// reconFill records a reconstructed sector placed in the L2; reconUse
// records one being referenced (used) or retired unreferenced.
func (o *observer) reconFill(now sim.Cycle) { o.probes.reconFill.Add(uint64(now), 1) }

func (o *observer) reconUse(used bool) {
	o.probes.reconHit.Add(uint64(o.eng.Now()), boolValue(used))
}

// finish runs the checker's end-of-simulation checks against the
// machine's final state and returns its verdict.
func (o *observer) finish(m *Machine) error {
	c := o.audit
	if c == nil {
		return nil
	}
	end := m.eng.Now()
	for _, b := range m.banks {
		c.BankDrained(end, b.id, b.mshr.Len(), b.waitingCount())
		c.CacheViolation(end, b.cache.CheckConsistency())
	}
	c.FinishSim(end, m.outstanding, m.eng.Pending())
	c.FinishDRAM(end, m.dram.Stats)
	c.FinishXbar(end, "req", m.reqNet.TotalBytes())
	c.FinishXbar(end, "resp", m.respNet.TotalBytes())
	return c.Err()
}
