package gpu

import (
	"fmt"
	"math/bits"

	"cachecraft/internal/config"
	"cachecraft/internal/dram"
	"cachecraft/internal/layout"
	"cachecraft/internal/mem"
	"cachecraft/internal/protect"
	"cachecraft/internal/sim"
	"cachecraft/internal/stats"
	"cachecraft/internal/trace"
	"cachecraft/internal/xbar"
)

// Aliases keep the bank code free of direct mem imports in signatures.
const (
	memClassDemand = mem.Demand
	memClassRMW    = mem.RMW
)

// Machine is the wired GPU: SMs, interconnect, banked L2, protection
// controller, DRAM.
type Machine struct {
	cfg      config.GPU
	eng      *sim.Engine
	mapper   layout.Mapper
	dram     *dram.DRAM
	banks    []*L2Bank
	sms      []*SM
	scheme   protect.Scheme
	recon    protect.ReconstructionObserver // the scheme, when it takes reconstruction feedback
	stats    *stats.Counters
	envStats *stats.Counters

	reqNet  *xbar.Crossbar // SMs → L2 banks
	respNet *xbar.Crossbar // L2 banks → SMs

	// Pooled SM→L2 transaction tokens (see tokens.go).
	tokens  []l2Token
	tokFree int32

	lineShift uint // log2 of the L2 line size, a power of two

	// Pre-resolved machine-counter handles for the per-sector hot path;
	// lazy resolution keeps the counter set's first-touch creation order.
	stSectorReqs  stats.Handle
	stL1Hits      stats.Handle
	stL1Misses    stats.Handle
	stL2Hits      stats.Handle
	stL2Misses    stats.Handle
	stStoreHits   stats.Handle
	stStoreAllocs stats.Handle
	stRMWFetches  stats.Handle
	stMSHRStalls  stats.Handle

	smsDone     int
	outstanding int
	perfCycles  sim.Cycle

	// obs fans machine events out to the audit and probe subscribers
	// (nil = off, one branch per event; see observe.go).
	obs *observer
}

// Result summarizes one simulation run.
type Result struct {
	Workload     string
	Scheme       string
	Cycles       sim.Cycle
	Instructions uint64
	IPC          float64

	DRAMBytes      map[string]uint64
	DRAMRowHits    uint64
	DRAMRowMisses  uint64
	DRAMRowConfl   uint64
	L1HitRate      float64
	L2HitRate      float64
	AvgMemLatency  float64
	Machine        *stats.Counters
	ControllerSt   *stats.Counters
	L2Stats        *stats.Counters
	DRAMStats      *stats.Counters
	BusUtilization float64
}

// WorkloadSource supplies one workload instance per SM (used for trace
// replay and custom workloads; named workloads go through New).
type WorkloadSource func(smID, numSMs int) (trace.Workload, error)

// New builds a machine for one (config, named-workload, scheme)
// combination.
func New(cfg config.GPU, workload string, factory protect.Factory) (*Machine, error) {
	return NewFromSource(cfg, func(smID, numSMs int) (trace.Workload, error) {
		return trace.Build(workload, trace.Params{
			SMID:           smID,
			NumSMs:         numSMs,
			Seed:           cfg.Seed,
			Accesses:       cfg.AccessesPerSM,
			FootprintBytes: cfg.FootprintBytes,
		})
	}, factory)
}

// NewFromSource builds a machine whose SMs draw from caller-supplied
// workloads (e.g. replayed traces). Each workload's footprint must fit the
// configured protected region.
func NewFromSource(cfg config.GPU, src WorkloadSource, factory protect.Factory) (*Machine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	mapper, err := cfg.BuildMapper()
	if err != nil {
		return nil, err
	}
	if cfg.FootprintBytes > mapper.ProtectedBytes() {
		return nil, fmt.Errorf("gpu: footprint %d exceeds protected capacity %d",
			cfg.FootprintBytes, mapper.ProtectedBytes())
	}

	m := &Machine{
		cfg:       cfg,
		lineShift: uint(bits.TrailingZeros(uint(cfg.L2.LineBytes))),
		eng:       sim.NewEngine(),
		mapper:    mapper,
		stats:     stats.NewCounters(),
	}
	m.stSectorReqs = m.stats.Handle("sector_requests")
	m.stL1Hits = m.stats.Handle("l1_hits")
	m.stL1Misses = m.stats.Handle("l1_misses")
	m.stL2Hits = m.stats.Handle("l2_hits")
	m.stL2Misses = m.stats.Handle("l2_misses")
	m.stStoreHits = m.stats.Handle("l2_store_hits")
	m.stStoreAllocs = m.stats.Handle("l2_store_allocs")
	m.stRMWFetches = m.stats.Handle("l2_rmw_fetches")
	m.stMSHRStalls = m.stats.Handle("l2_mshr_stalls")
	m.dram = dram.New(m.eng, cfg.DRAM)
	m.reqNet = xbar.New(xbar.Config{
		Sources:                cfg.NumSMs,
		Destinations:           cfg.L2Banks,
		PortBytesPerCycle:      cfg.XbarPortBytesPerCycle,
		BisectionBytesPerCycle: cfg.XbarReqBytesPerCycle,
		Latency:                cfg.XbarLatency,
	})
	m.respNet = xbar.New(xbar.Config{
		Sources:                cfg.L2Banks,
		Destinations:           cfg.NumSMs,
		PortBytesPerCycle:      cfg.XbarPortBytesPerCycle,
		BisectionBytesPerCycle: cfg.XbarRespBytesPerCycle,
		Latency:                cfg.XbarLatency,
	})

	for i := 0; i < cfg.L2Banks; i++ {
		m.banks = append(m.banks, newL2Bank(m, i))
	}
	m.envStats = stats.NewCounters()
	env := &protect.Env{
		Eng:          m.eng,
		DRAM:         m.dram,
		Map:          mapper,
		L2:           (*bankRouter)(m),
		Stats:        m.envStats,
		DecodeLat:    cfg.DecodeLat,
		ErrorRatePPM: cfg.ErrorRatePPM,
		ErrorPenalty: cfg.ErrorPenalty,
	}
	m.scheme = factory(env)
	m.recon, _ = m.scheme.(protect.ReconstructionObserver)

	for i := 0; i < cfg.NumSMs; i++ {
		wl, err := src(i, cfg.NumSMs)
		if err != nil {
			return nil, err
		}
		if wl.Footprint() > mapper.ProtectedBytes() {
			return nil, fmt.Errorf("gpu: SM %d workload footprint %d exceeds protected capacity %d",
				i, wl.Footprint(), mapper.ProtectedBytes())
		}
		m.sms = append(m.sms, newSM(i, m, wl))
	}
	return m, nil
}

// bankRouter adapts the machine's bank array to protect.CacheSide by
// routing on the (tag-stripped) line address.
type bankRouter Machine

func (r *bankRouter) bank(addr uint64) *L2Bank {
	m := (*Machine)(r)
	return m.bankFor(addr)
}

// Present reports sector validity.
func (r *bankRouter) Present(addr uint64) bool { return r.bank(addr).Present(addr) }

// Pending reports in-flight fetches.
func (r *bankRouter) Pending(addr uint64) bool { return r.bank(addr).Pending(addr) }

// Insert places a sector.
func (r *bankRouter) Insert(now sim.Cycle, addr uint64, dirty bool) {
	r.bank(addr).Insert(now, addr, dirty)
}

// InsertReconstructed places a tracked clean sector.
func (r *bankRouter) InsertReconstructed(now sim.Cycle, addr uint64) {
	r.bank(addr).InsertReconstructed(now, addr)
}

// MarkDirty marks a present sector dirty.
func (r *bankRouter) MarkDirty(addr uint64) { r.bank(addr).MarkDirty(addr) }

// bankIndexFor selects the bank index for an address (RedTag stripped
// first so redundancy spreads the same way data does).
func (m *Machine) bankIndexFor(addr uint64) int {
	lineNum := (addr &^ protect.RedTag) >> m.lineShift
	return int(lineNum % uint64(len(m.banks)))
}

func (m *Machine) bankFor(addr uint64) *L2Bank {
	return m.banks[m.bankIndexFor(addr)]
}

// reconFeedback forwards reconstruction usage to an observing scheme.
func (m *Machine) reconFeedback(addr uint64, used bool) {
	if m.obs != nil {
		m.obs.reconUse(used)
	}
	if m.recon != nil {
		m.recon.ReconstructedUse(addr, used)
	}
}

// sendRead models the SM→L2 request hop and the L2→SM data hop for a line
// read; the issuing SM's onLoadResponse fires once per delivered sector
// batch via the token path (see tokens.go).
func (m *Machine) sendRead(now sim.Cycle, smID int, lineAddr uint64, mask uint64) {
	m.outstanding++
	var tok uint64
	if m.obs != nil {
		tok = m.obs.audit.ReadIssued(now, smID, lineAddr, mask)
	}
	ti := m.allocToken()
	m.tokens[ti] = l2Token{
		lineAddr:  lineAddr,
		remaining: mask,
		audTok:    tok,
		smID:      int32(smID),
		recIdx:    -1,
	}
	bankIdx := m.bankIndexFor(lineAddr)
	arrive := m.reqNet.Transfer(now, smID, bankIdx, 16)
	m.banks[bankIdx].scheduleRead(arrive, lineAddr, mask, ti)
}

// sendStore models the SM→L2 store hop (header + data) and the ack hop;
// the owning access record (recIdx) is completed per acknowledged sector
// batch via the token path.
func (m *Machine) sendStore(now sim.Cycle, smID int, g lineGroup, recIdx int32) {
	m.outstanding++
	var tok uint64
	if m.obs != nil {
		tok = m.obs.audit.StoreIssued(now, smID, g.lineAddr, g.sectorMask)
	}
	ti := m.allocToken()
	m.tokens[ti] = l2Token{
		lineAddr:  g.lineAddr,
		remaining: g.sectorMask,
		audTok:    tok,
		smID:      int32(smID),
		recIdx:    recIdx,
		write:     true,
	}
	bytes := 16 + bits.OnesCount64(g.sectorMask)*m.cfg.L2.SectorBytes
	bankIdx := m.bankIndexFor(g.lineAddr)
	arrive := m.reqNet.Transfer(now, smID, bankIdx, bytes)
	m.banks[bankIdx].scheduleStore(arrive, g.lineAddr, g.sectorMask, g.fullMask, ti)
}

// smFinished records an SM exhausting its workload.
func (m *Machine) smFinished(sim.Cycle) { m.smsDone++ }

// accessRetired notes forward progress (used for the performance endpoint).
func (m *Machine) accessRetired(now sim.Cycle) {
	m.perfCycles = now
}

// Run executes the simulation to completion and returns the results.
func (m *Machine) Run() (Result, error) {
	perfEnd, err := m.execute()
	if err != nil {
		return Result{}, err
	}
	return m.drain(perfEnd)
}

// execute runs the SMs' workloads until every SM has finished and no
// transaction is outstanding, and returns the performance endpoint: the
// cycle the last access retired.
func (m *Machine) execute() (sim.Cycle, error) {
	for _, s := range m.sms {
		s.start()
	}
	limit := m.cfg.MaxCycles
	finished := m.eng.RunUntil(limit, func() bool {
		return m.smsDone == len(m.sms) && m.outstanding == 0
	})
	if !finished {
		return 0, fmt.Errorf("gpu: simulation did not converge within %d cycles (done %d/%d SMs, %d outstanding)",
			limit, m.smsDone, len(m.sms), m.outstanding)
	}
	// A stream that ended on an error (a malformed access) ended early:
	// its run is short, not a result.
	for _, s := range m.sms {
		if s.err != nil {
			return 0, fmt.Errorf("gpu: SM %d workload: %w", s.id, s.err)
		}
	}
	if m.perfCycles == 0 {
		return m.eng.Now(), nil
	}
	return m.perfCycles, nil
}

// drain flushes the machine after execute, runs the observer's
// end-of-simulation checks, and assembles the result.
func (m *Machine) drain(perfEnd sim.Cycle) (Result, error) {
	// Snapshot bandwidth utilization before the drain adds its traffic.
	busUtil := stats.Mean(m.dram.BusUtilization(perfEnd))

	// Drain: flush dirty cache state through the controller first (so its
	// write path can still coalesce), then the controller's own buffers,
	// then let DRAM empty.
	for _, b := range m.banks {
		b.flushDirty(m.eng.Now())
	}
	m.scheme.Drain(m.eng.Now())
	m.eng.Run(m.cfg.MaxCycles + 10_000_000)
	if !m.dram.Drain() {
		return Result{}, fmt.Errorf("gpu: DRAM failed to drain")
	}

	if m.obs != nil {
		if err := m.obs.finish(m); err != nil {
			return Result{}, err
		}
	}

	var instrs uint64
	for _, s := range m.sms {
		instrs += s.instrRetired
	}
	res := Result{
		Cycles:       perfEnd,
		Instructions: instrs,
		Machine:      m.stats,
		ControllerSt: m.controllerStats(),
		DRAMStats:    m.dram.Stats,
		L2Stats:      m.l2Stats(),
	}
	if perfEnd > 0 {
		res.IPC = float64(instrs) / float64(perfEnd)
	}
	res.DRAMBytes = make(map[string]uint64)
	for _, c := range mem.Classes() {
		res.DRAMBytes[c.String()] = m.dram.Stats.Get("bytes_" + c.String())
	}
	res.DRAMRowHits = m.dram.Stats.Get("row_hits")
	res.DRAMRowMisses = m.dram.Stats.Get("row_misses")
	res.DRAMRowConfl = m.dram.Stats.Get("row_conflicts")
	res.L1HitRate = safeRate(m.stats.Get("l1_hits"), m.stats.Get("l1_hits")+m.stats.Get("l1_misses"))
	res.L2HitRate = safeRate(m.stats.Get("l2_hits"), m.stats.Get("l2_hits")+m.stats.Get("l2_misses"))
	if sum, n := m.dram.Latency(); n > 0 {
		res.AvgMemLatency = float64(sum) / float64(n)
	}
	res.BusUtilization = busUtil
	return res, nil
}

// controllerStats exposes the scheme's counters (the Env's counter set is
// shared with the scheme).
func (m *Machine) controllerStats() *stats.Counters { return m.envStats }

func safeRate(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// l2Stats merges the per-bank cache counters.
func (m *Machine) l2Stats() *stats.Counters {
	out := stats.NewCounters()
	for _, b := range m.banks {
		out.Merge(b.cache.Stats)
	}
	return out
}
