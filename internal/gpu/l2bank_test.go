package gpu

import (
	"math/bits"
	"testing"

	"cachecraft/internal/config"
	"cachecraft/internal/core"
	"cachecraft/internal/protect"
	"cachecraft/internal/trace"
)

// buildMachine wires a machine without running it, for bank-level tests.
// Its SMs have no workload of their own: tests issue accesses by hand.
func buildMachine(t *testing.T, scheme protect.Factory) *Machine {
	t.Helper()
	return buildMachineCfg(t, quickCfg(), scheme)
}

func buildMachineCfg(t *testing.T, cfg config.GPU, scheme protect.Factory) *Machine {
	t.Helper()
	m, err := NewFromSource(cfg, func(int, int) (trace.Workload, error) {
		return &scripted{}, nil
	}, scheme)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// issueLine issues one warp access from SM sm at cycle 0 through the
// production path (L1, request crossbar, L2 bank, response crossbar): one
// thread per sector in mask of the line at lineAddr, each reading or
// writing width bytes from the sector's start. A width of a whole sector
// covers it fully.
func issueLine(m *Machine, sm int, lineAddr, mask uint64, width int, write bool) {
	var addrs []uint64
	for b := mask; b != 0; b &= b - 1 {
		addrs = append(addrs, lineAddr+uint64(bits.TrailingZeros64(b)*m.cfg.L1.SectorBytes))
	}
	m.sms[sm].issue(0, trace.Access{PC: 1, Write: write, Addrs: addrs, Bytes: width})
}

func TestBankReadHitRespondsWithoutController(t *testing.T) {
	m := buildMachine(t, protect.NewNone)
	b := m.banks[0]
	lineAddr := uint64(0) // line 0 routes to bank 0
	b.fill(0, lineAddr, 0b1111, 0)

	issueLine(m, 0, lineAddr, 0b0011, 32, false)
	m.eng.Run(1 << 20)
	if got := m.sms[0].l1.ValidMask(lineAddr); got != 0b0011 {
		t.Fatalf("hit response mask = %#b", got)
	}
	if m.sms[0].accessesDone != 1 {
		t.Fatal("load did not retire")
	}
	if m.stats.Get("l2_hits") != 2 || m.dram.Stats.Get("bytes_read") != 0 {
		t.Fatal("hit must not reach the controller")
	}
}

func TestBankMissSplitsHitAndMissBatches(t *testing.T) {
	m := buildMachine(t, protect.NewNone)
	b := m.banks[0]
	b.fill(0, 0, 0b0001, 0)

	issueLine(m, 0, 0, 0b0011, 32, false)
	l1 := m.sms[0].l1
	// The first batch delivered to the SM carries the hit sector alone;
	// the missed sector follows once the controller has filled it.
	if !m.eng.RunUntil(1<<20, func() bool { return l1.ValidMask(0) != 0 }) {
		t.Fatal("no response delivered")
	}
	if got := l1.ValidMask(0); got != 0b0001 {
		t.Fatalf("first batch = %#b, want the hit sector 0b1", got)
	}
	m.eng.Run(1 << 20)
	if got := l1.ValidMask(0); got != 0b0011 {
		t.Fatalf("after the miss batch the L1 holds %#b, want 0b11", got)
	}
	if m.sms[0].accessesDone != 1 {
		t.Fatal("load did not retire")
	}
	if b.cache.Probe(32) == 0 {
		t.Fatal("missing sector not filled after controller response")
	}
}

func TestBankMergesConcurrentMisses(t *testing.T) {
	m := buildMachine(t, protect.NewInlineNaive)
	// One SM would merge the reads in its own L1 MSHRs; three SMs put
	// three requests for the same sector into the bank.
	for sm := 0; sm < 3; sm++ {
		issueLine(m, sm, 0, 0b0001, 32, false)
	}
	m.eng.Run(1 << 20)
	for sm := 0; sm < 3; sm++ {
		if m.sms[sm].accessesDone != 1 {
			t.Fatalf("SM %d got no response", sm)
		}
	}
	if got := m.stats.Get("l2_misses"); got != 3 {
		t.Fatalf("L2 misses = %d, want 3 requests reaching the bank", got)
	}
	// One demand fetch, one redundancy fetch — the merges added nothing.
	if got := m.dram.Stats.Get("bytes_demand"); got != 32 {
		t.Fatalf("demand bytes = %d, want 32 (merged)", got)
	}
}

func TestBankStoreFullCoverageAllocatesWithoutFetch(t *testing.T) {
	m := buildMachine(t, protect.NewInlineNaive)
	b := m.banks[0]
	issueLine(m, 0, 0, 0b0001, 32, true)
	m.eng.Run(1 << 20)
	if m.sms[0].accessesDone != 1 {
		t.Fatal("store not acknowledged")
	}
	if m.dram.Stats.Get("bytes_read") != 0 {
		t.Fatal("full-coverage store must not read DRAM")
	}
	if b.cache.DirtyMask(0) != 0b0001 {
		t.Fatal("stored sector not dirty")
	}
}

func TestBankStorePartialCoverageFetchesUnderECC(t *testing.T) {
	m := buildMachine(t, protect.NewInlineNaive)
	b := m.banks[0]
	issueLine(m, 0, 0, 0b0001, 4, true)
	m.eng.Run(1 << 20)
	if m.sms[0].accessesDone != 1 {
		t.Fatal("store not acknowledged")
	}
	if m.stats.Get("l2_rmw_fetches") != 1 {
		t.Fatalf("rmw fetches = %d", m.stats.Get("l2_rmw_fetches"))
	}
	if m.dram.Stats.Get("bytes_rmw")+m.dram.Stats.Get("bytes_demand") == 0 {
		t.Fatal("partial store fetched nothing")
	}
	if b.cache.DirtyMask(0) != 0b0001 {
		t.Fatal("fetched sector not marked dirty after store")
	}
}

func TestBankStorePartialCoverageNoFetchUnprotected(t *testing.T) {
	m := buildMachine(t, protect.NewNone)
	issueLine(m, 0, 0, 0b0001, 4, true)
	m.eng.Run(1 << 20)
	if m.dram.Stats.Get("bytes_read") != 0 {
		t.Fatal("unprotected partial store must not read (byte-masked write)")
	}
	if m.stats.Get("l2_store_allocs") != 1 {
		t.Fatal("store should allocate in place")
	}
}

func TestBankMSHRBackpressureParksAndReplays(t *testing.T) {
	cfg := quickCfg()
	cfg.L2MSHRs = 2
	m := buildMachineCfg(t, cfg, protect.NewInlineNaive)
	// Issue misses on more distinct lines than MSHR entries (lines that
	// route to bank 0: line numbers ≡ 0 mod numBanks).
	stride := uint64(cfg.L2.LineBytes * cfg.L2Banks)
	for i := 0; i < 6; i++ {
		issueLine(m, 0, uint64(i)*stride, 0b0001, 32, false)
	}
	m.eng.Run(1 << 24)
	if got := m.sms[0].accessesDone; got != 6 {
		t.Fatalf("responded = %d of 6", got)
	}
	if m.stats.Get("l2_mshr_stalls") == 0 {
		t.Fatal("no backpressure recorded despite tiny MSHR file")
	}
}

func TestReconScoreboardAgesOutAsWaste(t *testing.T) {
	m := buildMachine(t, core.NewFactory(core.DefaultOptions()))
	b := m.banks[0]
	stride := uint64(m.cfg.L2.LineBytes * m.cfg.L2Banks)
	b.InsertReconstructed(0, 64) // sector in bank 0, never referenced
	// Age the scoreboard past the horizon with unrelated fills.
	for i := uint64(1); i <= reconHorizon+2; i++ {
		b.fill(0, i*stride, 0b0001, 0)
	}
	if m.envStats.Get("reconstruct_wasted") != 1 {
		t.Fatalf("wasted = %d, want 1 (aged out)", m.envStats.Get("reconstruct_wasted"))
	}
	if b.reconPending.Has(64) {
		t.Fatal("aged entry still pending")
	}
}

func TestReconUseBeforeAgingCountsUsed(t *testing.T) {
	m := buildMachine(t, core.NewFactory(core.DefaultOptions()))
	b := m.banks[0]
	b.InsertReconstructed(0, 32)
	issueLine(m, 0, 0, 0b0010, 32, false) // sector 32 = bit 1
	m.eng.Run(1 << 20)
	if m.envStats.Get("reconstruct_used") != 1 {
		t.Fatalf("used = %d, want 1", m.envStats.Get("reconstruct_used"))
	}
}

// TestReconEvictionReportsUnusedSectors: evicting a line reports each of
// its reconstructed sectors still unreferenced as waste, once, well
// before the scoreboard would age it out; a referenced one counts as used.
func TestReconEvictionReportsUnusedSectors(t *testing.T) {
	m := buildMachine(t, core.NewFactory(core.DefaultOptions()))
	b := m.banks[0]
	b.InsertReconstructed(0, 32)
	b.InsertReconstructed(0, 64)
	b.Insert(0, 96, false)                // a plain fill into the same line
	issueLine(m, 0, 0, 0b0010, 32, false) // uses sector 32
	m.eng.Run(1 << 20)
	stride := uint64(m.cfg.L2.LineBytes * m.cfg.L2Banks)
	fills := uint64(0)
	for b.cache.ValidMask(0) != 0 {
		fills++
		if fills > reconHorizon/2 {
			t.Fatal("line 0 never evicted")
		}
		b.fill(0, fills*stride, 0b0001, 0)
	}
	if used, wasted := m.envStats.Get("reconstruct_used"), m.envStats.Get("reconstruct_wasted"); used != 1 || wasted != 1 {
		t.Fatalf("after eviction used=%d wasted=%d, want 1 and 1", used, wasted)
	}
	if b.reconPending.Len() != 0 {
		t.Fatalf("%d sectors still pending after their line was evicted", b.reconPending.Len())
	}
}

func TestRedTagLinesFlowThroughRealBanks(t *testing.T) {
	// End-to-end ecc-cache on real banks: dirty redundancy lines inserted
	// via the CacheSide must eventually write back with RedTag handling.
	cfg := quickCfg()
	cfg.AccessesPerSM = 400
	m, err := New(cfg, "histogram", protect.NewECCCache)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.ControllerSt.Get("red_writebacks") == 0 {
		t.Fatal("no redundancy writebacks: RedTag eviction path never exercised")
	}
}

func TestDrainLeavesNoDirtyState(t *testing.T) {
	cfg := quickCfg()
	cfg.AccessesPerSM = 400
	m, err := New(cfg, "scan", core.NewFactory(core.DefaultOptions()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	for _, b := range m.banks {
		b.cache.Walk(func(lineAddr uint64, _, dmask uint64) {
			if dmask != 0 {
				t.Fatalf("dirty line %#x survived drain", lineAddr)
			}
		})
	}
}
