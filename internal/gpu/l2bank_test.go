package gpu

import (
	"testing"

	"cachecraft/internal/core"
	"cachecraft/internal/protect"
	"cachecraft/internal/sim"
)

// buildMachine wires a machine without running it, for bank-level tests.
func buildMachine(t *testing.T, scheme protect.Factory) *Machine {
	t.Helper()
	cfg := quickCfg()
	m, err := New(cfg, "stream", scheme)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBankReadHitRespondsWithoutController(t *testing.T) {
	m := buildMachine(t, protect.NewNone)
	b := m.banks[0]
	lineAddr := uint64(0) // line 0 routes to bank 0
	b.fill(0, lineAddr, 0b1111, 0)

	var gotMask uint64
	b.HandleRead(0, lineAddr, 0b0011, func(now sim.Cycle, mask uint64) {
		gotMask |= mask
	})
	m.eng.Run(1 << 20)
	if gotMask != 0b0011 {
		t.Fatalf("hit response mask = %#b", gotMask)
	}
	if m.envStats.Get("red_reads_dram") != 0 {
		t.Fatal("hit must not reach the controller")
	}
}

func TestBankMissSplitsHitAndMissBatches(t *testing.T) {
	m := buildMachine(t, protect.NewNone)
	b := m.banks[0]
	b.fill(0, 0, 0b0001, 0)

	var batches []uint64
	b.HandleRead(0, 0, 0b0011, func(now sim.Cycle, mask uint64) {
		batches = append(batches, mask)
	})
	m.eng.Run(1 << 20)
	if len(batches) != 2 {
		t.Fatalf("batches = %v, want hit then miss", batches)
	}
	if batches[0] != 0b0001 || batches[1] != 0b0010 {
		t.Fatalf("batches = %#b,%#b", batches[0], batches[1])
	}
	if b.cache.Probe(32) == 0 {
		t.Fatal("missing sector not filled after controller response")
	}
}

func TestBankMergesConcurrentMisses(t *testing.T) {
	m := buildMachine(t, protect.NewInlineNaive)
	b := m.banks[0]
	responses := 0
	for i := 0; i < 3; i++ {
		b.HandleRead(0, 0, 0b0001, func(sim.Cycle, uint64) { responses++ })
	}
	m.eng.Run(1 << 20)
	if responses != 3 {
		t.Fatalf("responses = %d", responses)
	}
	// One demand fetch, one redundancy fetch — the merges added nothing.
	if got := m.dram.Stats.Get("bytes_demand"); got != 32 {
		t.Fatalf("demand bytes = %d, want 32 (merged)", got)
	}
}

func TestBankStoreFullCoverageAllocatesWithoutFetch(t *testing.T) {
	m := buildMachine(t, protect.NewInlineNaive)
	b := m.banks[0]
	acked := uint64(0)
	b.HandleStore(0, 0, 0b0001, 0b0001, func(now sim.Cycle, mask uint64) { acked |= mask })
	m.eng.Run(1 << 20)
	if acked != 0b0001 {
		t.Fatalf("ack mask = %#b", acked)
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
	acked := uint64(0)
	b.HandleStore(0, 0, 0b0001, 0, func(now sim.Cycle, mask uint64) { acked |= mask })
	m.eng.Run(1 << 20)
	if acked != 0b0001 {
		t.Fatalf("ack mask = %#b", acked)
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
	b := m.banks[0]
	b.HandleStore(0, 0, 0b0001, 0, func(sim.Cycle, uint64) {})
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
	m, err := New(cfg, "stream", protect.NewInlineNaive)
	if err != nil {
		t.Fatal(err)
	}
	b := m.banks[0]
	responded := 0
	// Issue misses on more distinct lines than MSHR entries (lines that
	// route to bank 0: line numbers ≡ 0 mod numBanks).
	stride := uint64(cfg.L2.LineBytes * cfg.L2Banks)
	for i := 0; i < 6; i++ {
		b.HandleRead(0, uint64(i)*stride, 0b0001, func(sim.Cycle, uint64) { responded++ })
	}
	m.eng.Run(1 << 24)
	if responded != 6 {
		t.Fatalf("responded = %d of 6", responded)
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
	b.HandleRead(0, 0, 0b0010, func(sim.Cycle, uint64) {}) // sector 32 = bit 1
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
	b.Insert(0, 96, false)                                 // a plain fill into the same line
	b.HandleRead(0, 0, 0b0010, func(sim.Cycle, uint64) {}) // uses sector 32
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
