package core

import (
	"reflect"
	"testing"

	"cachecraft/internal/dram"
	"cachecraft/internal/layout"
	"cachecraft/internal/mem"
	"cachecraft/internal/protect"
	"cachecraft/internal/sim"
	"cachecraft/internal/stats"
)

// fakeL2 is a minimal protect.CacheSide for controller unit tests.
type fakeL2 struct {
	present map[uint64]bool
	dirty   map[uint64]bool
	recon   []uint64
}

func newFakeL2() *fakeL2 {
	return &fakeL2{present: map[uint64]bool{}, dirty: map[uint64]bool{}}
}

func (f *fakeL2) Present(addr uint64) bool { return f.present[addr] }
func (f *fakeL2) Pending(addr uint64) bool { return false }
func (f *fakeL2) Insert(now sim.Cycle, addr uint64, dirty bool) {
	f.present[addr] = true
	if dirty {
		f.dirty[addr] = true
	}
}
func (f *fakeL2) InsertReconstructed(now sim.Cycle, addr uint64) {
	f.Insert(now, addr, false)
	f.recon = append(f.recon, addr)
}
func (f *fakeL2) MarkDirty(addr uint64) { f.dirty[addr] = true }

func testEnv(t *testing.T) (*protect.Env, *sim.Engine, *fakeL2) {
	t.Helper()
	eng := sim.NewEngine()
	mapper, err := layout.NewLinearMapper(64<<20, layout.DefaultGeometry())
	if err != nil {
		t.Fatal(err)
	}
	l2 := newFakeL2()
	cfg := dram.DefaultConfig()
	cfg.Channels = 2
	env := &protect.Env{
		Eng:       eng,
		DRAM:      dram.New(eng, cfg),
		Map:       mapper,
		L2:        l2,
		Stats:     stats.NewCounters(),
		DecodeLat: 8,
	}
	return env, eng, l2
}

func drain(eng *sim.Engine) { eng.Run(1 << 30) }

func TestReadMissFetchesDemandPlusRedundancy(t *testing.T) {
	env, eng, _ := testEnv(t)
	opt := DefaultOptions()
	opt.Reconstruct = false
	c := New(env, opt)
	done := false
	c.ReadMiss(0, 0, 0b0001, mem.Demand, func(sim.Cycle) { done = true })
	drain(eng)
	if !done {
		t.Fatal("read never completed")
	}
	if env.DRAM.Stats.Get("bytes_demand") != 32 {
		t.Fatalf("demand = %d", env.DRAM.Stats.Get("bytes_demand"))
	}
	if env.DRAM.Stats.Get("bytes_redundancy") != 32 {
		t.Fatalf("redundancy = %d", env.DRAM.Stats.Get("bytes_redundancy"))
	}
}

func TestRCHitSkipsRedundancyFetch(t *testing.T) {
	env, eng, _ := testEnv(t)
	opt := DefaultOptions()
	opt.Reconstruct = false
	c := New(env, opt)
	// First miss populates the RC; second miss in the same granule hits.
	c.ReadMiss(0, 0, 0b0001, mem.Demand, func(sim.Cycle) {})
	drain(eng)
	c.ReadMiss(eng.Now(), 128, 0b0001, mem.Demand, func(sim.Cycle) {})
	drain(eng)
	if env.Stats.Get("red_rc_hits") != 1 {
		t.Fatalf("rc hits = %d", env.Stats.Get("red_rc_hits"))
	}
	if env.Stats.Get("red_reads_dram") != 1 {
		t.Fatalf("red reads = %d, want 1", env.Stats.Get("red_reads_dram"))
	}
}

func TestReconstructionFetchesForwardSiblingsOnly(t *testing.T) {
	env, eng, l2 := testEnv(t)
	opt := DefaultOptions()
	opt.Predictor = false // always reconstruct
	c := New(env, opt)
	// Miss on the granule's SECOND line: no forward siblings exist, so no
	// reconstruction.
	c.ReadMiss(0, 128, 0b1111, mem.Demand, func(sim.Cycle) {})
	drain(eng)
	if len(l2.recon) != 0 {
		t.Fatalf("backward reconstruction happened: %v", l2.recon)
	}
	// Miss on the FIRST line reconstructs the second line's sectors.
	c.ReadMiss(eng.Now(), 256, 0b1111, mem.Demand, func(sim.Cycle) {})
	drain(eng)
	if len(l2.recon) != 4 {
		t.Fatalf("reconstructed %d sectors, want 4 (the sibling line)", len(l2.recon))
	}
	for _, sa := range l2.recon {
		if sa < 256+128 || sa >= 512 {
			t.Fatalf("reconstructed sector %#x outside the sibling line", sa)
		}
	}
}

func TestReconstructionSkipsPresentSectors(t *testing.T) {
	env, eng, l2 := testEnv(t)
	opt := DefaultOptions()
	opt.Predictor = false
	c := New(env, opt)
	l2.present[128] = true // first sibling sector already cached
	c.ReadMiss(0, 0, 0b1111, mem.Demand, func(sim.Cycle) {})
	drain(eng)
	if len(l2.recon) != 3 {
		t.Fatalf("reconstructed %d, want 3 (one already present)", len(l2.recon))
	}
}

func TestDemandMergesWithInflightReconstruction(t *testing.T) {
	env, eng, l2 := testEnv(t)
	opt := DefaultOptions()
	opt.Predictor = false
	c := New(env, opt)
	c.ReadMiss(0, 0, 0b1111, mem.Demand, func(sim.Cycle) {}) // reconstructs line 128
	// Demand for line 128 arrives while the reconstruction is in flight.
	done := false
	c.ReadMiss(1, 128, 0b1111, mem.Demand, func(sim.Cycle) { done = true })
	drain(eng)
	if !done {
		t.Fatal("merged demand never completed")
	}
	if env.Stats.Get("reconstruct_merged") != 4 {
		t.Fatalf("merged = %d, want 4 sectors", env.Stats.Get("reconstruct_merged"))
	}
	// The merged sectors must not have been fetched twice: demand bytes
	// cover only line 0's four sectors.
	if env.DRAM.Stats.Get("bytes_demand") != 128 {
		t.Fatalf("demand bytes = %d, want 128", env.DRAM.Stats.Get("bytes_demand"))
	}
	_ = l2
}

func TestPredictorLearnsWaste(t *testing.T) {
	env, _, _ := testEnv(t)
	c := New(env, DefaultOptions())
	addr := uint64(0x10000)
	if !c.shouldReconstruct(addr) {
		t.Fatal("predictor should start on (optimistic)")
	}
	c.ReconstructedUse(addr, false)
	if c.shouldReconstruct(addr) {
		t.Fatal("one wasted event should turn the region off (waste is punished 2x)")
	}
	// Recovery takes more used events than the waste cost.
	c.ReconstructedUse(addr, true)
	if c.shouldReconstruct(addr) {
		t.Fatal("one used event must not re-enable yet")
	}
	c.ReconstructedUse(addr, true)
	if !c.shouldReconstruct(addr) {
		t.Fatal("two used events should saturate the region back on")
	}
}

func TestPredictorSamplingProbes(t *testing.T) {
	env, _, _ := testEnv(t)
	c := New(env, DefaultOptions())
	probes := 0
	for i := 0; i < 640; i++ {
		if c.shouldProbe() {
			probes++
		}
	}
	if probes != 10 {
		t.Fatalf("probes = %d, want 1 in 64", probes)
	}
}

func TestWriteBufferBlindWriteOnFullGranule(t *testing.T) {
	env, eng, _ := testEnv(t)
	opt := DefaultOptions()
	opt.Reconstruct = false
	opt.UseRC = false // force the write-buffer path
	c := New(env, opt)
	// Write back both lines of granule 0 → all 8 sectors known → blind
	// write, no RMW.
	c.Writeback(0, 0, 0b1111)
	c.Writeback(0, 128, 0b1111)
	drain(eng)
	if env.Stats.Get("red_blind_writes") != 1 {
		t.Fatalf("blind writes = %d", env.Stats.Get("red_blind_writes"))
	}
	if env.Stats.Get("red_rmw") != 0 {
		t.Fatalf("rmw = %d, want 0", env.Stats.Get("red_rmw"))
	}
	// 8 data sector writes + 1 redundancy write.
	if env.DRAM.Stats.Get("bytes_written") != 8*32+32 {
		t.Fatalf("written = %d", env.DRAM.Stats.Get("bytes_written"))
	}
}

func TestWriteBufferTimeoutFlushesViaRMW(t *testing.T) {
	env, eng, _ := testEnv(t)
	opt := DefaultOptions()
	opt.Reconstruct = false
	opt.UseRC = false
	opt.WBufTimeout = 100
	c := New(env, opt)
	c.Writeback(0, 0, 0b0001) // partial granule
	drain(eng)
	if env.Stats.Get("red_wbuf_timeout") != 1 {
		t.Fatalf("timeouts = %d", env.Stats.Get("red_wbuf_timeout"))
	}
	if env.Stats.Get("red_rmw") != 1 {
		t.Fatalf("rmw = %d, want 1 after timeout", env.Stats.Get("red_rmw"))
	}
}

func TestWriteBufferOverflowFlushesOldest(t *testing.T) {
	env, eng, _ := testEnv(t)
	opt := DefaultOptions()
	opt.Reconstruct = false
	opt.UseRC = false
	opt.WBufEntries = 2
	opt.WBufTimeout = 1 << 20
	c := New(env, opt)
	for g := uint64(0); g < 3; g++ {
		c.Writeback(0, g*256, 0b0001)
	}
	if env.Stats.Get("red_wbuf_overflow") != 1 {
		t.Fatalf("overflows = %d", env.Stats.Get("red_wbuf_overflow"))
	}
	drain(eng)
}

func TestWriteBufferForwardsToReads(t *testing.T) {
	env, eng, _ := testEnv(t)
	opt := DefaultOptions()
	opt.Reconstruct = false
	opt.UseRC = false
	opt.WBufTimeout = 1 << 20
	c := New(env, opt)
	c.Writeback(0, 0, 0b1111) // sectors 0-3 of granule known
	done := false
	c.ReadMiss(1, 0, 0b0001, mem.Demand, func(sim.Cycle) { done = true })
	drain(eng)
	if !done {
		t.Fatal("read never completed")
	}
	if env.Stats.Get("red_wbuf_fwd") != 1 {
		t.Fatalf("wbuf forwards = %d", env.Stats.Get("red_wbuf_fwd"))
	}
	if env.Stats.Get("red_reads_dram") != 0 {
		t.Fatalf("red reads = %d, want 0 (forwarded)", env.Stats.Get("red_reads_dram"))
	}
}

func TestRCWritebackMerge(t *testing.T) {
	env, eng, _ := testEnv(t)
	opt := DefaultOptions()
	opt.Reconstruct = false
	c := New(env, opt)
	// Populate the RC via a read, then a writeback to the same granule
	// merges in place with no DRAM redundancy traffic.
	c.ReadMiss(0, 0, 0b0001, mem.Demand, func(sim.Cycle) {})
	drain(eng)
	before := env.DRAM.Stats.Get("bytes_written")
	c.Writeback(eng.Now(), 0, 0b0001)
	drain(eng)
	if env.Stats.Get("red_wb_rc_hits") != 1 {
		t.Fatalf("rc wb hits = %d", env.Stats.Get("red_wb_rc_hits"))
	}
	// Only the data sector write reached DRAM so far.
	if got := env.DRAM.Stats.Get("bytes_written") - before; got != 32 {
		t.Fatalf("written delta = %d, want 32", got)
	}
}

func TestDrainFlushesDirtyRCAndWBuf(t *testing.T) {
	env, eng, _ := testEnv(t)
	opt := DefaultOptions()
	opt.Reconstruct = false
	opt.WBufTimeout = 1 << 20
	c := New(env, opt)
	// Dirty RC entry (read then writeback-merge).
	c.ReadMiss(0, 0, 0b0001, mem.Demand, func(sim.Cycle) {})
	drain(eng)
	c.Writeback(eng.Now(), 0, 0b0001)
	// Pending write-buffer entry for a different granule (RC miss).
	c.Writeback(eng.Now(), 1024, 0b0001)
	before := env.DRAM.Stats.Get("bytes_redundancy")
	c.Drain(eng.Now())
	drain(eng)
	// Drain writes the dirty RC block and RMWs the partial wbuf entry
	// (one red read + one red write).
	after := env.DRAM.Stats.Get("bytes_redundancy")
	if after-before < 64 {
		t.Fatalf("drain moved only %d redundancy bytes", after-before)
	}
	if env.Stats.Get("red_rmw") != 1 {
		t.Fatalf("rmw = %d", env.Stats.Get("red_rmw"))
	}
}

func TestNoRCNoWBufFallsBackToNaiveRMW(t *testing.T) {
	env, eng, _ := testEnv(t)
	c := New(env, Options{}) // everything off
	c.Writeback(0, 0, 0b0001)
	drain(eng)
	if env.Stats.Get("red_rmw") != 1 {
		t.Fatalf("rmw = %d", env.Stats.Get("red_rmw"))
	}
	if env.DRAM.Stats.Get("bytes_redundancy") != 32 {
		t.Fatalf("red write bytes = %d", env.DRAM.Stats.Get("bytes_redundancy"))
	}
}

func TestNameAndInterfaces(t *testing.T) {
	env, _, _ := testEnv(t)
	c := New(env, DefaultOptions())
	if c.Name() != "cachecraft" {
		t.Fatalf("name = %q", c.Name())
	}
	if !c.NeedsRMWFetch() {
		t.Fatal("cachecraft is an ECC scheme; RMW fetch required")
	}
	var _ protect.ReconstructionObserver = c
	if c.RC() == nil {
		t.Fatal("RC enabled but nil")
	}
	opt := DefaultOptions()
	opt.UseRC = false
	if New(env, opt).RC() != nil {
		t.Fatal("RC disabled but non-nil")
	}
}

func TestReconstruct1of16GranuleForwardLines(t *testing.T) {
	eng := sim.NewEngine()
	mapper, err := layout.NewLinearMapper(64<<20, layout.Geometry1of16())
	if err != nil {
		t.Fatal(err)
	}
	l2 := newFakeL2()
	dcfg := dram.DefaultConfig()
	dcfg.Channels = 2
	env := &protect.Env{
		Eng:       eng,
		DRAM:      dram.New(eng, dcfg),
		Map:       mapper,
		L2:        l2,
		Stats:     stats.NewCounters(),
		DecodeLat: 8,
	}
	opt := DefaultOptions()
	opt.Predictor = false
	c := New(env, opt)
	// 512B granule = 4 lines; a miss on line 1 (offset 128) reconstructs
	// lines 2 and 3 only (8 sectors), never line 0.
	c.ReadMiss(0, 128, 0b1111, mem.Demand, func(sim.Cycle) {})
	eng.Run(1 << 30)
	if len(l2.recon) != 8 {
		t.Fatalf("reconstructed %d sectors, want 8", len(l2.recon))
	}
	for _, sa := range l2.recon {
		if sa < 256 || sa >= 512 {
			t.Fatalf("reconstructed %#x outside forward lines", sa)
		}
	}
}

func TestRedundancyDirtyRCDrainsOnce(t *testing.T) {
	env, eng, _ := testEnv(t)
	opt := DefaultOptions()
	opt.Reconstruct = false
	c := New(env, opt)
	// Dirty the RC entry via read + writeback-merge, then drain twice:
	// the block must be written exactly once.
	c.ReadMiss(0, 0, 0b0001, mem.Demand, func(sim.Cycle) {})
	drain(eng)
	c.Writeback(eng.Now(), 0, 0b0001)
	before := env.DRAM.Stats.Get("bytes_redundancy")
	c.Drain(eng.Now())
	c.Drain(eng.Now())
	drain(eng)
	if got := env.DRAM.Stats.Get("bytes_redundancy") - before; got != 32 {
		t.Fatalf("drain wrote %d redundancy bytes, want exactly one block", got)
	}
}

func TestWBufTimeoutGenerationGuard(t *testing.T) {
	// An entry flushed by a full-granule blind write must not be flushed
	// again by its stale timeout event.
	env, eng, _ := testEnv(t)
	opt := DefaultOptions()
	opt.Reconstruct = false
	opt.UseRC = false
	opt.WBufTimeout = 50
	c := New(env, opt)
	c.Writeback(0, 0, 0b1111)
	c.Writeback(1, 128, 0b1111) // completes the granule → blind write
	drain(eng)                  // the stale timeout fires here
	if env.Stats.Get("red_blind_writes") != 1 {
		t.Fatalf("blind writes = %d", env.Stats.Get("red_blind_writes"))
	}
	if env.Stats.Get("red_wbuf_timeout") != 0 {
		t.Fatalf("stale timeout flushed: %d", env.Stats.Get("red_wbuf_timeout"))
	}
	if env.Stats.Get("red_rmw") != 0 {
		t.Fatalf("rmw = %d, want 0", env.Stats.Get("red_rmw"))
	}
}

// drainOrderHook records the address of every DRAM request submitted
// while attached (dram.Hook).
type drainOrderHook struct{ addrs []uint64 }

func (h *drainOrderHook) Submitted(_ sim.Cycle, req mem.Request, _, _ int, _ int64) {
	h.addrs = append(h.addrs, req.Addr)
}
func (h *drainOrderHook) Serviced(sim.Cycle, mem.Request, int, int, int64, int64, sim.Cycle) {}
func (h *drainOrderHook) Refreshed(sim.Cycle, int)                                           {}

// TestCacheCraftDrainDeterministic is the regression test for the
// map-order drain bug: Drain used to iterate the write buffer directly,
// flushing entries in Go's randomized map order, so the drain phase's
// DRAM request sequence — and with it row-hit counters and the latency
// histogram — varied between identical runs. The drain must flush in
// ascending address order, identically every run.
func TestCacheCraftDrainDeterministic(t *testing.T) {
	run := func() []uint64 {
		env, eng, _ := testEnv(t)
		opt := Options{WBuf: true, WBufEntries: 256, WBufTimeout: 1 << 20}
		c := New(env, opt)
		// One partially-written granule per iteration, far enough apart to
		// be distinct redundancy blocks; none reach the full-granule mask,
		// so all stay buffered until Drain.
		for i := 0; i < 48; i++ {
			c.Writeback(sim.Cycle(i), uint64(i)*4096, 0b0001)
		}
		hook := &drainOrderHook{}
		env.DRAM.SetHook(hook)
		c.Drain(eng.Now())
		return hook.addrs
	}
	a := run()
	if len(a) != 48 {
		t.Fatalf("drain submitted %d requests, want 48", len(a))
	}
	for i := 1; i < len(a); i++ {
		if a[i-1] >= a[i] {
			t.Fatalf("drain order not ascending at %d: %#x then %#x", i, a[i-1], a[i])
		}
	}
	b := run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two identical drains submitted different orders:\n%v\nvs\n%v", a, b)
	}
}
