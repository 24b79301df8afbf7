package protect

import (
	"fmt"
	"testing"

	"cachecraft/internal/dram"
	"cachecraft/internal/layout"
	"cachecraft/internal/mem"
	"cachecraft/internal/sim"
	"cachecraft/internal/stats"
)

// fakeL2 is a minimal CacheSide for controller unit tests.
type fakeL2 struct {
	present map[uint64]bool
	dirty   map[uint64]bool
	inserts []uint64
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
	f.inserts = append(f.inserts, addr)
}
func (f *fakeL2) InsertReconstructed(now sim.Cycle, addr uint64) {
	f.Insert(now, addr, false)
	f.recon = append(f.recon, addr)
}
func (f *fakeL2) MarkDirty(addr uint64) { f.dirty[addr] = true }

func testEnv(t *testing.T) (*Env, *sim.Engine, *fakeL2) {
	t.Helper()
	eng := sim.NewEngine()
	mapper, err := layout.NewLinearMapper(64<<20, layout.DefaultGeometry())
	if err != nil {
		t.Fatal(err)
	}
	l2 := newFakeL2()
	cfg := dram.DefaultConfig()
	cfg.Channels = 2
	env := &Env{
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

func TestNoneReadFetchesOnlyDemand(t *testing.T) {
	env, eng, _ := testEnv(t)
	s := NewNone(env)
	done := false
	s.ReadMiss(0, 0, 0b0011, mem.Demand, func(sim.Cycle) { done = true })
	drain(eng)
	if !done {
		t.Fatal("read never completed")
	}
	if env.DRAM.Stats.Get("bytes_demand") != 64 {
		t.Fatalf("demand bytes = %d, want 64", env.DRAM.Stats.Get("bytes_demand"))
	}
	if env.DRAM.Stats.Get("bytes_redundancy") != 0 {
		t.Fatal("none must not fetch redundancy")
	}
	if s.NeedsRMWFetch() {
		t.Fatal("none must not need RMW fetches")
	}
}

func TestNoneWritebackWritesDirtySectors(t *testing.T) {
	env, eng, _ := testEnv(t)
	s := NewNone(env)
	s.Writeback(0, 0, 0b1010)
	drain(eng)
	if env.DRAM.Stats.Get("bytes_writeback") != 64 {
		t.Fatalf("writeback bytes = %d", env.DRAM.Stats.Get("bytes_writeback"))
	}
}

func TestInlineNaiveReadAddsRedundancy(t *testing.T) {
	env, eng, _ := testEnv(t)
	s := NewInlineNaive(env)
	var doneAt sim.Cycle
	s.ReadMiss(0, 0, 0b0001, mem.Demand, func(at sim.Cycle) { doneAt = at })
	drain(eng)
	if doneAt == 0 {
		t.Fatal("read never completed")
	}
	if env.DRAM.Stats.Get("bytes_demand") != 32 {
		t.Fatalf("demand bytes = %d", env.DRAM.Stats.Get("bytes_demand"))
	}
	if env.DRAM.Stats.Get("bytes_redundancy") != 32 {
		t.Fatalf("redundancy bytes = %d, want one block", env.DRAM.Stats.Get("bytes_redundancy"))
	}
	if !s.NeedsRMWFetch() {
		t.Fatal("inline ECC must need RMW fetches")
	}
}

func TestInlineNaiveDecodeLatencyApplied(t *testing.T) {
	env, eng, _ := testEnv(t)
	naive := NewInlineNaive(env)
	var naiveDone sim.Cycle
	naive.ReadMiss(0, 0, 1, mem.Demand, func(at sim.Cycle) { naiveDone = at })
	drain(eng)

	env2, eng2, _ := testEnv(t)
	none := NewNone(env2)
	var noneDone sim.Cycle
	none.ReadMiss(0, 0, 1, mem.Demand, func(at sim.Cycle) { noneDone = at })
	drain(eng2)

	if naiveDone <= noneDone {
		t.Fatalf("protected read (%d) must be slower than unprotected (%d)", naiveDone, noneDone)
	}
}

func TestInlineNaiveWritebackDoesRMW(t *testing.T) {
	env, eng, _ := testEnv(t)
	s := NewInlineNaive(env)
	s.Writeback(0, 0, 0b0001)
	drain(eng)
	if env.Stats.Get("red_rmw") != 1 {
		t.Fatalf("rmw count = %d", env.Stats.Get("red_rmw"))
	}
	if env.DRAM.Stats.Get("bytes_rmw") != 32 {
		t.Fatalf("rmw read bytes = %d", env.DRAM.Stats.Get("bytes_rmw"))
	}
	// Data write + red write.
	if env.DRAM.Stats.Get("bytes_written") != 64 {
		t.Fatalf("written bytes = %d, want data+red", env.DRAM.Stats.Get("bytes_written"))
	}
}

func TestECCCacheHitAvoidsRedundancyFetch(t *testing.T) {
	env, eng, l2 := testEnv(t)
	s := NewECCCache(env)
	tagged := RedTag | env.Map.RedundancyAddr(0)
	l2.present[tagged] = true

	s.ReadMiss(0, 0, 0b0001, mem.Demand, func(sim.Cycle) {})
	drain(eng)
	if env.DRAM.Stats.Get("bytes_redundancy") != 0 {
		t.Fatal("redundancy fetched despite L2 hit")
	}
	if env.Stats.Get("red_l2_hits") != 1 {
		t.Fatalf("red_l2_hits = %d", env.Stats.Get("red_l2_hits"))
	}
}

func TestECCCacheMissInsertsIntoL2(t *testing.T) {
	env, eng, l2 := testEnv(t)
	s := NewECCCache(env)
	s.ReadMiss(0, 0, 0b0001, mem.Demand, func(sim.Cycle) {})
	drain(eng)
	tagged := RedTag | env.Map.RedundancyAddr(0)
	if !l2.present[tagged] {
		t.Fatal("redundancy block not inserted into L2")
	}
	if env.DRAM.Stats.Get("bytes_redundancy") != 32 {
		t.Fatalf("redundancy bytes = %d", env.DRAM.Stats.Get("bytes_redundancy"))
	}
}

func TestECCCacheConcurrentMissesMerge(t *testing.T) {
	env, eng, _ := testEnv(t)
	s := NewECCCache(env)
	// Two misses in the same granule share one redundancy fetch.
	completions := 0
	s.ReadMiss(0, 0, 0b0001, mem.Demand, func(sim.Cycle) { completions++ })
	s.ReadMiss(0, 128, 0b0001, mem.Demand, func(sim.Cycle) { completions++ })
	drain(eng)
	if completions != 2 {
		t.Fatalf("completions = %d", completions)
	}
	if got := env.Stats.Get("red_reads_dram"); got != 1 {
		t.Fatalf("redundancy reads = %d, want 1 (merged)", got)
	}
	if env.Stats.Get("red_merged") != 1 {
		t.Fatalf("red_merged = %d", env.Stats.Get("red_merged"))
	}
}

func TestECCCacheWritebackMarksCachedRedDirty(t *testing.T) {
	env, eng, l2 := testEnv(t)
	s := NewECCCache(env)
	tagged := RedTag | env.Map.RedundancyAddr(0)
	l2.present[tagged] = true
	s.Writeback(0, 0, 0b0001)
	drain(eng)
	if !l2.dirty[tagged] {
		t.Fatal("cached redundancy not marked dirty")
	}
	// Only the data write goes to DRAM.
	if env.DRAM.Stats.Get("bytes_written") != 32 {
		t.Fatalf("written = %d", env.DRAM.Stats.Get("bytes_written"))
	}
}

func TestECCCacheWritebackAllocatesRedWhenAbsent(t *testing.T) {
	env, eng, l2 := testEnv(t)
	s := NewECCCache(env)
	s.Writeback(0, 0, 0b0001)
	drain(eng)
	tagged := RedTag | env.Map.RedundancyAddr(0)
	if !l2.present[tagged] || !l2.dirty[tagged] {
		t.Fatal("redundancy not write-allocated dirty")
	}
	if env.DRAM.Stats.Get("bytes_rmw") != 32 {
		t.Fatalf("rmw bytes = %d", env.DRAM.Stats.Get("bytes_rmw"))
	}
}

func TestECCCacheEvictedRedLineWritesBack(t *testing.T) {
	env, eng, _ := testEnv(t)
	s := NewECCCache(env)
	redLine := RedTag | env.Map.RedundancyAddr(0) // treat as evicted dirty line
	s.Writeback(0, redLine-redLine%128, 0b0001)
	drain(eng)
	if env.Stats.Get("red_writebacks") != 1 {
		t.Fatalf("red writebacks = %d", env.Stats.Get("red_writebacks"))
	}
	if env.DRAM.Stats.Get("bytes_written") != 32 {
		t.Fatalf("written = %d", env.DRAM.Stats.Get("bytes_written"))
	}
}

func TestSchemeNames(t *testing.T) {
	env, _, _ := testEnv(t)
	if NewNone(env).Name() != "none" {
		t.Fatal("none name")
	}
	if NewInlineNaive(env).Name() != "inline-naive" {
		t.Fatal("inline name")
	}
	if NewECCCache(env).Name() != "ecc-cache" {
		t.Fatal("ecc-cache name")
	}
}

// TestFetchesMergeAndRelease: a second request for an address in flight
// merges into its fetch, ORing in its flag; the fetch's completion sees
// the merged flag before its waiters are released, in join order, and the
// address leaves the table.
func TestFetchesMergeAndRelease(t *testing.T) {
	env, eng, _ := testEnv(t)
	var order []string
	var gotFlag, gotMerged bool
	f := NewFetches(env, func(at sim.Cycle, addr uint64, flag, merged bool) {
		order = append(order, "arrived")
		gotFlag, gotMerged = flag, merged
	})
	j1 := env.NewJoin(0, 1, 0, false, func(sim.Cycle) { order = append(order, "j1") })
	j2 := env.NewJoin(0, 1, 0, false, func(sim.Cycle) { order = append(order, "j2") })
	if f.Wait(64, false, j1) {
		t.Fatal("Wait merged into a fetch that was never started")
	}
	f.Start(0, 64, false, j1, mem.Request{Addr: 64, Bytes: 32})
	if !f.InFlight(64) || !f.Wait(64, true, j2) {
		t.Fatal("second request did not merge into the outstanding fetch")
	}
	drain(eng)
	if got := fmt.Sprint(order); got != "[arrived j1 j2]" {
		t.Fatalf("completion order = %s", got)
	}
	if !gotFlag || !gotMerged {
		t.Fatalf("arrived saw flag %v merged %v, want both true", gotFlag, gotMerged)
	}
	if f.InFlight(64) {
		t.Fatal("completed fetch still in flight")
	}
}

// TestReadMissZeroAllocs: once its pools are warm, protected read misses
// and writebacks — joins, data, redundancy and read-modify-write fetches,
// merges, decode — allocate nothing.
func TestReadMissZeroAllocs(t *testing.T) {
	env, eng, l2 := testEnv(t)
	for name, s := range map[string]Scheme{
		"inline-naive": NewInlineNaive(env),
		"ecc-cache":    NewECCCache(env),
	} {
		done := func(sim.Cycle) {}
		miss := func() {
			// Forget the redundancy blocks cached so far, so ecc-cache
			// fetches (and merges) them again.
			clear(l2.present)
			l2.inserts = l2.inserts[:0]
			s.ReadMiss(eng.Now(), 0, 0b0011, mem.Demand, done)
			s.ReadMiss(eng.Now(), 128, 0b0001, mem.Demand, done)
			s.Writeback(eng.Now(), 4096, 0b0001)
			drain(eng)
		}
		miss()
		if allocs := testing.AllocsPerRun(100, miss); allocs != 0 {
			t.Errorf("%s: a read miss and writeback allocated %.1f times, want 0", name, allocs)
		}
	}
}

func TestJoinZeroFiresImmediately(t *testing.T) {
	env, eng, _ := testEnv(t)
	ran := false
	env.NewJoin(5, 0, 0, false, func(sim.Cycle) { ran = true })
	drain(eng)
	if !ran {
		t.Fatal("NewJoin(0) must fire immediately")
	}
}

func TestErrorInjectionDeterministicAndRateBounded(t *testing.T) {
	env, _, _ := testEnv(t)
	env.ErrorRatePPM = 100000 // 10%
	hits := 0
	const granules = 2000
	for g := 0; g < granules; g++ {
		if env.errorAt(uint64(g) * 256) {
			hits++
		}
	}
	// Deterministic repeat.
	hits2 := 0
	for g := 0; g < granules; g++ {
		if env.errorAt(uint64(g) * 256) {
			hits2++
		}
	}
	if hits != hits2 {
		t.Fatal("error placement not deterministic")
	}
	frac := float64(hits) / granules
	if frac < 0.05 || frac > 0.15 {
		t.Fatalf("10%% rate produced %.3f", frac)
	}
	// Lines of the same granule agree.
	if env.errorAt(0) != env.errorAt(128) {
		t.Fatal("granule halves disagree on error placement")
	}
}

func TestFinishDecodeAddsPenaltyAndScrub(t *testing.T) {
	env, eng, _ := testEnv(t)
	env.ErrorRatePPM = 1_000_000 // every granule errors
	env.ErrorPenalty = 100
	var doneAt sim.Cycle
	env.NewJoin(10, 0, 0, true, func(at sim.Cycle) { doneAt = at })
	drain(eng)
	if doneAt != 10+env.DecodeLat+100 {
		t.Fatalf("done at %d, want %d", doneAt, 10+env.DecodeLat+100)
	}
	if env.Stats.Get("corrected_errors") != 1 || env.Stats.Get("scrub_writes") != 1 {
		t.Fatalf("error accounting: %s", env.Stats)
	}
	if env.DRAM.Stats.Get("bytes_written") != 32 {
		t.Fatalf("scrub write bytes = %d", env.DRAM.Stats.Get("bytes_written"))
	}
}

func TestFinishDecodeCleanPath(t *testing.T) {
	env, eng, _ := testEnv(t)
	var doneAt sim.Cycle
	env.NewJoin(10, 0, 0, true, func(at sim.Cycle) { doneAt = at })
	drain(eng)
	if doneAt != 10+env.DecodeLat {
		t.Fatalf("done at %d", doneAt)
	}
	if env.Stats.Get("corrected_errors") != 0 {
		t.Fatal("phantom error")
	}
}

func TestIdealReadPaysOnlyDemandAndDecode(t *testing.T) {
	env, eng, _ := testEnv(t)
	s := NewIdeal(env)
	if s.Name() != "ideal" {
		t.Fatal("name")
	}
	var doneAt sim.Cycle
	s.ReadMiss(0, 0, 0b0001, mem.Demand, func(at sim.Cycle) { doneAt = at })
	drain(eng)
	if env.DRAM.Stats.Get("bytes_redundancy") != 0 {
		t.Fatal("ideal must not move redundancy")
	}
	// Compare against none: exactly DecodeLat slower.
	env2, eng2, _ := testEnv(t)
	var noneAt sim.Cycle
	NewNone(env2).ReadMiss(0, 0, 0b0001, mem.Demand, func(at sim.Cycle) { noneAt = at })
	drain(eng2)
	if doneAt != noneAt+env.DecodeLat {
		t.Fatalf("ideal done %d, none %d, want decode-only gap %d", doneAt, noneAt, env.DecodeLat)
	}
}

func TestIdealWritebackIsDataOnlyButKeepsRMWFetch(t *testing.T) {
	env, eng, _ := testEnv(t)
	s := NewIdeal(env)
	s.Writeback(0, 0, 0b0011)
	drain(eng)
	if env.DRAM.Stats.Get("bytes_written") != 64 {
		t.Fatalf("written = %d", env.DRAM.Stats.Get("bytes_written"))
	}
	if env.DRAM.Stats.Get("bytes_redundancy")+env.DRAM.Stats.Get("bytes_rmw") != 0 {
		t.Fatal("ideal wrote redundancy")
	}
	if !s.NeedsRMWFetch() {
		t.Fatal("even ideal cannot avoid fetch-on-partial-write under ECC")
	}
}
