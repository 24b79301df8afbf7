package dram

import (
	"testing"

	"cachecraft/internal/mem"
	"cachecraft/internal/sim"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Channels = 2
	cfg.BanksPerChannel = 4
	return cfg
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := DefaultConfig()
	bad.Channels = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero channels accepted")
	}
	bad = DefaultConfig()
	bad.TCmd = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero command gap accepted")
	}
	bad = DefaultConfig()
	bad.ChannelInterleaveBytes = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero interleave accepted")
	}
	edge := DefaultConfig()
	edge.Channels, edge.BanksPerChannel, edge.SchedulerWindow = MaxChannels, MaxBanksPerChannel, MaxSchedulerWindow
	if err := edge.Validate(); err != nil {
		t.Fatalf("largest geometry rejected: %v", err)
	}
	for _, grow := range []func(*Config){
		func(c *Config) { c.Channels++ },
		func(c *Config) { c.BanksPerChannel++ },
		func(c *Config) { c.SchedulerWindow++ },
	} {
		bad := edge
		grow(&bad)
		if err := bad.Validate(); err == nil {
			t.Fatalf("geometry past the limits accepted: %+v", bad)
		}
	}
}

func run(eng *sim.Engine, d *DRAM) sim.Cycle {
	return eng.Run(1 << 30)
}

func TestSingleReadLatency(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, testConfig())
	var doneAt sim.Cycle
	d.Submit(0, mem.Request{Addr: 0, Bytes: 32, Class: mem.Demand,
		Done: func(now sim.Cycle) { doneAt = now }})
	run(eng, d)
	// Cold bank: tRCD + tCAS + one burst.
	want := testConfig().TRCD + testConfig().TCAS + testConfig().TBurst
	if doneAt != want {
		t.Fatalf("latency = %d, want %d", doneAt, want)
	}
	if d.Stats.Get("row_misses") != 1 {
		t.Fatalf("row misses = %d", d.Stats.Get("row_misses"))
	}
}

func TestRowHitFasterThanConflict(t *testing.T) {
	cfg := testConfig()
	eng := sim.NewEngine()
	d := New(eng, cfg)
	var hitDone, confDone sim.Cycle
	// Same row (sequential sectors) → second access is a row hit.
	d.Submit(0, mem.Request{Addr: 0, Bytes: 32})
	d.Submit(0, mem.Request{Addr: 32, Bytes: 32,
		Done: func(now sim.Cycle) { hitDone = now }})
	run(eng, d)

	eng2 := sim.NewEngine()
	d2 := New(eng2, cfg)
	// Same bank, different row → conflict. Rows within a channel advance
	// every BanksPerChannel*RowBytes in channel-local address space; with
	// 2 channels the physical stride doubles per interleave stripe.
	conflictAddr := uint64(cfg.RowBytes) * uint64(cfg.BanksPerChannel) * uint64(cfg.Channels)
	d2.Submit(0, mem.Request{Addr: 0, Bytes: 32})
	d2.Submit(0, mem.Request{Addr: conflictAddr, Bytes: 32,
		Done: func(now sim.Cycle) { confDone = now }})
	run(eng2, d2)

	if d.Stats.Get("row_hits") != 1 {
		t.Fatalf("expected a row hit, got stats: %s", d.Stats)
	}
	if d2.Stats.Get("row_conflicts") != 1 {
		t.Fatalf("expected a row conflict, got stats: %s", d2.Stats)
	}
	if hitDone >= confDone {
		t.Fatalf("row hit (%d) must complete before conflict (%d)", hitDone, confDone)
	}
}

func TestChannelInterleavingSpreadsLoad(t *testing.T) {
	cfg := testConfig()
	eng := sim.NewEngine()
	d := New(eng, cfg)
	// Consecutive 256B stripes must alternate channels: issue a read into
	// each of the first 4 stripes and verify both channels saw traffic.
	for i := 0; i < 4; i++ {
		d.Submit(0, mem.Request{Addr: uint64(i * cfg.ChannelInterleaveBytes), Bytes: 32})
	}
	run(eng, d)
	util := d.BusUtilization(eng.Now())
	if util[0] == 0 {
		t.Fatal("one channel idle: interleaving broken")
	}
}

func TestBankParallelismBeatsSerialBank(t *testing.T) {
	cfg := testConfig()
	// 8 row-miss reads to 8 different banks vs 8 row-conflict reads to one
	// bank: the former must finish much earlier.
	bankStride := uint64(cfg.RowBytes) * uint64(cfg.Channels) // next bank, same channel

	engA := sim.NewEngine()
	a := New(engA, cfg)
	var lastA sim.Cycle
	for i := 0; i < 4; i++ {
		a.Submit(0, mem.Request{Addr: uint64(i) * bankStride, Bytes: 32,
			Done: func(now sim.Cycle) { lastA = now }})
	}
	run(engA, a)

	engB := sim.NewEngine()
	b := New(engB, cfg)
	var lastB sim.Cycle
	conflictStride := bankStride * uint64(cfg.BanksPerChannel)
	for i := 0; i < 4; i++ {
		b.Submit(0, mem.Request{Addr: uint64(i) * conflictStride, Bytes: 32,
			Done: func(now sim.Cycle) { lastB = now }})
	}
	run(engB, b)

	if lastA >= lastB {
		t.Fatalf("bank-parallel %d should beat serial-bank %d", lastA, lastB)
	}
}

func TestFRFCFSPrefersOpenRow(t *testing.T) {
	cfg := testConfig()
	eng := sim.NewEngine()
	d := New(eng, cfg)
	var orderDone []uint64
	mk := func(addr uint64) mem.Request {
		return mem.Request{Addr: addr, Bytes: 32, Done: func(sim.Cycle) {
			orderDone = append(orderDone, addr)
		}}
	}
	conflictAddr := uint64(cfg.RowBytes) * uint64(cfg.BanksPerChannel) * uint64(cfg.Channels)
	// First opens row 0. Then a conflicting row arrives, then a row-0 hit.
	// FR-FCFS should serve the row hit before the conflict.
	d.Submit(0, mk(0))
	d.Submit(0, mk(conflictAddr))
	d.Submit(0, mk(64))
	run(eng, d)
	if len(orderDone) != 3 {
		t.Fatalf("completed %d", len(orderDone))
	}
	if orderDone[1] != 64 {
		t.Fatalf("completion order %v: row hit should overtake conflict", orderDone)
	}
}

func TestWriteCountsBytes(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, testConfig())
	d.Submit(0, mem.Request{Addr: 0, Bytes: 32, Write: true, Class: mem.Writeback})
	d.Submit(0, mem.Request{Addr: 256, Bytes: 32, Class: mem.Demand})
	run(eng, d)
	if d.Stats.Get("bytes_written") != 32 || d.Stats.Get("bytes_read") != 32 {
		t.Fatalf("byte accounting: %s", d.Stats)
	}
	if d.Stats.Get("bytes_writeback") != 32 || d.Stats.Get("bytes_demand") != 32 {
		t.Fatalf("class accounting: %s", d.Stats)
	}
	if d.TotalBytes() != 64 {
		t.Fatalf("total = %d", d.TotalBytes())
	}
}

func TestLargeBurstOccupiesBusLonger(t *testing.T) {
	cfg := testConfig()
	eng := sim.NewEngine()
	d := New(eng, cfg)
	var small, large sim.Cycle
	d.Submit(0, mem.Request{Addr: 0, Bytes: 32, Done: func(n sim.Cycle) { small = n }})
	run(eng, d)
	eng2 := sim.NewEngine()
	d2 := New(eng2, cfg)
	d2.Submit(0, mem.Request{Addr: 0, Bytes: 128, Done: func(n sim.Cycle) { large = n }})
	run(eng2, d2)
	if large != small+3*cfg.TBurst {
		t.Fatalf("128B done at %d, 32B at %d: want 3 extra bursts", large, small)
	}
}

func TestDrainAndQueueLen(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, testConfig())
	if !d.Drain() {
		t.Fatal("fresh DRAM should be drained")
	}
	d.Submit(0, mem.Request{Addr: 0, Bytes: 32})
	if d.Drain() {
		t.Fatal("queued request should block drain")
	}
	if q := d.chans[0].queued; q != 1 {
		t.Fatalf("queue len = %d", q)
	}
	run(eng, d)
	if !d.Drain() {
		t.Fatal("should drain after run")
	}
}

func TestDeterminism(t *testing.T) {
	runOnce := func() (sim.Cycle, uint64) {
		eng := sim.NewEngine()
		d := New(eng, testConfig())
		for i := 0; i < 200; i++ {
			addr := uint64(i*937) % (1 << 20)
			addr -= addr % 32
			d.Submit(sim.Cycle(i), mem.Request{Addr: addr, Bytes: 32})
		}
		end := eng.Run(1 << 30)
		return end, d.Stats.Get("row_hits")
	}
	e1, h1 := runOnce()
	e2, h2 := runOnce()
	if e1 != e2 || h1 != h2 {
		t.Fatalf("nondeterministic: (%d,%d) vs (%d,%d)", e1, h1, e2, h2)
	}
}

func TestLatencyHistogramPopulated(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, testConfig())
	for i := 0; i < 10; i++ {
		d.Submit(0, mem.Request{Addr: uint64(i * 32), Bytes: 32})
	}
	run(eng, d)
	if d.LatHist.Count() != 10 {
		t.Fatalf("histogram count = %d", d.LatHist.Count())
	}
	if d.LatHist.Mean() <= 0 {
		t.Fatal("histogram mean must be positive")
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with invalid config must panic")
		}
	}()
	New(sim.NewEngine(), Config{})
}

func TestRouteCoversAllChannelsAndBanks(t *testing.T) {
	cfg := testConfig()
	eng := sim.NewEngine()
	d := New(eng, cfg)
	chans := map[int]bool{}
	banks := map[[2]int]bool{}
	for a := uint64(0); a < 1<<22; a += 256 {
		ch, bk, _ := d.route(a)
		if ch < 0 || ch >= cfg.Channels || bk < 0 || bk >= cfg.BanksPerChannel {
			t.Fatalf("route(%#x) = (%d,%d) out of range", a, ch, bk)
		}
		chans[ch] = true
		banks[[2]int{ch, bk}] = true
	}
	if len(chans) != cfg.Channels {
		t.Fatalf("only %d/%d channels reached", len(chans), cfg.Channels)
	}
	if len(banks) != cfg.Channels*cfg.BanksPerChannel {
		t.Fatalf("only %d banks reached", len(banks))
	}
}

func TestRouteDeterministic(t *testing.T) {
	cfg := testConfig()
	d := New(sim.NewEngine(), cfg)
	for a := uint64(0); a < 1<<16; a += 32 {
		c1, b1, r1 := d.route(a)
		c2, b2, r2 := d.route(a)
		if c1 != c2 || b1 != b2 || r1 != r2 {
			t.Fatalf("route(%#x) not deterministic", a)
		}
	}
}

func TestCommandPacing(t *testing.T) {
	// Two row hits to different banks of one channel cannot issue in the
	// same cycle: the second is delayed by at least TCmd.
	cfg := testConfig()
	cfg.TREFI = 0 // isolate pacing
	eng := sim.NewEngine()
	d := New(eng, cfg)
	bankStride := uint64(cfg.RowBytes) * uint64(cfg.Channels)
	var first, second sim.Cycle
	d.Submit(0, mem.Request{Addr: 0, Bytes: 32, Done: func(at sim.Cycle) { first = at }})
	d.Submit(0, mem.Request{Addr: bankStride, Bytes: 32, Done: func(at sim.Cycle) { second = at }})
	eng.Run(1 << 20)
	if second < first+cfg.TCmd {
		t.Fatalf("second done %d, first %d: command gap not enforced", second, first)
	}
}
