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

// completions is the handler tests submit requests with: it records each
// completed request's arg and finish cycle, in completion order.
type completions struct {
	args []uint64
	at   []sim.Cycle
}

func (c *completions) OnEvent(now sim.Cycle, arg, _ uint64) {
	c.args = append(c.args, arg)
	c.at = append(c.at, now)
}

// fnEvent adapts a closure to sim.Handler, for tests that act at a
// given cycle.
type fnEvent func(now sim.Cycle)

func (f fnEvent) OnEvent(now sim.Cycle, _, _ uint64) { f(now) }

// last is the finish cycle of the latest completion (0 if none).
func (c *completions) last() sim.Cycle {
	if len(c.at) == 0 {
		return 0
	}
	return c.at[len(c.at)-1]
}

// of is the finish cycle of the request submitted with arg (0 if it has
// not completed).
func (c *completions) of(arg uint64) sim.Cycle {
	for i, a := range c.args {
		if a == arg {
			return c.at[i]
		}
	}
	return 0
}

func TestSingleReadLatency(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, testConfig())
	var done completions
	d.SubmitPost(0, mem.Request{Addr: 0, Bytes: 32, Class: mem.Demand}, &done, 0)
	run(eng, d)
	// Cold bank: tRCD + tCAS + one burst.
	want := testConfig().TRCD + testConfig().TCAS + testConfig().TBurst
	if doneAt := done.last(); len(done.at) != 1 || doneAt != want {
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
	var hit, conf completions
	// Same row (sequential sectors) → second access is a row hit.
	d.Submit(0, mem.Request{Addr: 0, Bytes: 32})
	d.SubmitPost(0, mem.Request{Addr: 32, Bytes: 32}, &hit, 0)
	run(eng, d)

	eng2 := sim.NewEngine()
	d2 := New(eng2, cfg)
	// Same bank, different row → conflict. Rows within a channel advance
	// every BanksPerChannel*RowBytes in channel-local address space; with
	// 2 channels the physical stride doubles per interleave stripe.
	conflictAddr := uint64(cfg.RowBytes) * uint64(cfg.BanksPerChannel) * uint64(cfg.Channels)
	d2.Submit(0, mem.Request{Addr: 0, Bytes: 32})
	d2.SubmitPost(0, mem.Request{Addr: conflictAddr, Bytes: 32}, &conf, 0)
	run(eng2, d2)

	if d.Stats.Get("row_hits") != 1 {
		t.Fatalf("expected a row hit, got stats: %s", d.Stats)
	}
	if d2.Stats.Get("row_conflicts") != 1 {
		t.Fatalf("expected a row conflict, got stats: %s", d2.Stats)
	}
	if hitDone, confDone := hit.last(), conf.last(); hitDone >= confDone {
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
	var doneA completions
	for i := 0; i < 4; i++ {
		a.SubmitPost(0, mem.Request{Addr: uint64(i) * bankStride, Bytes: 32}, &doneA, 0)
	}
	run(engA, a)

	engB := sim.NewEngine()
	b := New(engB, cfg)
	var doneB completions
	conflictStride := bankStride * uint64(cfg.BanksPerChannel)
	for i := 0; i < 4; i++ {
		b.SubmitPost(0, mem.Request{Addr: uint64(i) * conflictStride, Bytes: 32}, &doneB, 0)
	}
	run(engB, b)

	if lastA, lastB := doneA.last(), doneB.last(); lastA >= lastB {
		t.Fatalf("bank-parallel %d should beat serial-bank %d", lastA, lastB)
	}
}

func TestFRFCFSPrefersOpenRow(t *testing.T) {
	cfg := testConfig()
	eng := sim.NewEngine()
	d := New(eng, cfg)
	var done completions
	submit := func(addr uint64) {
		d.SubmitPost(0, mem.Request{Addr: addr, Bytes: 32}, &done, addr)
	}
	conflictAddr := uint64(cfg.RowBytes) * uint64(cfg.BanksPerChannel) * uint64(cfg.Channels)
	// First opens row 0. Then a conflicting row arrives, then a row-0 hit.
	// FR-FCFS should serve the row hit before the conflict.
	submit(0)
	submit(conflictAddr)
	submit(64)
	run(eng, d)
	orderDone := done.args
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
	var doneSmall, doneLarge completions
	d.SubmitPost(0, mem.Request{Addr: 0, Bytes: 32}, &doneSmall, 0)
	run(eng, d)
	eng2 := sim.NewEngine()
	d2 := New(eng2, cfg)
	d2.SubmitPost(0, mem.Request{Addr: 0, Bytes: 128}, &doneLarge, 0)
	run(eng2, d2)
	if small, large := doneSmall.last(), doneLarge.last(); large != small+3*cfg.TBurst {
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

// TestLatencyCountsEveryRequest: the latency sum and count cover every
// serviced request, and their mean lies between the fastest and slowest
// completion (all requests arrive at cycle 0).
func TestLatencyCountsEveryRequest(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, testConfig())
	var done completions
	for i := 0; i < 10; i++ {
		d.SubmitPost(0, mem.Request{Addr: uint64(i * 32), Bytes: 32}, &done, 0)
	}
	run(eng, d)
	sum, n := d.Latency()
	if n != 10 || len(done.at) != 10 {
		t.Fatalf("latency count = %d, %d completions", n, len(done.at))
	}
	mean := float64(sum) / float64(n)
	if lo, hi := float64(done.at[0]), float64(done.last()); mean < lo || mean > hi || lo <= 0 {
		t.Fatalf("latency mean %v outside the completions' [%v, %v]", mean, lo, hi)
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
	var done completions
	d.SubmitPost(0, mem.Request{Addr: 0, Bytes: 32}, &done, 1)
	d.SubmitPost(0, mem.Request{Addr: bankStride, Bytes: 32}, &done, 2)
	eng.Run(1 << 20)
	if first, second := done.of(1), done.of(2); first == 0 || second < first+cfg.TCmd {
		t.Fatalf("second done %d, first %d: command gap not enforced", second, first)
	}
}
