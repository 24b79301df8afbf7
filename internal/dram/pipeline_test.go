package dram

import (
	"testing"

	"cachecraft/internal/mem"
	"cachecraft/internal/sim"
)

// TestRowHitStreamSaturatesBus checks the CAS pipelining fix: a stream of
// row hits to one bank must complete at roughly one burst per TBurst, not
// one per (TCAS+TBurst).
func TestRowHitStreamSaturatesBus(t *testing.T) {
	cfg := testConfig()
	eng := sim.NewEngine()
	d := New(eng, cfg)
	const n = 64
	var done completions
	for i := 0; i < n; i++ {
		// Sequential 32B within one 256B channel stripe, then continue in
		// the same row via the same channel's next stripes.
		addr := uint64(i%8)*32 + uint64(i/8)*uint64(cfg.ChannelInterleaveBytes)*uint64(cfg.Channels)
		d.SubmitPost(0, mem.Request{Addr: addr, Bytes: 32}, &done, 0)
	}
	eng.Run(1 << 30)
	// Ideal: n bursts at TBurst each plus initial activate+CAS. Allow 2x
	// slack for scheduling quantization.
	ideal := sim.Cycle(n)*cfg.TBurst + cfg.TRCD + cfg.TCAS
	if last := done.last(); len(done.at) != n || last > 2*ideal {
		t.Fatalf("row-hit stream took %d cycles, ideal %d — CAS not pipelined", last, ideal)
	}
	if d.Stats.Get("row_hits") < n-8 {
		t.Fatalf("row hits = %d, want nearly all of %d", d.Stats.Get("row_hits"), n)
	}
}

// TestBusyBankDoesNotBlockChannel checks the per-bank queue fix: a burst
// of conflicting requests to one bank must not delay a row hit to another
// bank.
func TestBusyBankDoesNotBlockChannel(t *testing.T) {
	cfg := testConfig()
	eng := sim.NewEngine()
	d := New(eng, cfg)
	// Many row conflicts on bank 0 (same channel).
	conflictStride := uint64(cfg.RowBytes) * uint64(cfg.BanksPerChannel) * uint64(cfg.Channels)
	for i := 0; i < 32; i++ {
		d.Submit(0, mem.Request{Addr: uint64(i) * conflictStride, Bytes: 32})
	}
	// One access to bank 1 of the same channel.
	bank1 := uint64(cfg.RowBytes) * uint64(cfg.Channels)
	var done completions
	d.SubmitPost(0, mem.Request{Addr: bank1, Bytes: 32}, &done, 0)
	eng.Run(1 << 30)
	// The bank-1 access should finish in roughly one cold access time, not
	// behind 32 conflicts.
	coldish := 4 * (cfg.TRP + cfg.TRCD + cfg.TCAS + cfg.TBurst)
	if doneAt := done.last(); len(done.at) != 1 || doneAt > coldish {
		t.Fatalf("bank-1 access finished at %d, head-of-line blocked (budget %d)", doneAt, coldish)
	}
}

// TestRoundRobinFairness: two banks with steady row-hit streams must both
// make progress (the scheduler may not starve one behind the other).
func TestRoundRobinFairness(t *testing.T) {
	cfg := testConfig()
	eng := sim.NewEngine()
	d := New(eng, cfg)
	bankStride := uint64(cfg.RowBytes) * uint64(cfg.Channels)
	var done completions
	for i := 0; i < 32; i++ {
		d.SubmitPost(0, mem.Request{Addr: uint64(i%8) * 32, Bytes: 32}, &done, 0)
		d.SubmitPost(0, mem.Request{Addr: bankStride + uint64(i%8)*32, Bytes: 32}, &done, 1)
	}
	// count reports how many requests of each bank have completed.
	count := func() (done0, done1 int) {
		for _, bk := range done.args {
			if bk == 0 {
				done0++
			} else {
				done1++
			}
		}
		return done0, done1
	}
	// Run only partway: both banks must have progressed.
	eng.Run(200)
	if done0, done1 := count(); done0 == 0 || done1 == 0 {
		t.Fatalf("starvation: bank0 %d, bank1 %d after 200 cycles", done0, done1)
	}
	eng.Run(1 << 30)
	if done0, done1 := count(); done0 != 32 || done1 != 32 {
		t.Fatalf("lost requests: %d/%d", done0, done1)
	}
}

// TestBankQueueCompaction exercises the head-index compaction path.
func TestBankQueueCompaction(t *testing.T) {
	cfg := testConfig()
	eng := sim.NewEngine()
	d := New(eng, cfg)
	var done completions
	for i := 0; i < 3000; i++ {
		d.SubmitPost(0, mem.Request{Addr: uint64(i%8) * 32, Bytes: 32}, &done, 0)
	}
	eng.Run(1 << 30)
	if completed := len(done.at); completed != 3000 {
		t.Fatalf("completed %d of 3000", completed)
	}
	if !d.Drain() {
		t.Fatal("queue not drained")
	}
}

// TestFRFCFSWindowPromotesRowHitWithinBank: with an open row and a
// conflicting request ahead of a hit in the same bank queue, the hit is
// served first.
func TestFRFCFSWindowPromotesRowHitWithinBank(t *testing.T) {
	cfg := testConfig()
	eng := sim.NewEngine()
	d := New(eng, cfg)
	conflictStride := uint64(cfg.RowBytes) * uint64(cfg.BanksPerChannel) * uint64(cfg.Channels)
	names := []string{"open", "conflict", "hit"}
	var done completions
	d.SubmitPost(0, mem.Request{Addr: 0, Bytes: 32}, &done, 0)              // opens row 0
	d.SubmitPost(0, mem.Request{Addr: conflictStride, Bytes: 32}, &done, 1) // same bank, other row
	d.SubmitPost(0, mem.Request{Addr: 64, Bytes: 32}, &done, 2)             // row 0 again
	eng.Run(1 << 30)
	var order []string
	for _, i := range done.args {
		order = append(order, names[i])
	}
	if len(order) != 3 {
		t.Fatalf("completed %d", len(order))
	}
	if order[1] != "hit" {
		t.Fatalf("order = %v; row hit should overtake the conflict", order)
	}
}

// TestRefreshStallsChannel: a request arriving during a refresh window
// waits for TRFC; with refresh disabled it does not.
func TestRefreshStallsChannel(t *testing.T) {
	cfg := testConfig()
	cfg.TREFI = 500
	cfg.TRFC = 300
	eng := sim.NewEngine()
	d := New(eng, cfg)
	var done completions
	// Submit just after the first refresh boundary.
	eng.Post(501, fnEvent(func(now sim.Cycle) {
		d.SubmitPost(now, mem.Request{Addr: 0, Bytes: 32}, &done, 0)
	}), 0, 0)
	eng.Run(1 << 20)
	// Refresh at 500 blocks until 800; then the cold access follows.
	min := sim.Cycle(800)
	if doneAt := done.last(); doneAt < min {
		t.Fatalf("done at %d, want ≥ %d (refresh ignored)", doneAt, min)
	}
	if d.Stats.Get("refreshes") == 0 {
		t.Fatal("no refreshes counted")
	}
}

// TestRefreshClosesRows: an open row is closed by refresh, so the next
// access to it is a row miss, not a hit.
func TestRefreshClosesRows(t *testing.T) {
	cfg := testConfig()
	cfg.TREFI = 1000
	cfg.TRFC = 100
	eng := sim.NewEngine()
	d := New(eng, cfg)
	d.Submit(0, mem.Request{Addr: 0, Bytes: 32})
	eng.Run(1 << 20)
	// Re-access the same row after a refresh boundary.
	eng.Post(1200, fnEvent(func(now sim.Cycle) {
		d.Submit(now, mem.Request{Addr: 64, Bytes: 32})
	}), 0, 0)
	eng.Run(1 << 20)
	if d.Stats.Get("row_hits") != 0 {
		t.Fatalf("row hit across refresh: %d", d.Stats.Get("row_hits"))
	}
	if d.Stats.Get("row_misses") != 2 {
		t.Fatalf("row misses = %d, want 2", d.Stats.Get("row_misses"))
	}
}
