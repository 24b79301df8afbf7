package dram

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"cachecraft/internal/mem"
	"cachecraft/internal/sim"
)

// refPickBank is the bank choice made by scanning, the way the scheduler
// did before it kept per-bank hit counts and a pending-bank mask: visit
// every bank round-robin from rr, take the first ready one whose window
// holds a row hit, else the first ready one. It returns the bank (-1 when
// none is ready), the updated round-robin pointer, and — when no bank is
// ready but work is queued — the earliest cycle a pending bank is ready.
func refPickBank(c *channel, window int, now sim.Cycle) (bk, rr int, wake sim.Cycle, queued bool) {
	n := len(c.banks)
	fallback := -1
	rr = c.rr
	for off := 0; off < n; off++ {
		i := (c.rr + off) % n
		b := &c.banks[i]
		if b.pending() == 0 || b.readyAt > now {
			continue
		}
		if refWindowHit(b, window) >= 0 {
			return i, (i + 1) % n, 0, true
		}
		if fallback < 0 {
			fallback = i
		}
	}
	if fallback >= 0 {
		return fallback, (fallback + 1) % n, 0, true
	}
	for i := range c.banks {
		b := &c.banks[i]
		if b.pending() == 0 {
			continue
		}
		at := b.readyAt
		if at < now {
			at = now
		}
		if !queued || at < wake {
			wake, queued = at, true
		}
	}
	return -1, rr, wake, queued
}

// refWindowHit returns the absolute index of the oldest row hit in the
// bank's scheduler window, or -1.
func refWindowHit(b *bank, window int) int {
	for i := b.head; i < len(b.queue) && i < b.head+window; i++ {
		if b.queue[i].row == b.openRow {
			return i
		}
	}
	return -1
}

// checkSchedulerState recounts every bank's window hits, the pending-bank
// mask and the queued counts by brute force. It also returns the deepest
// bank queue.
func checkSchedulerState(d *DRAM, window int) (deepest int, err error) {
	for _, c := range d.chans {
		queued := 0
		for i := range c.banks {
			b := &c.banks[i]
			hits := 0
			for j := b.head; j < len(b.queue) && j < b.head+window; j++ {
				if b.queue[j].row == b.openRow {
					hits++
				}
			}
			if b.hits != hits {
				return 0, fmt.Errorf("ch %d bank %d: hit count %d, recount %d", c.id, i, b.hits, hits)
			}
			if set := c.pending[i>>6]&(1<<uint(i&63)) != 0; set != (b.pending() > 0) {
				return 0, fmt.Errorf("ch %d bank %d: pending bit %v with %d queued", c.id, i, set, b.pending())
			}
			queued += b.pending()
			deepest = max(deepest, b.pending())
		}
		if c.queued != queued {
			return 0, fmt.Errorf("ch %d: queued count %d, recount %d", c.id, c.queued, queued)
		}
	}
	return deepest, nil
}

// addrOf inverts route: the address of a 32-byte-aligned offset within a
// row of a bank of a channel.
func addrOf(cfg Config, ch, bk int, row int64, off int) uint64 {
	chanAddr := (uint64(row)*uint64(cfg.BanksPerChannel)+uint64(bk))*uint64(cfg.RowBytes) + uint64(off)
	stripe := chanAddr / uint64(cfg.ChannelInterleaveBytes)
	return (stripe*uint64(cfg.Channels)+uint64(ch))*uint64(cfg.ChannelInterleaveBytes) +
		chanAddr%uint64(cfg.ChannelInterleaveBytes)
}

type queued struct {
	addr    uint64
	bytes   int32
	arrival sim.Cycle
}

func snapshotQueue(b *bank) []queued {
	var out []queued
	for i := b.head; i < len(b.queue); i++ {
		out = append(out, queued{b.queue[i].addr, b.queue[i].bytes, b.queue[i].arrival})
	}
	return out
}

// TestSchedulerMatchesReferenceScan drives randomized submit streams —
// refresh on, a window smaller than the queues, a few rows per bank so
// rows repeat and conflict — calling service directly. At every step it
// checks that the hit counts and pending mask match a brute-force recount
// and that the bank and request chosen match the scanning scheduler's.
// The 70-bank case spans two mask words.
func TestSchedulerMatchesReferenceScan(t *testing.T) {
	for _, tc := range []struct {
		banks, window int
	}{
		{4, 3},
		{16, 16},
		{70, 5},
	} {
		t.Run(fmt.Sprintf("banks%d-window%d", tc.banks, tc.window), func(t *testing.T) {
			cfg := testConfig()
			cfg.BanksPerChannel = tc.banks
			cfg.SchedulerWindow = tc.window
			cfg.TREFI, cfg.TRFC = 400, 60
			eng := sim.NewEngine()
			d := New(eng, cfg)
			rng := rand.New(rand.NewSource(int64(tc.banks)))
			var now sim.Cycle
			var hot [3]int
			picks, hits, deepest, drained := 0, 0, 0, map[int]bool{}
			for step := 0; step < 20000; step++ {
				// Alternate bursts on three hot banks with lulls, so
				// queues both run deeper than the window and drain empty.
				burst := 0
				switch phase := step % 1200; {
				case phase == 0:
					for i := range hot {
						hot[i] = rng.Intn(tc.banks)
					}
				case phase < 200:
					burst = rng.Intn(4)
				}
				for k := burst; k > 0; k-- {
					ch, bk, row := rng.Intn(cfg.Channels), hot[rng.Intn(len(hot))], int64(rng.Intn(3))
					addr := addrOf(cfg, ch, bk, row, rng.Intn(cfg.RowBytes/32)*32)
					if gc, gb, gr := d.route(addr); gc != ch || gb != bk || gr != row {
						t.Fatalf("addrOf(%d, %d, %d) routes to (%d, %d, %d)", ch, bk, row, gc, gb, gr)
					}
					d.Submit(now, mem.Request{Addr: addr, Bytes: 32 << rng.Intn(2)})
				}
				depth, err := checkSchedulerState(d, tc.window)
				if err != nil {
					t.Fatalf("step %d after submit: %v", step, err)
				}
				deepest = max(deepest, depth)
				c := d.chans[rng.Intn(len(d.chans))]
				// service refreshes first; doing it here lets the reference
				// see the post-refresh state (service's own call is then a
				// no-op).
				d.maybeRefresh(c, now)
				wantBank, wantRR, wantWake, anyQueued := refPickBank(c, tc.window, now)
				probe := *c
				gotBank, gotWake := d.pickBank(&probe, now)
				if gotBank != wantBank || probe.rr != wantRR {
					t.Fatalf("step %d: picked bank %d (rr %d), reference scan picked %d (rr %d)",
						step, gotBank, probe.rr, wantBank, wantRR)
				}
				if gotBank < 0 && anyQueued && gotWake != wantWake {
					t.Fatalf("step %d: wake %d, reference %d", step, gotWake, wantWake)
				}
				var want []queued
				if wantBank >= 0 {
					b := &c.banks[wantBank]
					idx := refWindowHit(b, tc.window)
					if idx < 0 {
						idx = b.head
					} else {
						hits++
					}
					want = snapshotQueue(b)
					want = append(want[:idx-b.head], want[idx-b.head+1:]...)
					picks++
				}
				d.service(c, now)
				if wantBank >= 0 {
					got := snapshotQueue(&c.banks[wantBank])
					if !slices.Equal(got, want) {
						t.Fatalf("step %d: bank %d queue after service\n got %v\nwant %v", step, wantBank, got, want)
					}
					if len(got) == 0 {
						drained[wantBank] = true
					}
				}
				if _, err := checkSchedulerState(d, tc.window); err != nil {
					t.Fatalf("step %d after service: %v", step, err)
				}
				now += sim.Cycle(rng.Intn(8))
			}
			highDrained := false
			for bk := range drained {
				highDrained = highDrained || bk >= 64
			}
			if hits == 0 || hits == picks || deepest <= 2*tc.window || d.Stats.Get("refreshes") == 0 ||
				tc.banks > 64 && !highDrained {
				t.Fatalf("stream too tame: %d picks, %d row hits, deepest queue %d, %d refreshes, banks drained %v",
					picks, hits, deepest, d.Stats.Get("refreshes"), drained)
			}
		})
	}
}
