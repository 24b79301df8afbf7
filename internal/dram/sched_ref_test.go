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
// did before it kept packed ready cycles, hit and pending-bank masks: visit
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
		if b.pending() == 0 || c.readyAt[i] > now {
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
		at := c.readyAt[i]
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

// readyShadow is a Hook that recomputes every bank's ready cycle from the
// scheduler's own reports: a dispatch makes the bank ready one burst after
// its column command (at once on a row hit, after an activate on a closed
// bank, after a precharge and activate on a conflict), and a refresh holds
// every bank of the channel until it ends.
type readyShadow struct {
	cfg         Config
	readyAt     [][]sim.Cycle // [channel][bank]
	nextRefresh []sim.Cycle
}

func newReadyShadow(cfg Config) *readyShadow {
	s := &readyShadow{cfg: cfg}
	for ch := 0; ch < cfg.Channels; ch++ {
		s.readyAt = append(s.readyAt, make([]sim.Cycle, cfg.BanksPerChannel))
		s.nextRefresh = append(s.nextRefresh, cfg.TREFI)
	}
	return s
}

func (s *readyShadow) Submitted(sim.Cycle, mem.Request, int, int, int64) {}

func (s *readyShadow) Serviced(now sim.Cycle, req mem.Request, ch, bk int, row, openBefore int64, _ sim.Cycle) {
	col := now
	switch {
	case openBefore == row:
	case openBefore < 0:
		col += s.cfg.TRCD
	default:
		col += s.cfg.TRP + s.cfg.TRCD
	}
	s.readyAt[ch][bk] = col + s.cfg.TBurst*sim.Cycle(max(1, (req.Bytes+31)/32))
}

func (s *readyShadow) Refreshed(_ sim.Cycle, ch int) {
	end := s.nextRefresh[ch] + s.cfg.TRFC
	for bk := range s.readyAt[ch] {
		s.readyAt[ch][bk] = max(s.readyAt[ch][bk], end)
	}
	s.nextRefresh[ch] += s.cfg.TREFI
}

// checkSchedulerState recounts by brute force every bank's window hits
// (against the hit mask), the pending-bank mask and the queued counts, and
// compares the packed ready cycles with shadow's. It also returns the
// deepest bank queue.
func checkSchedulerState(d *DRAM, window int, shadow *readyShadow) (deepest int, err error) {
	for _, c := range d.chans {
		queued := 0
		if len(c.readyAt) != len(c.banks) {
			return 0, fmt.Errorf("ch %d: %d ready cycles for %d banks", c.id, len(c.readyAt), len(c.banks))
		}
		for i := range c.banks {
			b := &c.banks[i]
			hits := 0
			for j := b.head; j < len(b.queue) && j < b.head+window; j++ {
				if b.queue[j].row == b.openRow {
					hits++
				}
			}
			if set := c.hit&(1<<uint(i)) != 0; set != (hits > 0) {
				return 0, fmt.Errorf("ch %d bank %d: hit bit %v, recount %d hits", c.id, i, set, hits)
			}
			if set := c.pending&(1<<uint(i)) != 0; set != (b.pending() > 0) {
				return 0, fmt.Errorf("ch %d bank %d: pending bit %v with %d queued", c.id, i, set, b.pending())
			}
			if got, want := c.readyAt[i], shadow.readyAt[c.id][i]; got != want {
				return 0, fmt.Errorf("ch %d bank %d: ready at %d, shadow %d", c.id, i, got, want)
			}
			queued += b.pending()
			deepest = max(deepest, b.pending())
		}
		if n := len(c.banks); n < 64 && (c.pending|c.hit)>>uint(n) != 0 {
			return 0, fmt.Errorf("ch %d: mask bits past bank %d", c.id, len(c.banks)-1)
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

// checkedService runs one scheduling step on c at now, checking that
// pickBank chooses the bank, round-robin pointer and wake cycle of the
// reference scan, that service dequeues the reference's request, and that
// the packed state matches a brute-force recount afterwards. It reports
// the bank served (-1 for none), whether the request was a window row hit,
// and whether the bank's queue drained.
func checkedService(d *DRAM, c *channel, window int, now sim.Cycle, shadow *readyShadow) (bk int, hit, drained bool, err error) {
	// service refreshes first; doing it here lets the reference see the
	// post-refresh state (service's own call is then a no-op).
	d.maybeRefresh(c, now)
	if _, err := checkSchedulerState(d, window, shadow); err != nil {
		return 0, false, false, fmt.Errorf("after refresh: %v", err)
	}
	wantBank, wantRR, wantWake, anyQueued := refPickBank(c, window, now)
	probe := *c
	gotBank, gotWake := d.pickBank(&probe, now)
	if gotBank != wantBank || probe.rr != wantRR {
		return 0, false, false, fmt.Errorf("picked bank %d (rr %d), reference scan picked %d (rr %d)",
			gotBank, probe.rr, wantBank, wantRR)
	}
	if gotBank < 0 && anyQueued && gotWake != wantWake {
		return 0, false, false, fmt.Errorf("wake %d, reference %d", gotWake, wantWake)
	}
	var want []queued
	if wantBank >= 0 {
		b := &c.banks[wantBank]
		idx := refWindowHit(b, window)
		hit = idx >= 0
		if !hit {
			idx = b.head
		}
		want = snapshotQueue(b)
		want = append(want[:idx-b.head], want[idx-b.head+1:]...)
	}
	d.service(c, now)
	if wantBank >= 0 {
		got := snapshotQueue(&c.banks[wantBank])
		if !slices.Equal(got, want) {
			return 0, false, false, fmt.Errorf("bank %d queue after service\n got %v\nwant %v", wantBank, got, want)
		}
		drained = len(got) == 0
	}
	if _, err := checkSchedulerState(d, window, shadow); err != nil {
		return 0, false, false, fmt.Errorf("after service: %v", err)
	}
	return wantBank, hit, drained, nil
}

// TestSchedulerMatchesReferenceScan drives randomized submit streams —
// refresh on, a window smaller than the queues, a few rows per bank so
// rows repeat and conflict — calling service directly. At every step it
// checks that the hit mask, ready cycles and pending mask match a
// brute-force recount and that the bank and request chosen match the
// scanning scheduler's. The 64-bank case fills the mask word, so the
// round-robin pointer wraps at bit 63.
func TestSchedulerMatchesReferenceScan(t *testing.T) {
	for _, tc := range []struct {
		banks, window int
	}{
		{4, 3},
		{16, 16},
		{64, 5},
	} {
		t.Run(fmt.Sprintf("banks%d-window%d", tc.banks, tc.window), func(t *testing.T) {
			cfg := testConfig()
			cfg.BanksPerChannel = tc.banks
			cfg.SchedulerWindow = tc.window
			cfg.TREFI, cfg.TRFC = 400, 60
			eng := sim.NewEngine()
			d := New(eng, cfg)
			shadow := newReadyShadow(cfg)
			d.SetHook(shadow)
			rng := rand.New(rand.NewSource(int64(tc.banks)))
			var now sim.Cycle
			var hot [3]int
			picks, hits, deepest, drained := 0, 0, 0, map[int]bool{}
			for step := 0; step < 20000; step++ {
				// Alternate bursts on three hot banks with lulls, so
				// queues both run deeper than the window and drain empty.
				// The first burst includes the last bank, where the
				// round-robin pointer wraps.
				burst := 0
				switch phase := step % 1200; {
				case phase == 0:
					for i := range hot {
						hot[i] = rng.Intn(tc.banks)
					}
					if step == 0 {
						hot[0] = tc.banks - 1
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
				depth, err := checkSchedulerState(d, tc.window, shadow)
				if err != nil {
					t.Fatalf("step %d after submit: %v", step, err)
				}
				deepest = max(deepest, depth)
				bk, hit, emptied, err := checkedService(d, d.chans[rng.Intn(len(d.chans))], tc.window, now, shadow)
				if err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if bk >= 0 {
					picks++
					if hit {
						hits++
					}
					if emptied {
						drained[bk] = true
					}
				}
				now += sim.Cycle(rng.Intn(8))
			}
			if hits == 0 || hits == picks || deepest <= 2*tc.window || d.Stats.Get("refreshes") == 0 ||
				!drained[tc.banks-1] {
				t.Fatalf("stream too tame: %d picks, %d row hits, deepest queue %d, %d refreshes, banks drained %v",
					picks, hits, deepest, d.Stats.Get("refreshes"), drained)
			}
		})
	}
}

// FuzzScheduler drives the scheduler with a byte stream. The first two
// bytes pick 1–64 banks per channel and a window of 1–16; each later byte
// is one operation on one of two channels — a submit (bank, one of four
// rows, 32 or 64 bytes, from the next byte), a service, or a jump to the
// channel's next refresh followed by a service — and advances time by 0–7
// cycles. After every operation the packed state must match a brute-force
// recount, and every service must match the reference scan.
func FuzzScheduler(f *testing.F) {
	f.Add([]byte{3, 2, 0x00, 0x10, 0x04, 0x00, 0x11, 0x05, 0x02, 0x06, 0x03, 0x02})
	f.Add([]byte{63, 4, 0x00, 0xff, 0x00, 0x41, 0x04, 0x7f, 0x02, 0x06, 0x0a, 0x03, 0x06})
	f.Add([]byte{0, 0, 0x00, 0x00, 0x00, 0x00, 0x02, 0x03, 0x02})
	f.Add([]byte{15, 15, 0x08, 0x21, 0x08, 0x22, 0x08, 0x21, 0x02, 0x0a, 0x02, 0x0b, 0x07, 0x02})
	// 64 banks: a row hit on bank 3 must win over ready bank 62 although
	// the round-robin pointer, left at 61 by a pick of bank 60, has
	// passed it.
	f.Add([]byte{63, 4, 0x00, 3, 0x00, 3, 0x02, 0x00, 60, 0x00, 124, 0x00, 62, 0xe6, 0xe6, 0xe6, 0xe2, 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		cfg := testConfig()
		cfg.BanksPerChannel = 1 + int(data[0])%64
		cfg.SchedulerWindow = 1 + int(data[1])%16
		cfg.TREFI, cfg.TRFC = 400, 60
		window := cfg.SchedulerWindow
		d := New(sim.NewEngine(), cfg)
		shadow := newReadyShadow(cfg)
		d.SetHook(shadow)
		var now sim.Cycle
		for i := 2; i < len(data); i++ {
			op := data[i]
			c := d.chans[int(op>>2&1)]
			var err error
			switch op & 3 {
			case 0, 1: // submit
				var arg byte
				if i+1 < len(data) {
					i++
					arg = data[i]
				}
				bk, row := int(arg)%cfg.BanksPerChannel, int64(arg>>6)
				d.Submit(now, mem.Request{Addr: addrOf(cfg, c.id, bk, row, 0), Bytes: 32 << (op & 1)})
				_, err = checkSchedulerState(d, window, shadow)
			case 2: // service
				_, _, _, err = checkedService(d, c, window, now, shadow)
			case 3: // refresh, then service
				now = max(now, c.nextRefresh)
				_, _, _, err = checkedService(d, c, window, now, shadow)
			}
			if err != nil {
				t.Fatalf("op %d (byte %#x) at cycle %d: %v", i, op, now, err)
			}
			now += sim.Cycle(op >> 5)
		}
	})
}
