package gpu

import (
	"testing"

	"cachecraft/internal/protect"
)

// TestBankRouterCacheSideContract exercises the machine's CacheSide
// adapter against real banks: presence, pending visibility, inserts, and
// dirty marking — the surface the protection controllers program against.
func TestBankRouterCacheSideContract(t *testing.T) {
	m := buildMachine(t, protect.NewInlineNaive)
	var side protect.CacheSide = (*bankRouter)(m)

	addr := uint64(64) // sector 2 of line 0 → bank 0
	if side.Present(addr) {
		t.Fatal("empty cache reports presence")
	}
	side.Insert(0, addr, false)
	if !side.Present(addr) {
		t.Fatal("inserted sector absent")
	}
	side.MarkDirty(addr)
	if m.banks[0].cache.DirtyMask(0) == 0 {
		t.Fatal("MarkDirty did not stick")
	}

	// Pending visibility: a miss enqueued in the bank MSHR is pending
	// until its fill arrives.
	missAddr := uint64(4096 * uint64(m.cfg.L2Banks)) // line in bank 0, different set region
	missLine := m.banks[0].cache.LineAddr(missAddr)
	if m.bankIndexFor(missLine) != 0 {
		t.Fatalf("test address routes to bank %d", m.bankIndexFor(missLine))
	}
	issueLine(m, 0, missLine, 0b0001, 32, false)
	if !m.eng.RunUntil(1<<24, func() bool { return side.Pending(missLine) }) {
		t.Fatal("in-flight miss not visible as pending")
	}
	m.eng.Run(1 << 24)
	if side.Pending(missLine) {
		t.Fatal("still pending after fill")
	}
	if !side.Present(missLine) {
		t.Fatal("filled sector absent")
	}
}

// TestRedTagRoutingConsistent: a redundancy address routes to the same
// bank as its tag-stripped form, so RedTag-space lines spread like data.
func TestRedTagRoutingConsistent(t *testing.T) {
	m := buildMachine(t, protect.NewECCCache)
	for a := uint64(0); a < 1<<16; a += 128 {
		if m.bankIndexFor(a) != m.bankIndexFor(protect.RedTag|a) {
			t.Fatalf("addr %#x routes differently with RedTag", a)
		}
	}
}

// TestInsertEvictionFlowsToControllerWriteback: inserting into a full set
// evicts; dirty victims must reach the scheme as writebacks.
func TestInsertEvictionFlowsToControllerWriteback(t *testing.T) {
	m := buildMachine(t, protect.NewNone)
	b := m.banks[0]
	cfg := m.cfg.L2 // as newL2Bank sizes each bank's slice
	cfg.SizeBytes /= m.cfg.L2Banks
	// Fill one set beyond capacity with dirty lines. Consecutive bank-0
	// lines that share a set: stride = sets*lineBytes*banks.
	sets := cfg.SizeBytes / (cfg.LineBytes * cfg.Ways)
	stride := uint64(sets * cfg.LineBytes * m.cfg.L2Banks)
	before := m.dram.Stats.Get("bytes_writeback")
	for i := 0; i <= cfg.Ways; i++ {
		b.fill(0, uint64(i)*stride, 0b0001, 0b0001)
	}
	m.eng.Run(1 << 24)
	if m.dram.Stats.Get("bytes_writeback") == before {
		// Hashed sets may spread the stride; fall back to brute-force
		// filling many lines until an eviction happens.
		for i := 0; i < sets*cfg.Ways*2; i++ {
			b.fill(0, uint64(i)*uint64(cfg.LineBytes)*uint64(m.cfg.L2Banks), 0b0001, 0b0001)
		}
		m.eng.Run(1 << 24)
		if m.dram.Stats.Get("bytes_writeback") == before {
			t.Fatal("dirty evictions never reached the controller")
		}
	}
}
