package xbar

import (
	"testing"

	"cachecraft/internal/sim"
)

func testConfig() Config {
	return Config{
		Sources:                4,
		Destinations:           8,
		PortBytesPerCycle:      32,
		BisectionBytesPerCycle: 128,
		Latency:                10,
	}
}

func TestValidate(t *testing.T) {
	if err := testConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := testConfig()
	bad.Sources = 0
	if bad.Validate() == nil {
		t.Fatal("zero sources accepted")
	}
	bad = testConfig()
	bad.PortBytesPerCycle = 0
	if bad.Validate() == nil {
		t.Fatal("zero port bandwidth accepted")
	}
	bad = testConfig()
	bad.BisectionBytesPerCycle = -1
	if bad.Validate() == nil {
		t.Fatal("negative bisection accepted")
	}
}

func TestSingleTransferLatency(t *testing.T) {
	x := New(testConfig())
	// 32B at 32B/cy: 1 cycle inject + 1 bisect... bisection continues from
	// the same byte-time, so the message finishes its last hop at cycle 1
	// and delivers at 1+latency.
	got := x.Transfer(0, 0, 0, 32)
	if got != 11 {
		t.Fatalf("delivery at %d, want 11", got)
	}
}

func TestHotDestinationSerializes(t *testing.T) {
	cfg := testConfig()
	cfg.BisectionBytesPerCycle = 0 // isolate the ejection port
	x := New(cfg)
	// All four sources target destination 0 with 32B: the ejection port
	// (32 B/cy) serializes them one per cycle.
	var last sim.Cycle
	for s := 0; s < 4; s++ {
		d := x.Transfer(0, s, 0, 32)
		if d <= last {
			t.Fatalf("source %d delivered at %d, not after %d", s, d, last)
		}
		last = d
	}
	if last != sim.Cycle(4)+cfg.Latency {
		t.Fatalf("last delivery %d, want %d", last, 4+int(cfg.Latency))
	}
}

func TestSpreadDestinationsRunParallel(t *testing.T) {
	cfg := testConfig()
	cfg.BisectionBytesPerCycle = 0
	x := New(cfg)
	// Different sources to different destinations: all deliver at the
	// single-message time.
	for s := 0; s < 4; s++ {
		if d := x.Transfer(0, s, s, 32); d != 1+cfg.Latency {
			t.Fatalf("source %d delivered at %d", s, d)
		}
	}
}

func TestBisectionCapsAggregate(t *testing.T) {
	cfg := testConfig()
	cfg.PortBytesPerCycle = 1 << 20 // ports effectively infinite
	cfg.BisectionBytesPerCycle = 64
	cfg.Latency = 0
	x := New(cfg)
	// 8 messages × 64B through a 64 B/cy fabric = 8 cycles of fabric time.
	var last sim.Cycle
	for i := 0; i < 8; i++ {
		last = x.Transfer(0, i%4, i%8, 64)
	}
	if last != 8 {
		t.Fatalf("last delivery %d, want 8 (bisection-bound)", last)
	}
}

func TestSingleSourceCannotExceedItsPort(t *testing.T) {
	cfg := testConfig()
	cfg.BisectionBytesPerCycle = 1 << 20
	x := New(cfg)
	var last sim.Cycle
	for i := 0; i < 4; i++ {
		last = x.Transfer(0, 0, i*2, 32) // distinct destinations
	}
	// 4×32B from one 32B/cy injection port = 4 cycles + latency.
	if last != sim.Cycle(4)+cfg.Latency {
		t.Fatalf("last = %d, want %d", last, 4+int(cfg.Latency))
	}
}

func TestPortTotals(t *testing.T) {
	x := New(testConfig())
	x.Transfer(0, 1, 2, 64)
	if x.TotalBytes() != 64 {
		t.Fatalf("total = %d", x.TotalBytes())
	}
	if b := x.inject[1].BusyBytes(); b != 64 {
		t.Fatalf("inject busy bytes = %d", b)
	}
	if b := x.eject[2].BusyBytes(); b != 64 {
		t.Fatalf("eject busy bytes = %d", b)
	}
	if b := x.inject[0].BusyBytes(); b != 0 {
		t.Fatalf("idle port busy bytes = %d", b)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	x := New(testConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range endpoint must panic")
		}
	}()
	x.Transfer(0, 99, 0, 32)
}
