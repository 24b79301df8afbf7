package config

import (
	"testing"

	"cachecraft/internal/cache"
)

func TestDefaultValidates(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := Quick().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatchesBadFields(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*GPU)
	}{
		{"zero SMs", func(g *GPU) { g.NumSMs = 0 }},
		{"zero outstanding", func(g *GPU) { g.MaxOutstanding = 0 }},
		{"l2 not divisible by banks", func(g *GPU) { g.L2Banks = 7 }},
		{"unknown layout", func(g *GPU) { g.Layout = "diagonal" }},
		{"zero accesses", func(g *GPU) { g.AccessesPerSM = 0 }},
		{"zero footprint", func(g *GPU) { g.FootprintBytes = 0 }},
		{"zero max cycles", func(g *GPU) { g.MaxCycles = 0 }},
		{"bad L1", func(g *GPU) { g.L1.LineBytes = 100 }},
		{"bad bank size", func(g *GPU) { g.L2.SizeBytes = 3 << 20 }}, // 3MiB/8 banks → 24576 sets? not pow2
		{"bad dram", func(g *GPU) { g.DRAM.Channels = 0 }},
		{"too many dram channels", func(g *GPU) { g.DRAM.Channels = 1 << 20 }},
		{"too many dram banks", func(g *GPU) { g.DRAM.BanksPerChannel = 1 << 30 }},
		{"dram banks past one mask word", func(g *GPU) { g.DRAM.BanksPerChannel = 70 }},
		{"huge L2", func(g *GPU) { g.L2.SizeBytes = 1 << 40 }},
		{"too many SMs", func(g *GPU) { g.NumSMs = 1 << 30 }},
		{"too many outstanding", func(g *GPU) { g.MaxOutstanding = MaxOutstanding + 1 }},
		{"too many L2 banks", func(g *GPU) { g.L2Banks = 2 * MaxL2Banks }},
		{"L1s too large together", func(g *GPU) { g.NumSMs, g.L1.SizeBytes = MaxNumSMs, 1<<20 }},
		{"too many L2 MSHRs", func(g *GPU) { g.L2MSHRs = MaxMSHRs + 1 }},
		{"too many L2 ways", func(g *GPU) { g.L2.Ways = 2 * cache.MaxWays }},
		{"32 L2 ways", func(g *GPU) { g.L2.Ways = 32 }},
		{"96B L1 line", func(g *GPU) { g.L1.LineBytes = 96 }},
		{"too deep a scheduler window", func(g *GPU) { g.DRAM.SchedulerWindow = 1 << 30 }},
		{"bad geometry", func(g *GPU) { g.Geometry.GranuleBytes = 100 }},
		{"geometry sector differs from caches", func(g *GPU) { g.Geometry.SectorBytes = 64 }},
		{"geometry line differs from caches", func(g *GPU) { g.Geometry.LineBytes, g.Geometry.GranuleBytes = 256, 512 }},
		{"L1 sector differs from geometry", func(g *GPU) { g.L1.SectorBytes = 64 }},
		{"L2 sector differs from geometry", func(g *GPU) { g.L2.SectorBytes = 64 }},
		{"L1 line differs from geometry", func(g *GPU) { g.L1.LineBytes = 256 }},
		{"L2 line differs from geometry", func(g *GPU) { g.L2.LineBytes = 256 }},
		{"zero L2 MSHRs", func(g *GPU) { g.L2MSHRs = 0 }},
		{"negative L2 MSHRs", func(g *GPU) { g.L2MSHRs = -1 }},
		{"negative xbar req bisection", func(g *GPU) { g.XbarReqBytesPerCycle = -1 }},
		{"negative xbar resp bisection", func(g *GPU) { g.XbarRespBytesPerCycle = -1 }},
	}
	for _, m := range mutations {
		g := Default()
		m.mut(&g)
		if err := g.Validate(); err == nil {
			t.Fatalf("%s: accepted", m.name)
		}
	}
}

func TestBuildMapperBothLayouts(t *testing.T) {
	g := Default()
	for _, lay := range []string{"linear", "row-local"} {
		g.Layout = lay
		m, err := g.BuildMapper()
		if err != nil {
			t.Fatalf("%s: %v", lay, err)
		}
		if m.Name() != lay {
			t.Fatalf("mapper %q for layout %q", m.Name(), lay)
		}
		if m.ProtectedBytes() < g.FootprintBytes {
			t.Fatalf("%s: protected %d < footprint %d", lay, m.ProtectedBytes(), g.FootprintBytes)
		}
	}
	g.Layout = "nope"
	if _, err := g.BuildMapper(); err == nil {
		t.Fatal("unknown layout accepted by BuildMapper")
	}
}

func TestQuickIsSmallerThanDefault(t *testing.T) {
	d, q := Default(), Quick()
	if q.NumSMs >= d.NumSMs || q.AccessesPerSM >= d.AccessesPerSM ||
		q.FootprintBytes >= d.FootprintBytes {
		t.Fatal("Quick must be strictly smaller than Default")
	}
}
