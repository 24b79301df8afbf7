// Package config holds the simulated GPU configuration (the evaluation's
// Table 1) and named presets used by the benchmark harness.
package config

import (
	"fmt"

	"cachecraft/internal/cache"
	"cachecraft/internal/dram"
	"cachecraft/internal/layout"
	"cachecraft/internal/sim"
)

// GPU is the full machine configuration.
type GPU struct {
	// Cores.
	NumSMs         int
	MaxOutstanding int // in-flight warp accesses per SM
	L1             cache.Config
	L1Latency      sim.Cycle

	// Interconnect: per-endpoint port bandwidth plus a shared bisection
	// limit per direction.
	XbarPortBytesPerCycle int
	XbarReqBytesPerCycle  int
	XbarRespBytesPerCycle int
	XbarLatency           sim.Cycle

	// Shared L2.
	L2        cache.Config // aggregate size; split evenly across banks
	L2Banks   int
	L2MSHRs   int // per bank
	L2Latency sim.Cycle

	// Memory and protection.
	DRAM        dram.Config
	MemoryBytes uint64
	Geometry    layout.Geometry
	Layout      string // "linear" or "row-local"
	DecodeLat   sim.Cycle
	// ErrorRatePPM injects deterministic correctable errors into protected
	// decodes (per million granules); ErrorPenalty is the extra latency
	// each costs. Zero disables injection.
	ErrorRatePPM int
	ErrorPenalty sim.Cycle

	// Workload sizing.
	AccessesPerSM  int
	FootprintBytes uint64
	Seed           int64

	// Safety valve for the event loop.
	MaxCycles sim.Cycle
}

// Default is the evaluation's baseline configuration (Table 1): a
// mid-size GDDR6 GPU with 16 SMs, 2 MiB sectored L2, and a 1/8 inline-ECC
// carve-out.
func Default() GPU {
	return GPU{
		NumSMs:         16,
		MaxOutstanding: 24,
		L1: cache.Config{
			Name:        "l1",
			SizeBytes:   32 << 10,
			Ways:        4,
			LineBytes:   128,
			SectorBytes: 32,
			Repl:        cache.LRU,
		},
		L1Latency: 28,

		XbarPortBytesPerCycle: 64,
		XbarReqBytesPerCycle:  256,
		XbarRespBytesPerCycle: 256,
		XbarLatency:           20,

		L2: cache.Config{
			Name:        "l2",
			SizeBytes:   2 << 20,
			Ways:        16,
			LineBytes:   128,
			SectorBytes: 32,
			Repl:        cache.LRU,
			HashSets:    true,
		},
		L2Banks:   8,
		L2MSHRs:   48,
		L2Latency: 90,

		DRAM:        dram.DefaultConfig(),
		MemoryBytes: 256 << 20,
		Geometry:    layout.DefaultGeometry(),
		Layout:      "linear",
		DecodeLat:   8,

		AccessesPerSM:  2000,
		FootprintBytes: 48 << 20,
		Seed:           42,

		MaxCycles: 50_000_000,
	}
}

// Upper bounds on the machine's sizes, far over every shipped config and
// experiment (16 SMs, 24 accesses in flight per SM, 8 L2 banks, 48 MSHRs
// per bank): a machine allocates its SMs, L2 banks and MSHRs up front.
// All L1s together, like the whole L2, hold at most cache.MaxSizeBytes.
const (
	MaxNumSMs      = 1024
	MaxOutstanding = 4096
	MaxL2Banks     = 256
	MaxMSHRs       = 4096
)

// Validate checks the configuration for consistency.
func (g GPU) Validate() error {
	switch {
	case g.NumSMs <= 0 || g.MaxOutstanding <= 0:
		return fmt.Errorf("config: SM parameters must be positive")
	case g.NumSMs > MaxNumSMs:
		return fmt.Errorf("config: %d SMs exceeds %d", g.NumSMs, MaxNumSMs)
	case g.MaxOutstanding > MaxOutstanding:
		return fmt.Errorf("config: %d outstanding accesses per SM exceeds %d", g.MaxOutstanding, MaxOutstanding)
	case g.L2Banks <= 0 || g.L2.SizeBytes%g.L2Banks != 0:
		return fmt.Errorf("config: L2 size %d not divisible by %d banks", g.L2.SizeBytes, g.L2Banks)
	case g.L2Banks > MaxL2Banks:
		return fmt.Errorf("config: %d L2 banks exceeds %d", g.L2Banks, MaxL2Banks)
	case g.L2.SizeBytes > cache.MaxSizeBytes:
		return fmt.Errorf("config: L2 size %d exceeds %d", g.L2.SizeBytes, cache.MaxSizeBytes)
	case g.L1.SizeBytes > cache.MaxSizeBytes/g.NumSMs:
		return fmt.Errorf("config: %d L1s of %d bytes exceed %d in all", g.NumSMs, g.L1.SizeBytes, cache.MaxSizeBytes)
	case g.L2MSHRs > MaxMSHRs:
		return fmt.Errorf("config: %d L2 MSHRs per bank exceeds %d", g.L2MSHRs, MaxMSHRs)
	case g.Layout != "linear" && g.Layout != "row-local":
		return fmt.Errorf("config: unknown layout %q", g.Layout)
	case g.AccessesPerSM <= 0 || g.FootprintBytes == 0:
		return fmt.Errorf("config: workload sizing must be positive")
	case g.MaxCycles == 0:
		return fmt.Errorf("config: MaxCycles must be positive")
	case g.XbarPortBytesPerCycle <= 0:
		return fmt.Errorf("config: crossbar port bandwidth must be positive")
	case g.XbarReqBytesPerCycle < 0 || g.XbarRespBytesPerCycle < 0:
		return fmt.Errorf("config: crossbar bisection bandwidth must not be negative")
	case g.L2MSHRs <= 0:
		return fmt.Errorf("config: L2MSHRs must be positive")
	case g.L1.SectorBytes != g.Geometry.SectorBytes || g.L2.SectorBytes != g.Geometry.SectorBytes ||
		g.L1.LineBytes != g.Geometry.LineBytes || g.L2.LineBytes != g.Geometry.LineBytes:
		// The caches and the protection layout must agree on what a
		// sector and a line are, or misses fetch the wrong sectors.
		return fmt.Errorf("config: L1 %d/%dB, L2 %d/%dB and geometry %d/%dB sector/line sizes differ",
			g.L1.SectorBytes, g.L1.LineBytes, g.L2.SectorBytes, g.L2.LineBytes,
			g.Geometry.SectorBytes, g.Geometry.LineBytes)
	}
	if err := g.L1.Validate(); err != nil {
		return err
	}
	bank := g.L2
	bank.SizeBytes /= g.L2Banks
	if err := bank.Validate(); err != nil {
		return err
	}
	if err := g.DRAM.Validate(); err != nil {
		return err
	}
	if err := g.Geometry.Validate(); err != nil {
		return err
	}
	return nil
}

// BuildMapper constructs the inline-ECC layout the configuration names.
func (g GPU) BuildMapper() (layout.Mapper, error) {
	switch g.Layout {
	case "linear":
		return layout.NewLinearMapper(g.MemoryBytes, g.Geometry)
	case "row-local":
		return layout.NewRowLocalMapper(g.MemoryBytes, g.DRAM.RowBytes, g.Geometry)
	default:
		return nil, fmt.Errorf("config: unknown layout %q", g.Layout)
	}
}

// Quick returns a scaled-down configuration for unit tests: fewer SMs,
// fewer accesses, smaller footprint. Relative scheme behaviour is
// preserved; absolute numbers are not meaningful.
func Quick() GPU {
	g := Default()
	g.NumSMs = 4
	g.AccessesPerSM = 800
	g.FootprintBytes = 8 << 20
	g.MemoryBytes = 64 << 20
	g.L2.SizeBytes = 512 << 10
	return g
}
