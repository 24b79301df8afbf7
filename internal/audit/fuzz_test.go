package audit_test

import (
	"context"
	"math/bits"
	"reflect"
	"testing"

	cachecraft "cachecraft"
	"cachecraft/internal/config"
	"cachecraft/internal/gpu"
	"cachecraft/internal/mem"
	"cachecraft/internal/protect"
	"cachecraft/internal/schemes"
	"cachecraft/internal/sim"
	"cachecraft/internal/trace"
)

// rmwFetchCounter passes every call through to the scheme it wraps and
// counts the data sectors the L2 asks it to fetch before partial-sector
// writes (ReadMiss with class RMW) — the calls the audit layer sees as
// ReadMissIssued. Each such sector becomes one RMW-class DRAM read.
type rmwFetchCounter struct {
	protect.Scheme
	lineMask uint64
	sectors  uint64
}

func (c *rmwFetchCounter) ReadMiss(now sim.Cycle, lineAddr, mask uint64, class mem.Class, done func(sim.Cycle)) {
	if class == mem.RMW {
		c.sectors += uint64(bits.OnesCount64(mask & c.lineMask))
	}
	c.Scheme.ReadMiss(now, lineAddr, mask, class, done)
}

// fuzzConfig derives a small-but-adversarial configuration from raw fuzz
// bytes: few SMs, a short access budget, and a deliberately tight L2 MSHR
// pool so allocation stalls and the parked-request path are exercised.
// DecodeLat and ErrorRatePPM are pinned to zero so the none/ideal
// cycle-agreement oracle applies.
func fuzzConfig(seed int64, smSel uint8, accSel uint16, mshrSel uint8) config.GPU {
	cfg := config.Quick()
	cfg.NumSMs = 1 + int(smSel)%3
	cfg.AccessesPerSM = 60 + int(accSel)%240
	cfg.Seed = seed
	cfg.L2MSHRs = 2 + int(mshrSel)%4
	cfg.DecodeLat = 0
	cfg.ErrorRatePPM = 0
	return cfg
}

// FuzzSim generates random small configurations × workload seeds, runs
// every registered scheme (plus the ideal bound) under the invariant
// checker, and cross-validates the results against analytical oracles:
//
//   - any audit violation fails the input outright (an audited Run errors);
//   - protection equivalence (DESIGN.md §6): every scheme retires the
//     same instruction count, since protection may cost cycles but never
//     work;
//   - none must produce zero redundancy-side DRAM traffic;
//   - inline-naive's redundancy traffic must equal its redundancy-block
//     fetch count (one per demand read miss, plus one per writeback RMW)
//     times the redundancy-block size — the closed form the paper's
//     problem statement rests on — and its rmw traffic must equal one
//     redundancy block per writeback RMW plus one sector per data sector
//     fetched before a partial-sector write;
//   - with decode latency and error injection both zero, the ideal bound
//     must agree with the unprotected baseline cycle-for-cycle whenever
//     the workload triggers no partial-write fetches (the one cost even
//     free redundancy cannot remove);
//   - an identical input must reproduce an identical result.
func FuzzSim(f *testing.F) {
	f.Add(int64(1), uint8(0), uint16(0), uint8(0))
	f.Add(int64(42), uint8(1), uint16(100), uint8(3))
	f.Add(int64(-7), uint8(2), uint16(200), uint8(1))
	f.Add(int64(7919), uint8(5), uint16(999), uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, smSel uint8, accSel uint16, mshrSel uint8) {
		cfg := fuzzConfig(seed, smSel, accSel, mshrSel)
		names := trace.Names()
		// One workload per input keeps each execution fast; the selector
		// byte rides in accSel's high bits so the fuzzer can reach all of
		// them.
		wl := names[int(accSel>>8)%len(names)]

		results := make(map[string]gpu.Result)
		rmwFetch := &rmwFetchCounter{lineMask: uint64(1)<<cfg.Geometry.SectorsPerLine() - 1}
		for _, s := range schemes.Names() {
			var res gpu.Result
			var err error
			if s == "inline-naive" {
				// The rmw oracle needs the partial-write fetch count, which
				// the result does not carry; count it at the scheme.
				res, err = gpu.Simulate(context.Background(), cfg, wl, s, func(env *protect.Env) protect.Scheme {
					rmwFetch.Scheme = protect.NewInlineNaive(env)
					return rmwFetch
				}, nil, gpu.Observers{Audit: true})
			} else {
				res, err = cachecraft.Run(cfg, wl, s, cachecraft.WithAudit())
			}
			if err != nil {
				t.Fatalf("%s/%s: %v", wl, s, err)
			}
			results[s] = res
		}

		none := results["none"]
		for s, res := range results {
			if res.Instructions != none.Instructions {
				t.Fatalf("%s/%s retired %d instructions, none retired %d",
					wl, s, res.Instructions, none.Instructions)
			}
		}
		for _, class := range []string{"redundancy", "rmw", "reconstruct"} {
			if none.DRAMBytes[class] != 0 {
				t.Fatalf("%s/none: %d bytes of %s traffic in the unprotected baseline",
					wl, none.DRAMBytes[class], class)
			}
		}

		naive := results["inline-naive"]
		redBlk := uint64(cfg.Geometry.RedBlockBytes)
		redReads := naive.ControllerSt.Get("red_reads_dram")
		redRMWs := naive.ControllerSt.Get("red_rmw")
		if redReads == 0 {
			t.Fatalf("%s/inline-naive: no redundancy-block reads despite demand misses", wl)
		}
		// Every RMW read is followed by exactly one redundancy-block write,
		// so redundancy-class bytes = (reads + RMW writebacks) × block size.
		if got, want := naive.DRAMBytes["redundancy"], (redReads+redRMWs)*redBlk; got != want {
			t.Fatalf("%s/inline-naive: redundancy bytes = %d, want (%d reads + %d rmws) × %d = %d",
				wl, got, redReads, redRMWs, redBlk, want)
		}
		sector := uint64(cfg.Geometry.SectorBytes)
		if got, want := naive.DRAMBytes["rmw"], redRMWs*redBlk+rmwFetch.sectors*sector; got != want {
			t.Fatalf("%s/inline-naive: rmw bytes = %d, want %d rmws × %d + %d partial-write sector fetches × %d = %d",
				wl, got, redRMWs, redBlk, rmwFetch.sectors, sector, want)
		}

		ideal := results["ideal"]
		if ideal.Machine.Get("l2_rmw_fetches") == 0 && ideal.Cycles != none.Cycles {
			t.Fatalf("%s: ideal (free redundancy, zero decode, no rmw fetches) took %d cycles, none took %d",
				wl, ideal.Cycles, none.Cycles)
		}

		again, err := cachecraft.Run(cfg, wl, "cachecraft", cachecraft.WithAudit())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(results["cachecraft"], again) {
			t.Fatalf("%s/cachecraft: two runs of one input differ:\n%+v\nvs\n%+v",
				wl, results["cachecraft"], again)
		}
	})
}
