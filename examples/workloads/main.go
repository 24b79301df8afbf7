// Workload study: compare how a regular tiled kernel (gemm) and an
// irregular graph traversal (bfs) respond to memory protection, and sweep
// CacheCraft's redundancy-cache capacity on the workload where it matters.
//
//	go run ./examples/workloads
package main

import (
	"fmt"
	"log"

	"cachecraft"
)

func main() {
	cfg := cachecraft.QuickConfig()

	fmt.Println("=== regular (gemm) vs irregular (bfs) under protection ===")
	for _, wl := range []string{"gemm", "bfs"} {
		var baseline float64
		fmt.Printf("\n%s:\n", wl)
		for _, scheme := range cachecraft.Schemes() {
			res, err := cachecraft.Run(cfg, wl, scheme)
			if err != nil {
				log.Fatal(err)
			}
			if scheme == "none" {
				baseline = float64(res.Cycles)
			}
			fmt.Printf("  %-13s perf vs no-ECC %.3f   redundancy bytes %8d   L2 hit %.2f\n",
				scheme, baseline/float64(res.Cycles),
				res.DRAMBytes["redundancy"], res.L2HitRate)
		}
	}

	fmt.Println("\n=== CacheCraft RC capacity sweep on histogram (write-heavy) ===")
	noneRes, err := cachecraft.Run(cfg, "histogram", "none")
	if err != nil {
		log.Fatal(err)
	}
	for _, kb := range []int{16, 64, 256} {
		opt := cachecraft.DefaultOptions()
		opt.RCSizeBytes = kb << 10
		res, err := cachecraft.Run(cfg, "histogram", "cachecraft", cachecraft.WithCacheCraft(opt))
		if err != nil {
			log.Fatal(err)
		}
		rcHits := res.ControllerSt.Get("red_rc_hits") + res.ControllerSt.Get("red_wb_rc_hits")
		lookups := rcHits + res.ControllerSt.Get("red_reads_dram") + res.ControllerSt.Get("red_rmw")
		hitRate := 0.0
		if lookups > 0 {
			hitRate = float64(rcHits) / float64(lookups)
		}
		fmt.Printf("  RC %4d KiB: perf vs no-ECC %.3f   RC hit rate %.2f\n",
			kb, float64(noneRes.Cycles)/float64(res.Cycles), hitRate)
	}
}
