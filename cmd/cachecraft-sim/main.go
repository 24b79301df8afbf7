// cachecraft-sim runs one (workload, protection-scheme) simulation on the
// configured GPU and prints timing, traffic, and controller statistics.
//
// Usage:
//
//	cachecraft-sim -workload spmv -scheme cachecraft
//	cachecraft-sim -workload histogram -scheme inline-naive -accesses 4000
//	cachecraft-sim -workload stream -scheme cachecraft -timeline run.json
//	cachecraft-sim -list
//
// With -timeline the run is sampled by the time-resolved probe layer and
// the probe tracks are written to the named file: ".json" gets Chrome
// trace-event JSON loadable at https://ui.perfetto.dev, any other
// extension gets NDJSON readable by cachecraft-report. The timeline is a
// side channel — stdout output is identical with or without it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"cachecraft"
	"cachecraft/internal/stats"
)

func main() {
	var (
		workload  = flag.String("workload", "stream", "workload name (see -list)")
		scheme    = flag.String("scheme", "cachecraft", "protection scheme (see -list)")
		accesses  = flag.Int("accesses", 0, "warp accesses per SM (0 = config default)")
		footprint = flag.Int64("footprint-mb", 0, "workload footprint in MiB (0 = default)")
		seed      = flag.Int64("seed", 0, "workload seed (0 = default)")
		l2MiB     = flag.Int("l2-mib", 0, "L2 capacity in MiB (0 = default)")
		layoutStr = flag.String("layout", "", "inline-ECC layout: linear or row-local (default from config)")
		quick     = flag.Bool("quick", false, "use the scaled-down test configuration")
		auditOn   = flag.Bool("audit", false, "run under the invariant-audit layer (fails on any violation)")
		timeline  = flag.String("timeline", "", "write a time-resolved probe timeline to this file (.json = Chrome trace events, else NDJSON)")
		tlWindow  = flag.Uint64("timeline-window", 1000, "probe sampling window in cycles for -timeline")
		list      = flag.Bool("list", false, "list workloads and schemes, then exit")
		verbose   = flag.Bool("v", false, "dump all counters")
		jsonOut   = flag.Bool("json", false, "emit the full result as JSON")
	)
	flag.Parse()

	if *list {
		fmt.Println("workloads:", strings.Join(cachecraft.Workloads(), " "))
		fmt.Println("schemes:  ", strings.Join(cachecraft.Schemes(), " "))
		return
	}

	cfg := cachecraft.DefaultConfig()
	if *quick {
		cfg = cachecraft.QuickConfig()
	}
	if *accesses > 0 {
		cfg.AccessesPerSM = *accesses
	}
	if *footprint > 0 {
		cfg.FootprintBytes = uint64(*footprint) << 20
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *l2MiB > 0 {
		cfg.L2.SizeBytes = *l2MiB << 20
	}
	if *layoutStr != "" {
		cfg.Layout = *layoutStr
	}

	var opts []cachecraft.RunOption
	if *auditOn {
		opts = append(opts, cachecraft.WithAudit())
	}
	var probes *cachecraft.Probes
	if *timeline != "" {
		probes = cachecraft.NewProbes(*tlWindow)
		opts = append(opts, cachecraft.WithProbes(probes))
	}
	res, err := cachecraft.Run(cfg, *workload, *scheme, opts...)
	if err == nil && probes != nil {
		tl := cachecraft.NewTimeline()
		tl.AddCell(*workload+"/"+*scheme, probes)
		if werr := tl.WriteFile(*timeline); werr != nil {
			fmt.Fprintln(os.Stderr, "cachecraft-sim: timeline:", werr)
			os.Exit(1)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cachecraft-sim:", err)
		os.Exit(1)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, "cachecraft-sim:", err)
			os.Exit(1)
		}
		return
	}

	t := stats.NewTable(fmt.Sprintf("%s under %s", *workload, *scheme), "metric", "value")
	t.AddRow("cycles", fmt.Sprintf("%d", res.Cycles))
	t.AddRow("instructions", fmt.Sprintf("%d", res.Instructions))
	t.AddRow("IPC", fmt.Sprintf("%.3f", res.IPC))
	t.AddRow("L1 hit rate", fmt.Sprintf("%.3f", res.L1HitRate))
	t.AddRow("L2 hit rate", fmt.Sprintf("%.3f", res.L2HitRate))
	t.AddRow("avg DRAM latency", fmt.Sprintf("%.0f cy", res.AvgMemLatency))
	t.AddRow("DRAM bus utilization", fmt.Sprintf("%.3f", res.BusUtilization))
	for _, class := range []string{"demand", "redundancy", "writeback", "rmw", "reconstruct"} {
		t.AddRow("bytes "+class, fmt.Sprintf("%d", res.DRAMBytes[class]))
	}
	rowTotal := res.DRAMRowHits + res.DRAMRowMisses + res.DRAMRowConfl
	if rowTotal > 0 {
		t.AddRow("DRAM row-hit rate", fmt.Sprintf("%.3f", float64(res.DRAMRowHits)/float64(rowTotal)))
	}
	t.Render(os.Stdout)

	if *verbose {
		fmt.Println("\n-- machine counters --")
		fmt.Print(res.Machine)
		fmt.Println("-- controller counters --")
		fmt.Print(res.ControllerSt)
		fmt.Println("-- L2 counters --")
		fmt.Print(res.L2Stats)
		fmt.Println("-- DRAM counters --")
		fmt.Print(res.DRAMStats)
	}
}
