package bench

import (
	"context"
	"fmt"
	"io"

	"cachecraft/internal/cache"
	"cachecraft/internal/config"
	"cachecraft/internal/core"
	"cachecraft/internal/ecc"
	"cachecraft/internal/energy"
	"cachecraft/internal/faults"
	"cachecraft/internal/layout"
	"cachecraft/internal/schemes"
	"cachecraft/internal/stats"
	"cachecraft/internal/trace"
)

// Experiment regenerates one table or figure of the evaluation.
type Experiment struct {
	ID    string
	Title string
	Run   func(r *Runner, base config.GPU, w io.Writer) error
}

// RepWorkloads is the representative subset used by the expensive sweeps
// (one streaming, one read-write streaming, one irregular-read, one
// write-heavy workload). EXPERIMENTS.md documents the choice.
func RepWorkloads() []string { return []string{"stream", "scan", "bfs", "histogram"} }

// AblationWorkloads drops the two most expensive workloads (random,
// transpose) from the per-variant ablation sweep; they appear in the main
// figures.
func AblationWorkloads() []string {
	return []string{"stream", "scan", "gemm", "stencil", "bfs", "spmv", "histogram", "ptrchase"}
}

// All lists the experiments in presentation order.
func All() []Experiment {
	return []Experiment{
		{ID: "table1", Title: "Simulated GPU configuration", Run: table1},
		{ID: "table2", Title: "Workload characterization", Run: table2},
		{ID: "fig4", Title: "Performance under memory protection (normalized to no-ECC)", Run: fig4},
		{ID: "fig5", Title: "DRAM traffic breakdown", Run: fig5},
		{ID: "fig6", Title: "Redundancy-access coverage (CacheCraft)", Run: fig6},
		{ID: "fig7", Title: "Reconstruction usefulness and predictor behaviour", Run: fig7},
		{ID: "fig8", Title: "Sensitivity: RC and L2 capacity", Run: fig8},
		{ID: "fig9", Title: "Ablation: R / RC / P / W", Run: fig9},
		{ID: "fig10", Title: "Memory-system energy (normalized to no-ECC)", Run: fig10},
		{ID: "fig11", Title: "Protection geometry and layout sweep", Run: fig11},
		{ID: "fig12", Title: "Write handling: redundancy RMW elimination", Run: fig12},
		{ID: "table3", Title: "Codec reliability under injected faults", Run: table3},
		{ID: "fig13", Title: "Extension: L2 replacement policy (LRU vs SRRIP)", Run: fig13},
		{ID: "fig14", Title: "Extension: seed stability of the headline result", Run: fig14},
		{ID: "fig15", Title: "Extension: sensitivity to correctable-error storms", Run: fig15},
		{ID: "fig16", Title: "Extension: headroom vs an ideal (free-redundancy) controller", Run: fig16},
	}
}

// specGrid builds the cross product of configs × workloads × variants in
// deterministic (row-major) order, for fanning out through
// Runner.Prefetch before an experiment collects its rows serially from
// the returned results.
func specGrid(cfgIDs, workloads, variants []string) []Spec {
	out := make([]Spec, 0, len(cfgIDs)*len(workloads)*len(variants))
	for _, c := range cfgIDs {
		for _, wl := range workloads {
			for _, v := range variants {
				out = append(out, Spec{CfgID: c, Workload: wl, Variant: v})
			}
		}
	}
	return out
}

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("bench: unknown experiment %q", id)
}

// --- Table 1 ---------------------------------------------------------------

func table1(r *Runner, base config.GPU, w io.Writer) error {
	t := stats.NewTable("Table 1: simulated GPU configuration", "component", "value")
	t.AddRow("SMs", fmt.Sprintf("%d, ≤%d warp accesses in flight each", base.NumSMs, base.MaxOutstanding))
	t.AddRow("L1 (per SM)", fmt.Sprintf("%dKiB %d-way, %dB lines / %dB sectors, write-through",
		base.L1.SizeBytes>>10, base.L1.Ways, base.L1.LineBytes, base.L1.SectorBytes))
	t.AddRow("Interconnect", fmt.Sprintf("crossbar, %dB/cy ports, %dB/cy bisection per direction, %d-cycle latency",
		base.XbarPortBytesPerCycle, base.XbarReqBytesPerCycle, base.XbarLatency))
	t.AddRow("L2 (shared)", fmt.Sprintf("%dMiB %d-way, %d banks, sectored, %d MSHRs/bank, hashed sets",
		base.L2.SizeBytes>>20, base.L2.Ways, base.L2Banks, base.L2MSHRs))
	t.AddRow("DRAM", fmt.Sprintf("%d channels × %d banks, %dB rows, tRCD/tRP/tCAS=%d/%d/%d, burst %d cy/32B",
		base.DRAM.Channels, base.DRAM.BanksPerChannel, base.DRAM.RowBytes,
		base.DRAM.TRCD, base.DRAM.TRP, base.DRAM.TCAS, base.DRAM.TBurst))
	t.AddRow("Memory", fmt.Sprintf("%dMiB, inline-ECC layout %q", base.MemoryBytes>>20, base.Layout))
	t.AddRow("Protection", fmt.Sprintf("%dB granule / %dB redundancy block (ratio %.4g), decode %d cy",
		base.Geometry.GranuleBytes, base.Geometry.RedBlockBytes,
		base.Geometry.RedundancyRatio(), base.DecodeLat))
	t.AddRow("Workloads", fmt.Sprintf("%d accesses/SM, %dMiB footprint, seed %d",
		base.AccessesPerSM, base.FootprintBytes>>20, base.Seed))
	t.Render(w)
	return nil
}

// --- Table 2 ---------------------------------------------------------------

func table2(r *Runner, base config.GPU, w io.Writer) error {
	t := stats.NewTable("Table 2: workload characterization (unprotected baseline)",
		"workload", "IPC", "L1 hit", "L2 hit", "row hit", "DRAM MB", "rd:wr")
	cells, err := r.Prefetch(context.Background(), specGrid([]string{"base"}, trace.Names(), []string{"none"}))
	if err != nil {
		return err
	}
	for _, wl := range trace.Names() {
		res := cells[Spec{CfgID: "base", Workload: wl, Variant: "none"}]
		rowTotal := res.DRAMRowHits + res.DRAMRowMisses + res.DRAMRowConfl
		rowHit := 0.0
		if rowTotal > 0 {
			rowHit = float64(res.DRAMRowHits) / float64(rowTotal)
		}
		rd := res.DRAMStats.Get("bytes_read")
		wr := res.DRAMStats.Get("bytes_written")
		ratio := "∞"
		if wr > 0 {
			ratio = fmt.Sprintf("%.1f", float64(rd)/float64(wr))
		}
		t.AddRow(wl,
			fmt.Sprintf("%.2f", res.IPC),
			fmt.Sprintf("%.2f", res.L1HitRate),
			fmt.Sprintf("%.2f", res.L2HitRate),
			fmt.Sprintf("%.2f", rowHit),
			fmt.Sprintf("%.1f", float64(TotalDRAMBytes(res))/1e6),
			ratio)
	}
	t.Render(w)
	return nil
}

// --- Fig. 4 ----------------------------------------------------------------

func fig4(r *Runner, base config.GPU, w io.Writer) error {
	t := stats.NewTable("Fig. 4: performance normalized to no-ECC (higher is better)",
		"workload", "none", "inline-naive", "ecc-cache", "cachecraft")
	cells, err := r.Prefetch(context.Background(), specGrid([]string{"base"}, trace.Names(), schemes.All()))
	if err != nil {
		return err
	}
	gm := map[string][]float64{}
	for _, wl := range trace.Names() {
		baseRes := cells[Spec{CfgID: "base", Workload: wl, Variant: "none"}]
		row := []string{wl}
		for _, s := range schemes.All() {
			res := cells[Spec{CfgID: "base", Workload: wl, Variant: s}]
			sp := float64(baseRes.Cycles) / float64(res.Cycles)
			gm[s] = append(gm[s], sp)
			row = append(row, fmt.Sprintf("%.3f", sp))
		}
		t.AddRow(row...)
	}
	row := []string{"geomean"}
	for _, s := range schemes.All() {
		row = append(row, fmt.Sprintf("%.3f", stats.Geomean(gm[s])))
	}
	t.AddRow(row...)
	t.Render(w)
	return nil
}

// --- Fig. 5 ----------------------------------------------------------------

func fig5(r *Runner, base config.GPU, w io.Writer) error {
	t := stats.NewTable("Fig. 5: DRAM traffic by class, normalized to the no-ECC total",
		"workload", "scheme", "demand", "redundancy", "writeback", "rmw", "reconstruct", "total")
	cells, err := r.Prefetch(context.Background(), specGrid([]string{"base"}, trace.Names(), schemes.All()))
	if err != nil {
		return err
	}
	for _, wl := range trace.Names() {
		baseRes := cells[Spec{CfgID: "base", Workload: wl, Variant: "none"}]
		norm := float64(TotalDRAMBytes(baseRes))
		if norm == 0 {
			norm = 1
		}
		for _, s := range schemes.All() {
			res := cells[Spec{CfgID: "base", Workload: wl, Variant: s}]
			row := []string{wl, s}
			for _, class := range []string{"demand", "redundancy", "writeback", "rmw", "reconstruct"} {
				row = append(row, fmt.Sprintf("%.3f", float64(res.DRAMBytes[class])/norm))
			}
			row = append(row, fmt.Sprintf("%.3f", float64(TotalDRAMBytes(res))/norm))
			t.AddRow(row...)
		}
	}
	t.Render(w)
	return nil
}

// --- Fig. 6 ----------------------------------------------------------------

func fig6(r *Runner, base config.GPU, w io.Writer) error {
	t := stats.NewTable("Fig. 6: where CacheCraft redundancy lookups are served",
		"workload", "RC hit", "wbuf fwd", "merged in-flight", "DRAM", "lookups")
	cells, err := r.Prefetch(context.Background(), specGrid([]string{"base"}, trace.Names(), []string{"cachecraft"}))
	if err != nil {
		return err
	}
	for _, wl := range trace.Names() {
		res := cells[Spec{CfgID: "base", Workload: wl, Variant: "cachecraft"}]
		cs := res.ControllerSt
		rc := cs.Get("red_rc_hits")
		fwd := cs.Get("red_wbuf_fwd")
		merged := cs.Get("red_merged")
		dram := cs.Get("red_reads_dram")
		total := rc + fwd + merged + dram
		frac := func(x uint64) string {
			if total == 0 {
				return "0.000"
			}
			return fmt.Sprintf("%.3f", float64(x)/float64(total))
		}
		t.AddRow(wl, frac(rc), frac(fwd), frac(merged), frac(dram), fmt.Sprintf("%d", total))
	}
	t.Render(w)
	return nil
}

// --- Fig. 7 ----------------------------------------------------------------

func fig7(r *Runner, base config.GPU, w io.Writer) error {
	t := stats.NewTable("Fig. 7: reconstruction usefulness (fractions of reconstructed sectors)",
		"workload", "issued", "merged w/ demand", "used later", "wasted", "useful frac")
	cells, err := r.Prefetch(context.Background(), specGrid([]string{"base"}, trace.Names(), []string{"cachecraft"}))
	if err != nil {
		return err
	}
	for _, wl := range trace.Names() {
		res := cells[Spec{CfgID: "base", Workload: wl, Variant: "cachecraft"}]
		cs := res.ControllerSt
		issued := cs.Get("reconstruct_sectors")
		merged := cs.Get("reconstruct_merged")
		used := cs.Get("reconstruct_used")
		wasted := cs.Get("reconstruct_wasted")
		useful := 0.0
		if issued > 0 {
			useful = float64(merged+used) / float64(issued)
		}
		t.AddRow(wl,
			fmt.Sprintf("%d", issued),
			fmt.Sprintf("%d", merged),
			fmt.Sprintf("%d", used),
			fmt.Sprintf("%d", wasted),
			fmt.Sprintf("%.3f", useful))
	}
	t.Render(w)
	return nil
}

// --- Fig. 8 ----------------------------------------------------------------

func fig8(r *Runner, base config.GPU, w io.Writer) error {
	// RC capacity sweep (CacheCraft option variants).
	rcSizes := []int{16 << 10, 64 << 10, 256 << 10}
	rcVariants := []string{"none"}
	for _, sz := range rcSizes {
		opt := core.DefaultOptions()
		opt.RCSizeBytes = sz
		name := fmt.Sprintf("cc-rc%dk", sz>>10)
		r.AddCacheCraftVariant(name, opt)
		rcVariants = append(rcVariants, name)
	}
	cells, err := r.Prefetch(context.Background(), specGrid([]string{"base"}, RepWorkloads(), rcVariants))
	if err != nil {
		return err
	}
	t := stats.NewTable("Fig. 8a: CacheCraft speedup vs no-ECC, RC capacity sweep",
		"workload", "RC 16K", "RC 64K", "RC 256K")
	for _, wl := range RepWorkloads() {
		baseRes := cells[Spec{CfgID: "base", Workload: wl, Variant: "none"}]
		row := []string{wl}
		for _, sz := range rcSizes {
			res := cells[Spec{CfgID: "base", Workload: wl, Variant: fmt.Sprintf("cc-rc%dk", sz>>10)}]
			row = append(row, fmt.Sprintf("%.3f", float64(baseRes.Cycles)/float64(res.Cycles)))
		}
		t.AddRow(row...)
	}
	t.Render(w)

	// L2 capacity sweep (config variants; normalize to none at same L2).
	l2Sizes := []int{base.L2.SizeBytes / 2, base.L2.SizeBytes, base.L2.SizeBytes * 2}
	l2IDs := make([]string, 0, len(l2Sizes))
	for _, sz := range l2Sizes {
		cfg := base
		cfg.L2.SizeBytes = sz
		id := fmt.Sprintf("l2-%dm", sz>>20)
		r.AddConfig(id, cfg)
		l2IDs = append(l2IDs, id)
	}
	cells, err = r.Prefetch(context.Background(), specGrid(l2IDs, RepWorkloads(), []string{"none", "cachecraft"}))
	if err != nil {
		return err
	}
	t2 := stats.NewTable("Fig. 8b: CacheCraft speedup vs no-ECC, L2 capacity sweep",
		"workload",
		fmt.Sprintf("L2 %dMiB", l2Sizes[0]>>20),
		fmt.Sprintf("L2 %dMiB", l2Sizes[1]>>20),
		fmt.Sprintf("L2 %dMiB", l2Sizes[2]>>20))
	for _, wl := range RepWorkloads() {
		row := []string{wl}
		for _, sz := range l2Sizes {
			id := fmt.Sprintf("l2-%dm", sz>>20)
			baseRes := cells[Spec{CfgID: id, Workload: wl, Variant: "none"}]
			res := cells[Spec{CfgID: id, Workload: wl, Variant: "cachecraft"}]
			row = append(row, fmt.Sprintf("%.3f", float64(baseRes.Cycles)/float64(res.Cycles)))
		}
		t2.AddRow(row...)
	}
	t2.Render(w)
	return nil
}

// --- Fig. 9 ----------------------------------------------------------------

// AblationVariants returns the named CacheCraft variants with one
// mechanism disabled each.
func AblationVariants() map[string]core.Options {
	full := core.DefaultOptions()
	noR := full
	noR.Reconstruct = false
	noRC := full
	noRC.UseRC = false
	noP := full
	noP.Predictor = false
	noW := full
	noW.WBuf = false
	return map[string]core.Options{
		"cc-noR":  noR,
		"cc-noRC": noRC,
		"cc-noP":  noP,
		"cc-noW":  noW,
	}
}

func fig9(r *Runner, base config.GPU, w io.Writer) error {
	variants := AblationVariants()
	for name, opt := range variants {
		r.AddCacheCraftVariant(name, opt)
	}
	order := append([]string{"cachecraft"}, sortedKeys(variants)...)
	cells, err := r.Prefetch(context.Background(),
		specGrid([]string{"base"}, AblationWorkloads(), append([]string{"none"}, order...)))
	if err != nil {
		return err
	}
	t := stats.NewTable("Fig. 9: ablation — speedup vs no-ECC with one mechanism disabled",
		append([]string{"workload"}, order...)...)
	gm := map[string][]float64{}
	for _, wl := range AblationWorkloads() {
		baseRes := cells[Spec{CfgID: "base", Workload: wl, Variant: "none"}]
		row := []string{wl}
		for _, v := range order {
			res := cells[Spec{CfgID: "base", Workload: wl, Variant: v}]
			sp := float64(baseRes.Cycles) / float64(res.Cycles)
			gm[v] = append(gm[v], sp)
			row = append(row, fmt.Sprintf("%.3f", sp))
		}
		t.AddRow(row...)
	}
	row := []string{"geomean"}
	for _, v := range order {
		row = append(row, fmt.Sprintf("%.3f", stats.Geomean(gm[v])))
	}
	t.AddRow(row...)
	t.Render(w)
	return nil
}

// --- Fig. 10 ---------------------------------------------------------------

func fig10(r *Runner, base config.GPU, w io.Writer) error {
	model := energy.Default()
	t := stats.NewTable("Fig. 10: memory-system dynamic energy normalized to no-ECC",
		"workload", "none", "inline-naive", "ecc-cache", "cachecraft")
	cells, err := r.Prefetch(context.Background(), specGrid([]string{"base"}, trace.Names(), schemes.All()))
	if err != nil {
		return err
	}
	for _, wl := range trace.Names() {
		baseRes := cells[Spec{CfgID: "base", Workload: wl, Variant: "none"}]
		norm := model.Evaluate(baseRes).Total()
		row := []string{wl}
		for _, s := range schemes.All() {
			res := cells[Spec{CfgID: "base", Workload: wl, Variant: s}]
			row = append(row, fmt.Sprintf("%.3f", model.Evaluate(res).Total()/norm))
		}
		t.AddRow(row...)
	}
	t.Render(w)
	return nil
}

// --- Fig. 11 ---------------------------------------------------------------

func fig11(r *Runner, base config.GPU, w io.Writer) error {
	type geoCase struct {
		id   string
		geo  layout.Geometry
		lay  string
		desc string
	}
	cases := []geoCase{
		{"geo-8-lin", layout.DefaultGeometry(), "linear", "1/8 linear"},
		{"geo-16-lin", layout.Geometry1of16(), "linear", "1/16 linear"},
		{"geo-8-row", layout.DefaultGeometry(), "row-local", "1/8 row-local"},
		{"geo-16-row", layout.Geometry1of16(), "row-local", "1/16 row-local"},
	}
	geoIDs := make([]string, 0, len(cases))
	for _, c := range cases {
		cfg := base
		cfg.Geometry = c.geo
		cfg.Layout = c.lay
		r.AddConfig(c.id, cfg)
		geoIDs = append(geoIDs, c.id)
	}
	cells, err := r.Prefetch(context.Background(), specGrid(geoIDs, RepWorkloads(), []string{"none", "cachecraft"}))
	if err != nil {
		return err
	}
	t := stats.NewTable("Fig. 11: protection geometry/layout sweep — CacheCraft speedup vs no-ECC (same geometry)",
		"workload", cases[0].desc, cases[1].desc, cases[2].desc, cases[3].desc)
	for _, wl := range RepWorkloads() {
		row := []string{wl}
		for _, c := range cases {
			baseRes := cells[Spec{CfgID: c.id, Workload: wl, Variant: "none"}]
			res := cells[Spec{CfgID: c.id, Workload: wl, Variant: "cachecraft"}]
			row = append(row, fmt.Sprintf("%.3f", float64(baseRes.Cycles)/float64(res.Cycles)))
		}
		t.AddRow(row...)
	}
	t.Render(w)
	return nil
}

// --- Fig. 12 ---------------------------------------------------------------

func fig12(r *Runner, base config.GPU, w io.Writer) error {
	r.AddCacheCraftVariant("cc-noW", AblationVariants()["cc-noW"])
	writeHeavy := []string{"scan", "histogram", "transpose", "stencil"}
	cells, err := r.Prefetch(context.Background(), specGrid([]string{"base"}, writeHeavy,
		[]string{"inline-naive", "ecc-cache", "cc-noW", "cachecraft"}))
	if err != nil {
		return err
	}
	t := stats.NewTable("Fig. 12: redundancy read-modify-writes per 1k data writebacks",
		"workload", "inline-naive", "ecc-cache", "cachecraft-noW", "cachecraft", "cc blind writes")
	for _, wl := range writeHeavy {
		row := []string{wl}
		var ccBlind uint64
		for _, v := range []string{"inline-naive", "ecc-cache", "cc-noW", "cachecraft"} {
			res := cells[Spec{CfgID: "base", Workload: wl, Variant: v}]
			wbBytes := res.DRAMBytes["writeback"]
			wbEvents := wbBytes / 32
			// Count RMW reads from traffic bytes so deferred RMWs (the
			// ecc-cache write-allocate fetches) are included.
			rmw := res.DRAMBytes["rmw"] / 32
			rate := 0.0
			if wbEvents > 0 {
				rate = float64(rmw) / float64(wbEvents) * 1000
			}
			row = append(row, fmt.Sprintf("%.0f", rate))
			if v == "cachecraft" {
				ccBlind = res.ControllerSt.Get("red_blind_writes")
			}
		}
		row = append(row, fmt.Sprintf("%d", ccBlind))
		t.AddRow(row...)
	}
	t.Render(w)
	return nil
}

// --- Table 3 ---------------------------------------------------------------

func table3(r *Runner, base config.GPU, w io.Writer) error {
	secded, err := ecc.NewSECDEDSector(32, 64)
	if err != nil {
		return err
	}
	rs36, err := ecc.NewRSSector(32, 4)
	if err != nil {
		return err
	}
	rs34, err := ecc.NewRSSector(32, 2)
	if err != nil {
		return err
	}
	injectors := []struct {
		name string
		inj  faults.Injector
	}{
		{"1 bit", faults.BitFlips(1)},
		{"2 bits", faults.BitFlips(2)},
		{"4-bit burst", faults.Burst(4)},
		{"1 chip (byte)", faults.ChipError()},
		{"2 chips", faults.DoubleChipError()},
	}
	t := stats.NewTable("Table 3: codec reliability (10k injections each; rates)",
		"codec", "fault", "corrected", "detected", "SDC")
	for _, codec := range []ecc.SectorCodec{secded, rs36, rs34} {
		for _, in := range injectors {
			rep := faults.Campaign{Codec: codec, Trials: 10000, Seed: 99}.Run(in.name, in.inj)
			t.AddRow(codec.Name(), in.name,
				fmt.Sprintf("%.4f", rep.Rate(faults.Corrected)),
				fmt.Sprintf("%.4f", rep.Rate(faults.Detected)),
				fmt.Sprintf("%.4f", rep.SDCRate()))
		}
	}
	t.Render(w)
	return nil
}

// --- Fig. 13 (extension) ----------------------------------------------------

func fig13(r *Runner, base config.GPU, w io.Writer) error {
	srrip := base
	srrip.L2.Repl = cache.SRRIP
	r.AddConfig("l2-srrip", srrip)
	cells, err := r.Prefetch(context.Background(), specGrid([]string{"base", "l2-srrip"}, RepWorkloads(),
		[]string{"none", "cachecraft"}))
	if err != nil {
		return err
	}
	t := stats.NewTable("Fig. 13 (extension): L2 replacement policy — speedup vs no-ECC at same policy",
		"workload", "LRU none", "LRU cachecraft", "SRRIP none", "SRRIP cachecraft")
	for _, wl := range RepWorkloads() {
		row := []string{wl}
		for _, cfgID := range []string{"base", "l2-srrip"} {
			baseRes := cells[Spec{CfgID: cfgID, Workload: wl, Variant: "none"}]
			ccRes := cells[Spec{CfgID: cfgID, Workload: wl, Variant: "cachecraft"}]
			row = append(row, "1.000",
				fmt.Sprintf("%.3f", float64(baseRes.Cycles)/float64(ccRes.Cycles)))
		}
		t.AddRow(row...)
	}
	t.Render(w)
	return nil
}

// --- Fig. 14 (extension) ----------------------------------------------------

func fig14(r *Runner, base config.GPU, w io.Writer) error {
	seeds := []int64{base.Seed, base.Seed + 1, base.Seed + 2}
	for _, seed := range seeds[1:] {
		cfg := base
		cfg.Seed = seed
		r.AddConfig(fmt.Sprintf("seed-%d", seed), cfg)
	}
	cfgID := func(seed int64) string {
		if seed == base.Seed {
			return "base"
		}
		return fmt.Sprintf("seed-%d", seed)
	}
	seedIDs := make([]string, 0, len(seeds))
	for _, seed := range seeds {
		seedIDs = append(seedIDs, cfgID(seed))
	}
	cells, err := r.Prefetch(context.Background(), specGrid(seedIDs, []string{"stream", "bfs", "histogram"},
		[]string{"none", "cachecraft"}))
	if err != nil {
		return err
	}
	t := stats.NewTable("Fig. 14 (extension): CacheCraft speedup vs no-ECC across workload seeds",
		"workload", "seed A", "seed B", "seed C", "spread")
	for _, wl := range []string{"stream", "bfs", "histogram"} {
		row := []string{wl}
		lo, hi := 0.0, 0.0
		for i, seed := range seeds {
			id := cfgID(seed)
			baseRes := cells[Spec{CfgID: id, Workload: wl, Variant: "none"}]
			ccRes := cells[Spec{CfgID: id, Workload: wl, Variant: "cachecraft"}]
			sp := float64(baseRes.Cycles) / float64(ccRes.Cycles)
			if i == 0 || sp < lo {
				lo = sp
			}
			if i == 0 || sp > hi {
				hi = sp
			}
			row = append(row, fmt.Sprintf("%.3f", sp))
		}
		row = append(row, fmt.Sprintf("%.3f", hi-lo))
		t.AddRow(row...)
	}
	t.Render(w)
	return nil
}

// --- Fig. 15 (extension) ----------------------------------------------------

func fig15(r *Runner, base config.GPU, w io.Writer) error {
	rates := []int{0, 1000, 10000, 100000}
	for _, ppm := range rates[1:] {
		cfg := base
		cfg.ErrorRatePPM = ppm
		r.AddConfig(fmt.Sprintf("err-%dppm", ppm), cfg)
	}
	cfgID := func(ppm int) string {
		if ppm == 0 {
			return "base"
		}
		return fmt.Sprintf("err-%dppm", ppm)
	}
	errIDs := make([]string, 0, len(rates))
	for _, ppm := range rates {
		errIDs = append(errIDs, cfgID(ppm))
	}
	cells, err := r.Prefetch(context.Background(), append(
		specGrid([]string{"base"}, RepWorkloads(), []string{"none"}),
		specGrid(errIDs, RepWorkloads(), []string{"cachecraft"})...))
	if err != nil {
		return err
	}
	t := stats.NewTable("Fig. 15 (extension): CacheCraft speedup vs error-free no-ECC under correctable-error storms",
		"workload", "0 ppm", "1k ppm", "10k ppm", "100k ppm", "scrubs @100k")
	for _, wl := range RepWorkloads() {
		baseRes := cells[Spec{CfgID: "base", Workload: wl, Variant: "none"}]
		row := []string{wl}
		var scrubs uint64
		for _, ppm := range rates {
			res := cells[Spec{CfgID: cfgID(ppm), Workload: wl, Variant: "cachecraft"}]
			row = append(row, fmt.Sprintf("%.3f", float64(baseRes.Cycles)/float64(res.Cycles)))
			if ppm == rates[len(rates)-1] {
				scrubs = res.ControllerSt.Get("scrub_writes")
			}
		}
		row = append(row, fmt.Sprintf("%d", scrubs))
		t.AddRow(row...)
	}
	t.Render(w)
	return nil
}

// --- Fig. 16 (extension) ----------------------------------------------------

func fig16(r *Runner, base config.GPU, w io.Writer) error {
	t := stats.NewTable("Fig. 16 (extension): speedup vs no-ECC — CacheCraft against the free-redundancy bound",
		"workload", "cachecraft", "ideal", "headroom left", "floor cost (1-ideal)")
	cells, err := r.Prefetch(context.Background(), specGrid([]string{"base"}, trace.Names(),
		[]string{"none", "cachecraft", "ideal"}))
	if err != nil {
		return err
	}
	for _, wl := range trace.Names() {
		baseRes := cells[Spec{CfgID: "base", Workload: wl, Variant: "none"}]
		cc := cells[Spec{CfgID: "base", Workload: wl, Variant: "cachecraft"}]
		id := cells[Spec{CfgID: "base", Workload: wl, Variant: "ideal"}]
		ccSp := float64(baseRes.Cycles) / float64(cc.Cycles)
		idSp := float64(baseRes.Cycles) / float64(id.Cycles)
		t.AddRow(wl,
			fmt.Sprintf("%.3f", ccSp),
			fmt.Sprintf("%.3f", idSp),
			unsignedZero(fmt.Sprintf("%.3f", idSp-ccSp)),
			unsignedZero(fmt.Sprintf("%.3f", 1-idSp)))
	}
	t.Render(w)
	return nil
}

// unsignedZero drops the sign of a formatted difference that rounds to
// zero: an ideal run a few cycles slower than no-ECC is no floor cost,
// not a negative one.
func unsignedZero(s string) string {
	if s == "-0.000" {
		return "0.000"
	}
	return s
}
