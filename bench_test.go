// Benchmark harness: one benchmark per table and figure of the
// evaluation. Each benchmark regenerates its table/figure through the
// shared memoized runner, so figures that reuse the same simulations
// (performance, traffic, energy) pay for each simulation exactly once per
// `go test -bench` invocation; the printed tables are the reproduction
// artifacts recorded in EXPERIMENTS.md.
//
// Set CACHECRAFT_BENCH_QUICK=1 to run the whole harness on the
// scaled-down configuration (fast smoke run; numbers not meaningful).
package cachecraft

import (
	"bytes"
	"fmt"
	"os"
	"sync"
	"testing"

	"cachecraft/internal/bench"
	"cachecraft/internal/config"
)

var experimentState struct {
	once    sync.Once
	base    config.GPU
	runner  *bench.Runner
	printed map[string]bool
	mu      sync.Mutex
}

func experimentRunner() (*bench.Runner, config.GPU) {
	experimentState.once.Do(func() {
		base := config.Default()
		if os.Getenv("CACHECRAFT_BENCH_QUICK") != "" {
			base = config.Quick()
			base.AccessesPerSM = 300
		}
		experimentState.base = base
		experimentState.runner = bench.NewRunner(base)
		experimentState.printed = make(map[string]bool)
	})
	return experimentState.runner, experimentState.base
}

// runExperiment regenerates one experiment. The first b.N iteration does
// the real work (simulations are memoized across all benchmarks); the
// table is printed once per experiment id.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	r, base := experimentRunner()
	e, err := bench.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	var out bytes.Buffer
	for i := 0; i < b.N; i++ {
		out.Reset()
		if err := e.Run(r, base, &out); err != nil {
			b.Fatal(err)
		}
	}
	experimentState.mu.Lock()
	if !experimentState.printed[id] {
		experimentState.printed[id] = true
		fmt.Printf("\n%s\n", out.String())
	}
	experimentState.mu.Unlock()
	b.ReportMetric(float64(r.Stats().Runs), "total_sims")
}

func BenchmarkTable1_Config(b *testing.B)           { runExperiment(b, "table1") }
func BenchmarkTable2_Workloads(b *testing.B)        { runExperiment(b, "table2") }
func BenchmarkFig4_Performance(b *testing.B)        { runExperiment(b, "fig4") }
func BenchmarkFig5_Traffic(b *testing.B)            { runExperiment(b, "fig5") }
func BenchmarkFig6_RedundancyCoverage(b *testing.B) { runExperiment(b, "fig6") }
func BenchmarkFig7_ReconstructionUse(b *testing.B)  { runExperiment(b, "fig7") }
func BenchmarkFig8_Sensitivity(b *testing.B)        { runExperiment(b, "fig8") }
func BenchmarkFig9_Ablation(b *testing.B)           { runExperiment(b, "fig9") }
func BenchmarkFig10_Energy(b *testing.B)            { runExperiment(b, "fig10") }
func BenchmarkFig11_Geometry(b *testing.B)          { runExperiment(b, "fig11") }
func BenchmarkFig12_Writes(b *testing.B)            { runExperiment(b, "fig12") }
func BenchmarkTable3_Reliability(b *testing.B)      { runExperiment(b, "table3") }
func BenchmarkFig13_Replacement(b *testing.B)       { runExperiment(b, "fig13") }
func BenchmarkFig14_SeedStability(b *testing.B)     { runExperiment(b, "fig14") }
func BenchmarkFig15_ErrorStorms(b *testing.B)       { runExperiment(b, "fig15") }
func BenchmarkFig16_Headroom(b *testing.B)          { runExperiment(b, "fig16") }
