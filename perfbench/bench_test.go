package main

import (
	"bytes"
	"encoding/json"
	"math"
	"sort"
	"strings"
	"testing"
)

func testCatalog(t *testing.T) catalog {
	t.Helper()
	cat, err := loadCatalog("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return cat
}

func tinyRun(t *testing.T, workload string, trace bool, plant string) (resultLine, string) {
	t.Helper()
	o := opts{workload: workload, seed: 7, seconds: 1, trace: trace, tiny: true, plant: plant, outDir: t.TempDir()}
	var out bytes.Buffer
	res, err := run(o, testCatalog(t), &out)
	if err != nil {
		t.Fatalf("%s trace=%v plant=%q: %v", workload, trace, plant, err)
	}
	return res, out.String()
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TestTinyRunsMatchSchema runs every workload untraced and traced at the
// tiny size and checks the result line against the contract and the
// metric catalog.
func TestTinyRunsMatchSchema(t *testing.T) {
	cat := testCatalog(t)
	for _, wl := range workloadNames() {
		for _, trace := range []bool{false, true} {
			res, report := tinyRun(t, wl, trace, "")
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s", wl, trace, res.Correct, res.Failed, res.Attempted, report)
			}
			line, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(line, &keys); err != nil {
				t.Fatal(err)
			}
			if len(keys) != 4 || keys["correct"] == nil || keys["attempted"] == nil || keys["failed"] == nil || keys["metrics"] == nil {
				t.Errorf("%s: result keys %s", wl, line)
			}
			defs := cat.EndToEnd
			if trace {
				defs = cat.PerLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, catalog has %d", wl, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", wl, trace, d.Name)
				case m.Unit != d.Unit:
					t.Errorf("%s: %s unit %q, catalog %q", wl, d.Name, m.Unit, d.Unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", wl, trace, d.Name, m.Value)
				case !trace && m.Value <= 0:
					t.Errorf("%s: end-to-end %s = %v, want > 0", wl, d.Name, m.Value)
				}
			}
			if !strings.HasPrefix(report, `{"report":`) {
				t.Errorf("%s: report line missing: %.200s", wl, report)
			}
			if trace {
				if f := res.Metrics["sim.events"].Value; f <= 0 {
					t.Errorf("%s: sim.events = %v", wl, f)
				}
				total := res.Metrics["runtime.gc_cpu_frac"].Value + res.Metrics["other.cpu_frac"].Value
				for _, l := range layers {
					total += res.Metrics[l+".cpu_frac"].Value
				}
				if math.Abs(total-1) > 1e-9 {
					t.Errorf("%s: cpu fractions sum to %v", wl, total)
				}
			}
		}
	}
}

// TestPlantedMismatchesFail corrupts one checked input at a time and
// requires the run to report it as incorrect.
func TestPlantedMismatchesFail(t *testing.T) {
	cases := []struct {
		plant, workload string
		trace           bool
	}{
		{"repeat", "sim-coalesced", false},
		{"class-bytes", "sim-coalesced", false},
		{"warm", "sim-coalesced", false},
		{"traced", "sim-divergent", true},
		{"heap", "sim-divergent", true},
		{"accesses", "sim-divergent", true},
		{"warm-stdout", "sweep-quick", false},
		{"traced-stdout", "sweep-quick", true},
		{"service", "service", false},
		{"hit-body", "service", false},
	}
	for _, c := range cases {
		res, report := tinyRun(t, c.workload, c.trace, c.plant)
		if res.Correct || res.Failed == 0 {
			t.Errorf("plant %q on %s: correct=%v failed=%d\n%.500s", c.plant, c.workload, res.Correct, res.Failed, report)
		}
	}
}

func TestAttributionPartitions(t *testing.T) {
	a := newAttribution()
	a.charge([]string{"cachecraft/internal/stats.(*Counters).Inc", "cachecraft/internal/dram.(*DRAM).Submit", "cachecraft/internal/gpu.(*Machine).Run"}, 2)
	a.charge([]string{"runtime.mallocgc", "runtime.gcAssistAlloc", "cachecraft/internal/sim.(*Engine).Step"}, 1)
	a.charge([]string{"runtime.futex", "main.main"}, 1)
	if a.byLayer["dram"] != 2 || a.gc != 1 || a.other != 1 || a.total != 4 {
		t.Fatalf("attribution = %+v", a)
	}
}

func TestP99UsesChunkMedian(t *testing.T) {
	xs := make([]float64, 3*tailChunk)
	for i := range xs {
		xs[i] = 1
	}
	for i := 0; i < 50; i++ {
		xs[i] = 100 // a burst inside the first chunk only
	}
	if got := p99(xs); got != 1 {
		t.Fatalf("p99 = %v, want 1", got)
	}
	if got := quantile([]float64{3, 1, 2}, 0.5); got != 2 {
		t.Fatalf("median = %v", got)
	}
}
