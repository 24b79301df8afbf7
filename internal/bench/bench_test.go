package bench

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"cachecraft/internal/config"
	"cachecraft/internal/core"
)

func quickBase() config.GPU {
	cfg := config.Quick()
	cfg.AccessesPerSM = 300
	return cfg
}

func TestRunnerMemoizes(t *testing.T) {
	r := NewRunner(quickBase())
	s := Spec{CfgID: "base", Workload: "stream", Variant: "none"}
	a, err := r.Result(s)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Result(s)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles {
		t.Fatal("memoized result differs")
	}
	if r.Stats().Runs != 1 {
		t.Fatalf("runs = %d, want 1", r.Stats().Runs)
	}
}

func TestRunnerUnknownSpecRejected(t *testing.T) {
	r := NewRunner(quickBase())
	if _, err := r.Result(Spec{CfgID: "nope", Workload: "stream", Variant: "none"}); err == nil {
		t.Fatal("unknown config accepted")
	}
	if _, err := r.Result(Spec{CfgID: "base", Workload: "stream", Variant: "nope"}); err == nil {
		t.Fatal("unknown variant accepted")
	}
	if _, err := r.Result(Spec{CfgID: "base", Workload: "nope", Variant: "none"}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

func TestRunnerVariantsAndConfigs(t *testing.T) {
	r := NewRunner(quickBase())
	opt := core.DefaultOptions()
	opt.UseRC = false
	r.AddCacheCraftVariant("cc-test", opt)
	cfg := quickBase()
	cfg.L2.SizeBytes *= 2
	r.AddConfig("big-l2", cfg)
	if _, err := r.Result(Spec{CfgID: "big-l2", Workload: "stream", Variant: "cc-test"}); err != nil {
		t.Fatal(err)
	}
}

func TestExperimentRegistry(t *testing.T) {
	all := All()
	if len(all) != 16 {
		t.Fatalf("experiment count = %d, want 16", len(all))
	}
	seen := map[string]bool{}
	for _, e := range all {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Fatalf("incomplete experiment %+v", e)
		}
		if seen[e.ID] {
			t.Fatalf("duplicate id %q", e.ID)
		}
		seen[e.ID] = true
		got, err := ByID(e.ID)
		if err != nil || got.ID != e.ID {
			t.Fatalf("ByID(%q) failed", e.ID)
		}
	}
	if _, err := ByID("nope"); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

// TestEveryExperimentRunsOnQuickConfig smoke-runs each experiment end to
// end on the scaled-down configuration and sanity-checks its output.
func TestEveryExperimentRunsOnQuickConfig(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment sweep is slow")
	}
	r := NewRunner(quickBase())
	for _, e := range All() {
		var buf bytes.Buffer
		if err := e.Run(r, quickBase(), &buf); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		out := buf.String()
		if len(out) < 100 {
			t.Fatalf("%s: suspiciously short output:\n%s", e.ID, out)
		}
		if !strings.Contains(out, "==") {
			t.Fatalf("%s: missing table header:\n%s", e.ID, out)
		}
	}
	t.Logf("total distinct simulations: %d", r.Stats().Runs)
}

func TestFig4ContainsGeomeanAndAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("slow")
	}
	r := NewRunner(quickBase())
	var buf bytes.Buffer
	if err := fig4(r, quickBase(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"geomean", "stream", "random", "cachecraft"} {
		if !strings.Contains(out, want) {
			t.Fatalf("fig4 output missing %q:\n%s", want, out)
		}
	}
}

func TestTable3IsSimulationFree(t *testing.T) {
	r := NewRunner(quickBase())
	var buf bytes.Buffer
	if err := table3(r, quickBase(), &buf); err != nil {
		t.Fatal(err)
	}
	if r.Stats().Runs != 0 {
		t.Fatal("table3 must not run timing simulations")
	}
	out := buf.String()
	for _, want := range []string{"secded-72/64", "rs-36/32", "rs-34/32", "1 chip"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table3 missing %q:\n%s", want, out)
		}
	}
}

// TestTable3Allocations bounds the whole table's heap allocations: its 15
// campaigns of 10k trials each allocate their buffers once, so a single
// allocation per trial anywhere in the encode, inject and decode path
// (here, with the injectors inlined into this package) adds 150k.
func TestTable3Allocations(t *testing.T) {
	r := NewRunner(quickBase())
	allocs := testing.AllocsPerRun(1, func() {
		if err := table3(r, quickBase(), io.Discard); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1000 {
		t.Fatalf("table3 made %.0f allocations, want at most 1000", allocs)
	}
}

func TestTotalDRAMBytes(t *testing.T) {
	r := NewRunner(quickBase())
	res, err := r.Result(Spec{CfgID: "base", Workload: "scan", Variant: "inline-naive"})
	if err != nil {
		t.Fatal(err)
	}
	if TotalDRAMBytes(res) == 0 {
		t.Fatal("no traffic accounted")
	}
	var sum uint64
	for _, v := range res.DRAMBytes {
		sum += v
	}
	if TotalDRAMBytes(res) != sum {
		t.Fatal("TotalDRAMBytes mismatch")
	}
}
