package bench

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"cachecraft/internal/gpu"
	"cachecraft/internal/version"
)

// TestConcurrentSameSpecSingleflight: N goroutines requesting the same
// Spec must execute exactly one simulation, and every caller must observe
// the identical result.
func TestConcurrentSameSpecSingleflight(t *testing.T) {
	r := NewRunner(quickBase())
	r.SetWorkers(4)
	s := Spec{CfgID: "base", Workload: "stream", Variant: "none"}

	const n = 16
	results := make([]gpu.Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = r.Result(s)
		}(i)
	}
	wg.Wait()

	if r.Stats().Runs != 1 {
		t.Fatalf("runs = %d, want exactly 1 simulation for %d concurrent requests", r.Stats().Runs, n)
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("goroutine %d: %v", i, errs[i])
		}
		if results[i].Cycles != results[0].Cycles ||
			results[i].Instructions != results[0].Instructions ||
			results[i].IPC != results[0].IPC {
			t.Fatalf("goroutine %d observed a different result: %+v vs %+v",
				i, results[i], results[0])
		}
	}
}

// TestPrefetchFansOutAndMemoizes: a Prefetch batch (with duplicates) runs
// each distinct spec once and returns one result per distinct spec, the
// same one Result returns; subsequent Result calls are memo hits.
func TestPrefetchFansOutAndMemoizes(t *testing.T) {
	r := NewRunner(quickBase())
	r.SetWorkers(4)
	specs := specGrid([]string{"base"}, []string{"stream", "scan"}, []string{"none", "cachecraft"})
	specs = append(specs, specs...) // duplicates must collapse
	cells, err := r.Prefetch(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats().Runs != 4 {
		t.Fatalf("runs = %d, want 4 distinct simulations", r.Stats().Runs)
	}
	if len(cells) != 4 {
		t.Fatalf("Prefetch returned %d results, want 4 distinct specs", len(cells))
	}
	for _, s := range specs[:4] {
		res, err := r.Result(s)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := cells[s]
		if !ok {
			t.Fatalf("Prefetch result missing %+v", s)
		}
		if !reflect.DeepEqual(got, res) {
			t.Fatalf("Prefetch result for %+v differs from Result's", s)
		}
	}
	if r.Stats().Runs != 4 {
		t.Fatalf("Result after Prefetch re-ran a simulation: runs = %d", r.Stats().Runs)
	}
}

// TestPrefetchPropagatesFirstError: a bad spec in the batch surfaces as an
// error with no results instead of being swallowed, and good specs stay
// retrievable.
func TestPrefetchPropagatesFirstError(t *testing.T) {
	r := NewRunner(quickBase())
	specs := []Spec{
		{CfgID: "base", Workload: "stream", Variant: "none"},
		{CfgID: "base", Workload: "no-such-workload", Variant: "none"},
	}
	cells, err := r.Prefetch(context.Background(), specs)
	if err == nil {
		t.Fatal("Prefetch with an unknown workload reported no error")
	}
	if cells != nil {
		t.Fatalf("failed Prefetch returned results: %v", cells)
	}
	if _, err := r.Result(specs[0]); err != nil {
		t.Fatalf("good spec unavailable after failed batch: %v", err)
	}
}

// TestResultCtxCancellation: a cancelled context aborts work that has not
// started, and the spec remains runnable afterwards.
func TestResultCtxCancellation(t *testing.T) {
	r := NewRunner(quickBase())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := Spec{CfgID: "base", Workload: "stream", Variant: "none"}
	if _, err := r.ResultCtx(ctx, s); err == nil {
		t.Fatal("cancelled context produced a result")
	}
	if r.Stats().Runs != 0 {
		t.Fatalf("cancelled request still simulated: runs = %d", r.Stats().Runs)
	}
	if _, err := r.Result(s); err != nil {
		t.Fatalf("spec unrunnable after cancellation: %v", err)
	}
	if r.Stats().Runs != 1 {
		t.Fatalf("runs = %d, want 1", r.Stats().Runs)
	}
}

// TestAddConfigInvalidatesStaleMemo: re-registering a config id with a
// different configuration must not serve simulations of the old one.
func TestAddConfigInvalidatesStaleMemo(t *testing.T) {
	r := NewRunner(quickBase())
	small := quickBase()
	small.AccessesPerSM = 200
	r.AddConfig("sweep", small)
	s := Spec{CfgID: "sweep", Workload: "stream", Variant: "none"}
	a, err := r.Result(s)
	if err != nil {
		t.Fatal(err)
	}

	big := quickBase()
	big.AccessesPerSM = 400
	r.AddConfig("sweep", big)
	b, err := r.Result(s)
	if err != nil {
		t.Fatal(err)
	}
	if r.Stats().Runs != 2 {
		t.Fatalf("runs = %d, want 2 (memo must be invalidated)", r.Stats().Runs)
	}
	if b.Instructions <= a.Instructions {
		t.Fatalf("stale result served: %d instructions before, %d after doubling the workload",
			a.Instructions, b.Instructions)
	}

	// Re-registering the identical config keeps the memo.
	r.AddConfig("sweep", big)
	if _, err := r.Result(s); err != nil {
		t.Fatal(err)
	}
	if r.Stats().Runs != 2 {
		t.Fatalf("identical re-register invalidated the memo: runs = %d", r.Stats().Runs)
	}
}

func TestSetWorkersClampsAndReports(t *testing.T) {
	r := NewRunner(quickBase())
	r.SetWorkers(0)
	if r.Workers() != 1 {
		t.Fatalf("workers = %d, want clamp to 1", r.Workers())
	}
	r.SetWorkers(7)
	if r.Workers() != 7 {
		t.Fatalf("workers = %d, want 7", r.Workers())
	}
}

// TestParallelSweepMatchesSerial renders every experiment through a
// serial (1 worker) runner and a parallel (8 worker) runner and requires
// byte-identical output: the determinism guarantee behind -j. The serial
// render must also match the golden file committed for the current
// version.SimRevision. Stores and journals serve old results whenever the
// revision matches, so a change to simulated results must bump the
// revision and commit a new golden directory.
func TestParallelSweepMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep comparison is slow")
	}
	render := func(workers int) string {
		r := NewRunner(quickBase())
		r.SetWorkers(workers)
		var buf bytes.Buffer
		for _, e := range All() {
			if err := e.Run(r, quickBase(), &buf); err != nil {
				t.Fatalf("workers=%d %s: %v", workers, e.ID, err)
			}
		}
		return buf.String()
	}
	serial := render(1)
	checkGolden(t, "quick-all.txt", serial)
	parallel := render(8)
	if serial != parallel {
		t.Fatalf("parallel sweep output differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, parallel)
	}
}

// checkGolden compares got with testdata/golden/<SimRevision>/name. A
// missing file or any difference fails the test and leaves got in a temp
// file for review.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", version.SimRevision, name)
	want, err := os.ReadFile(path)
	if err == nil && string(want) == got {
		return
	}
	saved := "(not saved)"
	if f, ferr := os.CreateTemp("", "golden-*-"+name); ferr == nil {
		f.WriteString(got)
		f.Close()
		saved = f.Name()
	}
	if err != nil {
		t.Fatalf("no golden output for simulator revision %s (%v); this run's output is in %s",
			version.SimRevision, err, saved)
	}
	line := 1 + strings.Count(got[:commonPrefix(string(want), got)], "\n")
	t.Fatalf("output differs from %s at line %d without a SimRevision bump; this run's output is in %s. "+
		"If the change is intended, bump version.SimRevision and commit that output as the new revision's %s",
		path, line, saved, name)
}

func commonPrefix(a, b string) int {
	n := 0
	for n < len(a) && n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}
