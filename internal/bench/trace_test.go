package bench

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"testing"

	"cachecraft/internal/config"
	"cachecraft/internal/gpu"
	"cachecraft/internal/obs"
)

// memStore is a trivial in-memory ResultStore for tracing tests.
type memStore struct {
	m map[string]gpu.Result
}

func newMemStore() *memStore { return &memStore{m: make(map[string]gpu.Result)} }

func (s *memStore) key(wl, sc string) string { return wl + "/" + sc }

func (s *memStore) Lookup(_ config.GPU, wl, sc string) (gpu.Result, bool) {
	r, ok := s.m[s.key(wl, sc)]
	return r, ok
}

func (s *memStore) Save(_ config.GPU, wl, sc string, r gpu.Result) error {
	s.m[s.key(wl, sc)] = r
	return nil
}

func collectSpans(t *testing.T, buf *bytes.Buffer) []obs.SpanData {
	t.Helper()
	var out []obs.SpanData
	sc := bufio.NewScanner(bytes.NewReader(buf.Bytes()))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var d obs.SpanData
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			t.Fatalf("bad span line %q: %v", sc.Text(), err)
		}
		out = append(out, d)
	}
	return out
}

// TestRunnerEmitsCellSpans: an executed cell produces a root "cell" span
// with store-lookup, queue-wait, simulate, and persist children whose
// durations are consistent with the root's, and the simulate span carries
// the machine's top-level stage children.
func TestRunnerEmitsCellSpans(t *testing.T) {
	var buf bytes.Buffer
	tr := obs.NewTracer(obs.NewNDJSONExporter(&buf))
	r := NewRunner(quickBase())
	r.SetStore(newMemStore())
	r.SetTracer(tr)

	if _, err := r.Result(Spec{CfgID: "base", Workload: "stream", Variant: "none"}); err != nil {
		t.Fatal(err)
	}
	spans := collectSpans(t, &buf)
	byName := map[string]obs.SpanData{}
	for _, sp := range spans {
		byName[sp.Name] = sp
	}
	cell, ok := byName["cell"]
	if !ok {
		t.Fatalf("no cell span in %v", spans)
	}
	if cell.Attrs["workload"] != "stream" || cell.Attrs["scheme"] != "none" ||
		cell.Attrs["config"] != "base" || cell.Attrs["outcome"] != "run" {
		t.Fatalf("cell attrs = %v", cell.Attrs)
	}
	var childSum int64
	for _, name := range []string{"store-lookup", "queue-wait", "simulate", "persist"} {
		sp, ok := byName[name]
		if !ok {
			t.Fatalf("missing %q child; got %v", name, spans)
		}
		if sp.Parent != cell.Span || sp.Trace != cell.Trace {
			t.Fatalf("%q not parented to cell: %+v vs cell %+v", name, sp, cell)
		}
		if sp.Dur < 0 || sp.Dur > cell.Dur {
			t.Fatalf("%q duration %dus exceeds cell %dus", name, sp.Dur, cell.Dur)
		}
		childSum += sp.Dur
	}
	// The four phases partition the cell's work, so their durations must
	// sum to no more than the root span's.
	if childSum > cell.Dur {
		t.Fatalf("children sum to %dus > cell %dus", childSum, cell.Dur)
	}
	for _, stage := range []string{"sim.execute", "sim.drain"} {
		sp, ok := byName[stage]
		if !ok {
			t.Fatalf("missing machine stage span %q", stage)
		}
		if sp.Parent != byName["simulate"].Span {
			t.Fatalf("%q not parented to simulate", stage)
		}
		if sp.Dur > byName["simulate"].Dur {
			t.Fatalf("%q duration %dus exceeds simulate %dus", stage, sp.Dur, byName["simulate"].Dur)
		}
	}
}

// TestStoreHitCellSpan: a warm cell's trace shows the store hit and no
// simulate/persist children.
func TestStoreHitCellSpan(t *testing.T) {
	st := newMemStore()
	warmup := NewRunner(quickBase())
	warmup.SetStore(st)
	spec := Spec{CfgID: "base", Workload: "stream", Variant: "none"}
	if _, err := warmup.Result(spec); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	r := NewRunner(quickBase())
	r.SetStore(st)
	r.SetTracer(obs.NewTracer(obs.NewNDJSONExporter(&buf)))
	if _, err := r.Result(spec); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	var cell obs.SpanData
	for _, sp := range collectSpans(t, &buf) {
		names[sp.Name] = true
		if sp.Name == "cell" {
			cell = sp
		}
	}
	if !names["store-lookup"] || names["simulate"] || names["persist"] || names["queue-wait"] {
		t.Fatalf("store-hit cell has wrong children: %v", names)
	}
	if cell.Attrs["outcome"] != "store-hit" {
		t.Fatalf("cell outcome = %v, want store-hit", cell.Attrs["outcome"])
	}
}

// TestMemoHitEmitsNoSpans: replayed results must not re-trace.
func TestMemoHitEmitsNoSpans(t *testing.T) {
	var buf bytes.Buffer
	r := NewRunner(quickBase())
	r.SetTracer(obs.NewTracer(obs.NewNDJSONExporter(&buf)))
	spec := Spec{CfgID: "base", Workload: "stream", Variant: "none"}
	if _, err := r.Result(spec); err != nil {
		t.Fatal(err)
	}
	before := len(collectSpans(t, &buf))
	if _, err := r.Result(spec); err != nil {
		t.Fatal(err)
	}
	if after := len(collectSpans(t, &buf)); after != before {
		t.Fatalf("memo hit emitted %d new spans", after-before)
	}
}

// TestStartedFinishedAccounting: every ResultCtx call is counted once in
// Started and once in Finished, whatever its outcome.
func TestStartedFinishedAccounting(t *testing.T) {
	r := NewRunner(quickBase())
	specs := specGrid([]string{"base"}, []string{"stream", "scan"}, []string{"none"})
	if _, err := r.Prefetch(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Result(specs[0]); err != nil { // memo hit
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.ResultCtx(ctx, Spec{CfgID: "base", Workload: "bfs", Variant: "none"}); err == nil {
		t.Fatal("cancelled call succeeded")
	}
	st := r.Stats()
	if st.Started != 4 || st.Finished != 4 {
		t.Fatalf("started/finished = %d/%d, want 4/4 (%+v)", st.Started, st.Finished, st)
	}
}

// BenchmarkMemoHit measures the replay path with tracing off — the
// baseline for the "tracing off costs nothing" guarantee.
func BenchmarkMemoHit(b *testing.B) { benchMemoHit(b, nil) }

// BenchmarkMemoHitTracerAttached measures the same path with a tracer
// attached; memo hits emit no spans, so the two should be within noise.
func BenchmarkMemoHitTracerAttached(b *testing.B) {
	benchMemoHit(b, obs.NewTracer(obs.NewNDJSONExporter(io.Discard)))
}

func benchMemoHit(b *testing.B, tr *obs.Tracer) {
	r := NewRunner(quickBase())
	r.SetTracer(tr)
	spec := Spec{CfgID: "base", Workload: "stream", Variant: "none"}
	if _, err := r.Result(spec); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Result(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateQuick measures one full (tiny) simulation through the
// runner with tracing off; compare against a -trace run to bound overhead.
func BenchmarkSimulateQuick(b *testing.B) {
	cfg := quickBase()
	cfg.AccessesPerSM = 100
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := NewRunner(cfg)
		if _, err := r.Result(Spec{CfgID: "base", Workload: "stream", Variant: "none"}); err != nil {
			b.Fatal(err)
		}
	}
}
