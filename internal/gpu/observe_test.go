package gpu

import (
	"context"
	"strings"
	"sync"
	"testing"

	"cachecraft/internal/obs"
	"cachecraft/internal/protect"
)

// spanLog collects finished spans by name.
type spanLog struct {
	mu    sync.Mutex
	spans map[string]obs.SpanData
}

func (l *spanLog) ExportSpan(d obs.SpanData) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.spans == nil {
		l.spans = make(map[string]obs.SpanData)
	}
	l.spans[d.Name] = d
}

// TestSimulateStageSpans: Simulate brackets the run with sim.execute,
// annotated with the SM count and the result's cycle count, then
// sim.drain, both parented to the caller's span.
func TestSimulateStageSpans(t *testing.T) {
	var log spanLog
	tr := obs.NewTracer(&log)
	ctx, parent := tr.Start(context.Background(), "cell")
	cfg := quickCfg()
	res, err := Simulate(ctx, cfg, "stream", "none", protect.NewNone, nil, Observers{Tracer: tr})
	if err != nil {
		t.Fatal(err)
	}
	parent.End()
	exec, ok := log.spans["sim.execute"]
	if !ok {
		t.Fatalf("no sim.execute span in %v", log.spans)
	}
	if exec.Attrs["sms"] != cfg.NumSMs || exec.Attrs["cycles"] != uint64(res.Cycles) {
		t.Fatalf("sim.execute attrs = %v, want sms %d and cycles %d", exec.Attrs, cfg.NumSMs, res.Cycles)
	}
	if _, ok := exec.Attrs["converged"]; ok {
		t.Fatalf("converged run marked: %v", exec.Attrs)
	}
	drain, ok := log.spans["sim.drain"]
	if !ok {
		t.Fatalf("no sim.drain span in %v", log.spans)
	}
	cell := log.spans["cell"]
	if exec.Parent != cell.Span || drain.Parent != cell.Span {
		t.Fatalf("stage spans not parented to the caller's span: execute %+v drain %+v cell %+v", exec, drain, cell)
	}
}

// TestSimulateNonConvergenceSpans: a run cut off by MaxCycles returns the
// non-convergence error, marks sim.execute converged=false, and never
// starts the drain.
func TestSimulateNonConvergenceSpans(t *testing.T) {
	var log spanLog
	cfg := quickCfg()
	cfg.MaxCycles = 10
	_, err := Simulate(context.Background(), cfg, "stream", "none", protect.NewNone, nil,
		Observers{Tracer: obs.NewTracer(&log)})
	if err == nil || !strings.Contains(err.Error(), "did not converge") {
		t.Fatalf("err = %v, want non-convergence", err)
	}
	exec, ok := log.spans["sim.execute"]
	if !ok {
		t.Fatalf("no sim.execute span in %v", log.spans)
	}
	if exec.Attrs["converged"] != false {
		t.Fatalf("sim.execute attrs = %v, want converged=false", exec.Attrs)
	}
	if _, ok := log.spans["sim.drain"]; ok {
		t.Fatal("sim.drain emitted for a run that did not converge")
	}
}
