package bench

import (
	"bytes"
	"strings"
	"sync"
	"testing"

	"cachecraft/internal/obs"
)

// TestProbesDoNotChangeOutput is the PR's stdout contract: the same
// experiment renders byte-identical output with probes off, probes on,
// and probes on with a timeline collecting cells — probe data flows only
// through the sink, never into the rendered tables.
func TestProbesDoNotChangeOutput(t *testing.T) {
	base := quickBase()
	exp, err := ByID("fig4")
	if err != nil {
		t.Fatal(err)
	}

	render := func(attach func(*Runner)) []byte {
		r := NewRunner(base)
		r.SetWorkers(4)
		if attach != nil {
			attach(r)
		}
		var buf bytes.Buffer
		if err := exp.Run(r, base, &buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	off := render(nil)
	var sunk int
	var mu sync.Mutex
	on := render(func(r *Runner) {
		r.SetProbes(500, func(s Spec, p *obs.Probes) {
			mu.Lock()
			sunk++
			mu.Unlock()
		})
	})
	tl := obs.NewTimeline()
	timed := render(func(r *Runner) {
		r.SetProbes(500, func(s Spec, p *obs.Probes) {
			tl.AddCell(s.CfgID+"/"+s.Workload+"/"+s.Variant, p)
		})
	})

	if !bytes.Equal(off, on) {
		t.Fatalf("probes-on output differs from probes-off:\n--- off ---\n%s\n--- on ---\n%s", off, on)
	}
	if !bytes.Equal(off, timed) {
		t.Fatal("timeline-collecting output differs from probes-off")
	}
	if sunk == 0 {
		t.Fatal("probe sink never received a cell")
	}
	cells := tl.Cells()
	if len(cells) != sunk {
		t.Fatalf("timeline holds %d cells, sink saw %d", len(cells), sunk)
	}

	// Every executed cell carries the catalog's core tracks, flushed and
	// non-empty; the NDJSON export of those cells must round-trip.
	names := map[string]bool{}
	for _, cell := range cells {
		if len(cell.Series) == 0 {
			t.Fatalf("cell %s has no probe tracks", cell.Label)
		}
		for _, sd := range cell.Series {
			names[sd.Name] = true
			if len(sd.Samples) == 0 {
				t.Fatalf("cell %s track %s is empty after flush", cell.Label, sd.Name)
			}
		}
	}
	for _, want := range []string{
		"sm.issue", "l2.mshr_occupancy", "dram.bytes.demand",
		"dram.row_hit_rate", "xbar.req.bytes", "sim.queue_depth",
	} {
		if !names[want] {
			t.Fatalf("no cell carried track %q; tracks seen: %v", want, names)
		}
	}
	var buf bytes.Buffer
	if err := tl.WriteNDJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := obs.ReadNDJSON(&buf); err != nil {
		t.Fatalf("timeline NDJSON does not round-trip: %v", err)
	}
}

// TestProbeSinkSkipsUnexecutedResults: memo and store hits re-serve
// results without simulating, so they must not invoke the sink — probes
// exist only for simulations that actually ran.
func TestProbeSinkSkipsUnexecutedResults(t *testing.T) {
	r := NewRunner(quickBase())
	var specs []string
	r.SetProbes(500, func(s Spec, p *obs.Probes) {
		specs = append(specs, s.Workload+"/"+s.Variant)
		if len(p.Snapshot()) == 0 {
			t.Errorf("sink got an empty probe set for %s", s.Workload)
		}
	})
	spec := Spec{CfgID: "base", Workload: "stream", Variant: "none"}
	if _, err := r.Result(spec); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Result(spec); err != nil { // memo hit
		t.Fatal(err)
	}
	if len(specs) != 1 || specs[0] != "stream/none" {
		t.Fatalf("sink calls = %v, want exactly one for the executed run", specs)
	}
	if r.Stats().Runs != 1 {
		t.Fatalf("runs = %d, want 1", r.Stats().Runs)
	}
}

// TestProbeResultsMatchUnprobed: attaching probes must not perturb
// simulated timing — cycles and traffic are identical with and without.
func TestProbeResultsMatchUnprobed(t *testing.T) {
	spec := Spec{CfgID: "base", Workload: "spmv", Variant: "cachecraft"}
	plain := NewRunner(quickBase())
	a, err := plain.Result(spec)
	if err != nil {
		t.Fatal(err)
	}
	probed := NewRunner(quickBase())
	probed.SetProbes(250, func(Spec, *obs.Probes) {})
	b, err := probed.Result(spec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Instructions != b.Instructions {
		t.Fatalf("probes changed the simulation: %d/%d cycles, %d/%d instructions",
			a.Cycles, b.Cycles, a.Instructions, b.Instructions)
	}
	if !strings.EqualFold(a.Scheme, b.Scheme) {
		t.Fatalf("scheme mismatch: %s vs %s", a.Scheme, b.Scheme)
	}
}
