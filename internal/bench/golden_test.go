package bench

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"cachecraft/internal/config"
	"cachecraft/internal/schemes"
	"cachecraft/internal/trace"
)

// raceDetector is set when the tests are built with -race (race_test.go).
var raceDetector bool

// goldenConfigs are the configurations TestCellDigestsMatchGolden pins:
// config.Quick (the cachecraft-sweep -quick grid) and odd geometries that
// stress the DRAM scheduler and the L2 miss path (short refresh, a
// one-deep FR-FCFS window, a bank count that fills every bit of the
// 64-bit bank masks, two MSHRs with no decode latency, correctable-error
// injection).
func goldenConfigs() []struct {
	id  string
	cfg config.GPU
} {
	base := config.Quick()
	refresh := base
	refresh.DRAM.TREFI, refresh.DRAM.TRFC = 400, 60
	window1 := base
	window1.DRAM.SchedulerWindow = 1
	banks64 := base
	banks64.DRAM.BanksPerChannel = 64
	mshr2 := base
	mshr2.L2MSHRs, mshr2.DecodeLat = 2, 0
	errs := base
	errs.ErrorRatePPM, errs.ErrorPenalty = 100_000, 20
	return []struct {
		id  string
		cfg config.GPU
	}{
		{"quick", base},
		{"trefi400-trfc60", refresh},
		{"window1", window1},
		{"banks64", banks64},
		{"mshr2-decode0", mshr2},
		{"errors-100000ppm", errs},
	}
}

// TestCellDigestsMatchGolden simulates every workload × scheme on each
// golden configuration, and every workload × CacheCraft ablation on the
// first, and compares the SHA-256 of each cell's
// gpu.Result JSON with testdata/golden/<SimRevision>/cells.txt. Unlike
// the rendered sweep, which rounds, a digest changes with any counter of
// any cell, so a change to simulated results without a SimRevision bump
// fails here even where the figures would hide it.
func TestCellDigestsMatchGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("golden cell grid is slow")
	}
	r := NewRunner(quickBase())
	ablations := AblationVariants()
	for name, opt := range ablations {
		r.AddCacheCraftVariant(name, opt)
	}
	var specs []Spec
	for i, gc := range goldenConfigs() {
		r.AddConfig(gc.id, gc.cfg)
		variants := schemes.All()
		if i == 0 {
			variants = append(variants, sortedKeys(ablations)...)
		}
		for _, wl := range trace.Names() {
			for _, v := range variants {
				specs = append(specs, Spec{CfgID: gc.id, Workload: wl, Variant: v})
			}
		}
	}
	cells, err := r.Prefetch(context.Background(), specs)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	b.WriteString("# config workload scheme sha256(json(gpu.Result))\n")
	for _, s := range specs {
		body, err := json.Marshal(cells[s])
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s %s %s %x\n", s.CfgID, s.Workload, s.Variant, sha256.Sum256(body))
	}
	checkGolden(t, "cells.txt", b.String())
}

// TestDefaultSweepMatchesGolden renders every experiment on
// config.Default exactly as `cachecraft-sweep -run all` prints it on
// stdout (a header per experiment, its tables, and the deterministic
// results footer) and compares it with
// testdata/golden/<SimRevision>/default-all.txt. These are the figures
// EXPERIMENTS.md reports, and TestDefaultSweepClaims reads its claims
// from the committed file.
func TestDefaultSweepMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("default-config sweep is slow")
	}
	if raceDetector {
		// About 6 minutes on two CPUs under the race detector, which
		// with this package's other sweeps passes the test binary's
		// default timeout; the plain run checks the same output.
		t.Skip("default-config sweep is too slow under the race detector")
	}
	base := config.Default()
	r := NewRunner(base)
	results := func() int {
		s := r.Stats()
		return s.Runs + s.StoreHits + s.RemoteHits
	}
	var b strings.Builder
	for _, e := range All() {
		before := results()
		fmt.Fprintf(&b, "\n### %s — %s\n\n", e.ID, e.Title)
		if err := e.Run(r, base, &b); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		fmt.Fprintf(&b, "\n[%s: %d new results; %d cached total]\n", e.ID, results()-before, results())
	}
	checkGolden(t, "default-all.txt", b.String())
}
