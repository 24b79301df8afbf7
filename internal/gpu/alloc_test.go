package gpu

import (
	"context"
	"runtime"
	"testing"

	"cachecraft/internal/config"
	"cachecraft/internal/core"
	"cachecraft/internal/obs"
	"cachecraft/internal/protect"
)

// TestMissPathZeroAllocs is the miss path's alloc guard: with the pooled
// completion callbacks (L2 fetch, scheme joins, redundancy and
// reconstruction waiters, read-modify-write follow-ups), running a quick
// divergent cell allocates at most one heap object per warp access under
// every protected scheme — plain, with probes on, and audited. What
// remains is pool and map growth while the run warms up, not per-miss
// closures or per-event records. Run it without -race, which adds
// allocations of its own.
func TestMissPathZeroAllocs(t *testing.T) {
	factories := []struct {
		name string
		f    protect.Factory
	}{
		{"inline-naive", protect.NewInlineNaive},
		{"ecc-cache", protect.NewECCCache},
		{"cachecraft", core.NewFactory(core.DefaultOptions())},
	}
	cfg := config.Quick()
	accesses := float64(cfg.NumSMs * cfg.AccessesPerSM)
	// check runs one cell and bounds its heap allocations per warp access.
	check := func(cell string, run func() error) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if err := run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		perAccess := float64(after.Mallocs-before.Mallocs) / accesses
		t.Logf("%s: %.2f allocs per warp access", cell, perAccess)
		if perAccess > 1 {
			t.Errorf("%s: made %.2f heap allocations per warp access, want at most 1", cell, perAccess)
		}
	}
	for _, wl := range []string{"random", "histogram"} {
		for _, sc := range factories {
			cell := wl + "/" + sc.name
			m, err := New(cfg, wl, sc.f)
			if err != nil {
				t.Fatal(err)
			}
			check(cell+"/plain", func() error { _, err := m.Run(); return err })
			// Observed runs go through Simulate, so the guard covers the
			// machine build and the observer's setup too.
			for _, o := range []Observers{{Probes: obs.NewProbes(1000)}, {Audit: true}} {
				mode := "audit"
				if o.Probes != nil {
					mode = "probes"
				}
				check(cell+"/"+mode, func() error {
					_, err := Simulate(context.Background(), cfg, wl, sc.name, sc.f, nil, o)
					return err
				})
			}
		}
	}
}
