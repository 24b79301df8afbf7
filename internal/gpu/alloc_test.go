package gpu

import (
	"runtime"
	"testing"

	"cachecraft/internal/config"
	"cachecraft/internal/core"
	"cachecraft/internal/protect"
)

// TestMissPathZeroAllocs is the miss path's alloc guard: with the pooled
// completion callbacks (L2 fetch, scheme joins, redundancy and
// reconstruction waiters, read-modify-write follow-ups), running a quick
// divergent cell allocates at most one heap object per warp access under
// every protected scheme. What remains is pool and map growth while the
// run warms up, not per-miss closures. Run it without -race, which adds
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
	for _, wl := range []string{"random", "histogram"} {
		for _, sc := range factories {
			m, err := New(cfg, wl, sc.f)
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			perAccess := float64(after.Mallocs-before.Mallocs) / accesses
			t.Logf("%s/%s: %.2f allocs per warp access", wl, sc.name, perAccess)
			if perAccess > 1 {
				t.Errorf("%s/%s: Machine.Run made %.2f heap allocations per warp access, want at most 1",
					wl, sc.name, perAccess)
			}
		}
	}
}
