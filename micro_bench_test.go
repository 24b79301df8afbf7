// Micro-benchmarks for the substrate hot paths: event scheduling, cache
// lookup cost, DRAM scheduling, and end-to-end simulation rate. These are
// conventional testing.B benchmarks (per-op timing), unlike the
// experiment harness in bench_test.go.
package cachecraft

import (
	"math/rand"
	"testing"

	"cachecraft/internal/cache"
	"cachecraft/internal/config"
	"cachecraft/internal/dram"
	"cachecraft/internal/gpu"
	"cachecraft/internal/mem"
	"cachecraft/internal/protect"
	"cachecraft/internal/sim"
	"cachecraft/internal/trace"
)

// benchHandler is a minimal typed handler for event-scheduling benchmarks.
type benchHandler struct{ n uint64 }

func (h *benchHandler) OnEvent(_ sim.Cycle, a0, _ uint64) { h.n += a0 }

// BenchmarkEngineSchedulePost measures the pooled typed-handler scheduling
// path: one Post + one Step per op, zero allocations in steady state.
func BenchmarkEngineSchedulePost(b *testing.B) {
	eng := sim.NewEngine()
	h := &benchHandler{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.Post(eng.Now()+sim.Cycle(i%5), h, 1, 0)
		eng.Step()
	}
}

func BenchmarkCacheAccessHit(b *testing.B) {
	c := cache.New(cache.Config{
		Name: "bench", SizeBytes: 1 << 20, Ways: 16,
		LineBytes: 128, SectorBytes: 32, HashSets: true,
	})
	var ev cache.Eviction
	for a := uint64(0); a < 1<<20; a += 128 {
		c.FillInto(a, 0b1111, 0, &ev)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(uint64(i*32)%(1<<20), false)
	}
}

func BenchmarkCacheFillEvict(b *testing.B) {
	c := cache.New(cache.Config{
		Name: "bench", SizeBytes: 256 << 10, Ways: 16,
		LineBytes: 128, SectorBytes: 32, HashSets: true,
	})
	var ev cache.Eviction
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.FillInto(uint64(i)*128, 0b1111, 0b0001, &ev)
	}
}

func BenchmarkDRAMRandomAccess(b *testing.B) {
	eng := sim.NewEngine()
	d := dram.New(eng, dram.DefaultConfig())
	rng := rand.New(rand.NewSource(2))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := uint64(rng.Intn(1<<26)) &^ 31
		d.Submit(eng.Now(), mem.Request{Addr: addr, Bytes: 32, Class: mem.Demand})
		if i%64 == 0 {
			eng.Run(1 << 62)
		}
	}
	eng.Run(1 << 62)
}

func BenchmarkCoalesce(b *testing.B) {
	w, err := trace.Build("random", trace.DefaultParams(0, 4, 1))
	if err != nil {
		b.Fatal(err)
	}
	a, _ := w.Next()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gpu.Coalesce(a, 32)
	}
}

// BenchmarkEndToEndSimulation measures simulator throughput (warp accesses
// simulated per second) on the quick configuration. accesses/sec is the
// headline simulation-rate number tracked in BENCH_sim.json.
func BenchmarkEndToEndSimulation(b *testing.B) {
	cfg := config.Quick()
	cfg.AccessesPerSM = 300
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := gpu.New(cfg, "scan", protect.NewInlineNaive)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := m.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	perRun := float64(cfg.NumSMs * cfg.AccessesPerSM)
	b.ReportMetric(perRun, "accesses/op")
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(perRun*float64(b.N)/s, "accesses/sec")
	}
}
