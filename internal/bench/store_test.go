package bench

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"cachecraft/internal/config"
	"cachecraft/internal/gpu"
	"cachecraft/internal/store"
)

// TestWarmStoreRerunPerformsZeroSimulations is the headline property of
// the persistent store: a fresh runner (a "new process") re-running an
// unchanged grid against a warm store must answer everything from disk,
// with identical results.
func TestWarmStoreRerunPerformsZeroSimulations(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	specs := specGrid([]string{"base"}, []string{"stream", "scan"}, []string{"none", "cachecraft"})

	cold := NewRunner(quickBase())
	cold.SetStore(st)
	if _, err := cold.Prefetch(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	cs := cold.Stats()
	if cs.Runs != len(specs) || cs.StoreMisses != len(specs) || cs.StoreHits != 0 {
		t.Fatalf("cold stats off: %+v", cs)
	}
	if cs.StoreErrors != 0 {
		t.Fatalf("cold run failed to persist: %+v", cs)
	}

	warm := NewRunner(quickBase())
	warm.SetStore(st)
	if _, err := warm.Prefetch(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	ws := warm.Stats()
	if ws.Runs != 0 {
		t.Fatalf("warm re-run simulated: %+v", ws)
	}
	if ws.StoreHits != len(specs) {
		t.Fatalf("warm re-run missed the store: %+v", ws)
	}
	for _, s := range specs {
		a, err := cold.Result(s)
		if err != nil {
			t.Fatal(err)
		}
		b, err := warm.Result(s)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%v: store round trip changed the result:\ncold %+v\nwarm %+v", s, a, b)
		}
	}
}

// TestWarmStoreOutputByteIdentical renders an experiment cold (simulating
// and persisting) and again warm (store only) and requires byte-identical
// output: the -store analogue of the -j determinism guarantee.
func TestWarmStoreOutputByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("renders a full experiment twice")
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	render := func() (string, Stats) {
		r := NewRunner(quickBase())
		r.SetStore(st)
		var buf bytes.Buffer
		if err := fig4(r, quickBase(), &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String(), r.Stats()
	}
	coldOut, coldStats := render()
	warmOut, warmStats := render()
	if coldStats.Runs == 0 {
		t.Fatal("cold render simulated nothing; test is vacuous")
	}
	if warmStats.Runs != 0 {
		t.Fatalf("warm render simulated: %+v", warmStats)
	}
	if coldOut != warmOut {
		t.Fatalf("warm output differs from cold:\n--- cold ---\n%s\n--- warm ---\n%s", coldOut, warmOut)
	}
}

// TestAddConfigChangesStoreAddress: the store is keyed by configuration
// content, so a different config under the same id must miss rather than
// replay the old config's result.
func TestAddConfigChangesStoreAddress(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(quickBase())
	r.SetStore(st)
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
	if r.Stats().StoreHits != 0 {
		t.Fatalf("changed config hit the store: %+v", r.Stats())
	}
	if b.Instructions <= a.Instructions {
		t.Fatal("stale stored result served for a changed config")
	}
}

// stubStore lets the runner-side accounting be tested without disk.
type stubStore struct {
	mu      sync.Mutex
	results map[string]gpu.Result
	saveErr error
	saves   int
}

func (s *stubStore) key(cfg config.GPU, wl, sc string) string { return store.Fingerprint(cfg, wl, sc) }

func (s *stubStore) Lookup(cfg config.GPU, wl, sc string) (gpu.Result, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	res, ok := s.results[s.key(cfg, wl, sc)]
	return res, ok
}

func (s *stubStore) Save(cfg config.GPU, wl, sc string, res gpu.Result) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.saves++
	if s.saveErr != nil {
		return s.saveErr
	}
	if s.results == nil {
		s.results = make(map[string]gpu.Result)
	}
	s.results[s.key(cfg, wl, sc)] = res
	return nil
}

// TestStoreSaveFailureIsCountedNotFatal: a dark store (full disk) must
// not fail callers, but must be visible in Stats.
func TestStoreSaveFailureIsCountedNotFatal(t *testing.T) {
	st := &stubStore{saveErr: errors.New("disk full")}
	r := NewRunner(quickBase())
	r.SetStore(st)
	s := Spec{CfgID: "base", Workload: "stream", Variant: "none"}
	if _, err := r.Result(s); err != nil {
		t.Fatalf("save failure surfaced to caller: %v", err)
	}
	got := r.Stats()
	if got.Runs != 1 || got.StoreErrors != 1 {
		t.Fatalf("stats = %+v, want 1 run and 1 store error", got)
	}
}

// TestStatsMemoHitsAndDedups: repeated sequential requests are memo hits;
// concurrent requests for one spec split into one run and n-1 hits or
// dedups (which bucket depends on timing, but the sum is exact).
func TestStatsMemoHitsAndDedups(t *testing.T) {
	r := NewRunner(quickBase())
	s := Spec{CfgID: "base", Workload: "stream", Variant: "none"}
	if _, err := r.Result(s); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Result(s); err != nil {
		t.Fatal(err)
	}
	if got := r.Stats(); got.Runs != 1 || got.MemoHits != 1 || got.Dedups != 0 {
		t.Fatalf("sequential stats = %+v, want 1 run, 1 memo hit", got)
	}

	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := r.Result(Spec{CfgID: "base", Workload: "scan", Variant: "none"}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	got := r.Stats()
	if got.Runs != 2 {
		t.Fatalf("concurrent stats = %+v, want 2 runs total", got)
	}
	if got.MemoHits+got.Dedups != 1+(n-1) {
		t.Fatalf("stats = %+v, want memo hits + dedups = %d", got, 1+(n-1))
	}
}

// TestStoreHitSkipsWorkerSlots: store hits must not consume simulation
// slots — a warm grid completes even with a 1-worker pool and never
// touches Save.
func TestStoreHitSkipsWorkerSlots(t *testing.T) {
	seed := &stubStore{}
	warmup := NewRunner(quickBase())
	warmup.SetStore(seed)
	specs := specGrid([]string{"base"}, []string{"stream", "scan"}, []string{"none"})
	if _, err := warmup.Prefetch(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	savesAfterWarmup := seed.saves

	r := NewRunner(quickBase())
	r.SetStore(seed)
	r.SetWorkers(1)
	if _, err := r.Prefetch(context.Background(), specs); err != nil {
		t.Fatal(err)
	}
	got := r.Stats()
	if got.Runs != 0 || got.StoreHits != len(specs) {
		t.Fatalf("stats = %+v, want all store hits", got)
	}
	if seed.saves != savesAfterWarmup {
		t.Fatal("store hits re-saved records")
	}
}
