package chaos

import (
	"errors"
	"testing"
	"time"
)

// drawKinds runs n operations at site and reports which ones faulted —
// the decision stream a seed must reproduce exactly.
func drawKinds(in *Injector, site Site, n int) []bool {
	out := make([]bool, n)
	for i := range out {
		d := in.Fault(site, "key")
		out[i] = d.Err != nil || d.Crash || d.Delay > 0
	}
	return out
}

func TestSameSeedSameStream(t *testing.T) {
	rules := []Rule{
		{Site: SiteStorePut, Kind: KindError, P: 0.3},
		{Site: SiteWorkerExec, Kind: KindCrash, P: 0.2},
	}
	a := New(42, rules...)
	b := New(42, rules...)
	for _, site := range []Site{SiteStorePut, SiteWorkerExec} {
		ka, kb := drawKinds(a, site, 500), drawKinds(b, site, 500)
		for i := range ka {
			if ka[i] != kb[i] {
				t.Fatalf("site %s op %d: streams diverge under one seed", site, i)
			}
		}
	}
	// A different seed produces a different stream (a fresh injector for
	// the reference: a's stream position is already past 500).
	ka, kc := drawKinds(New(42, rules...), SiteStorePut, 500), drawKinds(New(43, rules...), SiteStorePut, 500)
	diff := 0
	for i := range ka {
		if ka[i] != kc[i] {
			diff++
		}
	}
	if diff == 0 {
		t.Fatal("seeds 42 and 43 produced identical 500-op streams")
	}
}

func TestSitesAreIndependentStreams(t *testing.T) {
	rules := []Rule{
		{Site: SiteStorePut, Kind: KindError, P: 0.5},
		{Site: SiteStoreGet, Kind: KindError, P: 0.5},
	}
	// Interleaving draws at another site must not shift this site's
	// stream: chaos at the store cannot change what the worker sees.
	plain := New(7, rules...)
	ref := drawKinds(plain, SiteStorePut, 200)
	mixed := New(7, rules...)
	got := make([]bool, 0, 200)
	for i := 0; i < 200; i++ {
		mixed.Fault(SiteStoreGet, "noise")
		d := mixed.Fault(SiteStorePut, "key")
		got = append(got, d.Err != nil)
	}
	for i := range ref {
		if ref[i] != got[i] {
			t.Fatalf("op %d: store.get draws perturbed store.put's stream", i)
		}
	}
}

func TestProbabilityBounds(t *testing.T) {
	never := New(1, Rule{Site: SiteStorePut, Kind: KindError, P: 0})
	for i := 0; i < 1000; i++ {
		if err := never.Inject(SiteStorePut, ""); err != nil {
			t.Fatalf("p=0 injected a fault on op %d", i)
		}
	}
	always := New(1, Rule{Site: SiteStorePut, Kind: KindError, P: 1})
	for i := 0; i < 1000; i++ {
		if err := always.Inject(SiteStorePut, ""); !errors.Is(err, ErrInjected) {
			t.Fatalf("p=1 let op %d through (err=%v)", i, err)
		}
	}
	if got := always.InjectedTotal(); got != 1000 {
		t.Fatalf("InjectedTotal = %d, want 1000", got)
	}
	if got := always.Stats()[SiteStorePut]; got != 1000 {
		t.Fatalf("Stats[store.put] = %d, want 1000", got)
	}
}

func TestAfterAndLimitShapeTheSchedule(t *testing.T) {
	in := New(1, Rule{Site: SiteStorePut, Kind: KindError, P: 1, After: 10, Limit: 5})
	fired := 0
	for i := 0; i < 100; i++ {
		err := in.Inject(SiteStorePut, "")
		if err != nil {
			fired++
			if i < 10 {
				t.Fatalf("rule fired on op %d despite After=10", i)
			}
		}
	}
	if fired != 5 {
		t.Fatalf("rule fired %d times, want Limit=5", fired)
	}
}

func TestMatchRestrictsToKeys(t *testing.T) {
	in := New(1, Rule{Site: SiteWorkerExec, Kind: KindCrash, P: 1, Match: "poison"})
	if d := in.Fault(SiteWorkerExec, "healthy-cell"); d.Crash || d.Err != nil {
		t.Fatalf("rule fired on a non-matching key: %+v", d)
	}
	d := in.Fault(SiteWorkerExec, "cell-poison-1")
	if !d.Crash || !errors.Is(d.Err, ErrInjected) {
		t.Fatalf("matching key did not crash: %+v", d)
	}
}

func TestLatencyComposesWithError(t *testing.T) {
	in := New(1,
		Rule{Site: SiteServeRequest, Kind: KindLatency, P: 1, Delay: time.Millisecond},
		Rule{Site: SiteServeRequest, Kind: KindError, P: 1})
	d := in.Fault(SiteServeRequest, "")
	if d.Delay != time.Millisecond {
		t.Fatalf("delay = %v, want 1ms", d.Delay)
	}
	if !errors.Is(d.Err, ErrInjected) {
		t.Fatalf("error rule did not fire after latency rule: %+v", d)
	}
}

func TestNilInjectorIsOff(t *testing.T) {
	var in *Injector
	if err := in.Inject(SiteStorePut, "x"); err != nil {
		t.Fatal(err)
	}
	if d := in.Fault(SiteWorkerExec, "x"); d != (Decision{}) {
		t.Fatalf("nil injector decided %+v", d)
	}
	if in.Stats() != nil || in.InjectedTotal() != 0 || in.Seed() != 0 {
		t.Fatal("nil injector reported state")
	}
}

// TestChaosOffZeroAllocs pins the hook contract the acceptance criteria
// name: with chaos off (nil injector) and with an injector that has no
// rules for the site, consulting a hook allocates nothing — the
// production hot paths pay one branch, not garbage. Run by the CI
// alloc-guard step (-run 'ZeroAllocs', without -race).
func TestChaosOffZeroAllocs(t *testing.T) {
	var off *Injector
	if n := testing.AllocsPerRun(1000, func() {
		if off.Inject(SiteStorePut, "fingerprint") != nil {
			t.Fatal("nil injector injected")
		}
		_ = off.Fault(SiteWorkerExec, "fingerprint")
	}); n != 0 {
		t.Fatalf("nil-injector hook allocates %.1f/op, want 0", n)
	}
	foreign := New(1, Rule{Site: SiteStorePut, Kind: KindError, P: 1})
	if n := testing.AllocsPerRun(1000, func() {
		_ = foreign.Fault(SiteWorkerExec, "fingerprint") // no rules here
	}); n != 0 {
		t.Fatalf("rule-less site hook allocates %.1f/op, want 0", n)
	}
	// Even a live, losing draw stays allocation-free.
	quiet := New(1, Rule{Site: SiteStorePut, Kind: KindError, P: 0})
	if n := testing.AllocsPerRun(1000, func() {
		_ = quiet.Fault(SiteStorePut, "fingerprint")
	}); n != 0 {
		t.Fatalf("losing draw allocates %.1f/op, want 0", n)
	}
}

func TestParseSpec(t *testing.T) {
	in, err := ParseSpec("seed=9;store.put:error:0.25;worker.exec:crash:0.1,match=abc,after=2,limit=3;serve.request:latency:1,delay=2ms")
	if err != nil {
		t.Fatal(err)
	}
	if in.Seed() != 9 {
		t.Fatalf("seed = %d, want 9", in.Seed())
	}
	d := in.Fault(SiteServeRequest, "")
	if d.Delay != 2*time.Millisecond || d.Err != nil {
		t.Fatalf("latency rule decision: %+v", d)
	}

	if in, err := ParseSpec(""); err != nil || in != nil {
		t.Fatalf("empty spec: (%v, %v), want (nil, nil)", in, err)
	}
	for _, bad := range []string{
		"store.put",                    // not SITE:KIND:P
		"store.put:explode:0.5",        // unknown kind
		"store.put:error:1.5",          // probability out of range
		"store.put:error:0.5,zap=1",    // unknown modifier
		"serve.request:latency:0.5",    // latency without delay
		"seed=x;store.put:error:0.5",   // bad seed
		"seed=5",                       // no rules
		"store.put:error:0.5,after=-1", // negative after
		"journal.append:error:0.5",     // site nothing calls
		"worker.exce:crash:0.1",        // typo'd site
	} {
		if _, err := ParseSpec(bad); err == nil {
			t.Errorf("ParseSpec(%q) accepted", bad)
		}
	}
}
