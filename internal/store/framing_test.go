package store

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"cachecraft/internal/config"
	"cachecraft/internal/gpu"
	"cachecraft/internal/schemes"
	"cachecraft/internal/trace"
	"cachecraft/internal/version"
)

// envelope is the struct the store's writer once marshalled with
// encoding/json; Put's hand-built framing must reproduce its bytes.
type envelope struct {
	Sum  string          `json:"sum"`
	Body json.RawMessage `json:"body"`
}

// gridConfig is the reduced quick configuration the grid tests simulate:
// every workload and scheme, small enough to run in a unit test.
func gridConfig() config.GPU {
	cfg := config.Quick()
	cfg.NumSMs = 2
	cfg.AccessesPerSM = 300
	return cfg
}

// simulatedRecord runs one grid cell and wraps its result as the record
// Save would write.
func simulatedRecord(tb testing.TB, workload, scheme string) Record {
	tb.Helper()
	cfg := gridConfig()
	factory, err := schemes.ByName(scheme)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := gpu.Simulate(context.Background(), cfg, workload, scheme, factory, nil, gpu.Observers{})
	if err != nil {
		tb.Fatal(err)
	}
	return Record{
		Fingerprint: Fingerprint(cfg, workload, scheme),
		Sim:         version.String(),
		Workload:    workload,
		Scheme:      scheme,
		Result:      res,
	}
}

// TestPutMatchesPreviousWriter pins the on-disk format for every quick
// grid cell: the file Put writes is byte-identical to the marshalled
// envelope plus newline the previous writer produced, so existing stores
// keep hitting, and it reads back to the record. The same body in an
// equivalent but non-canonical envelope is a miss.
func TestPutMatchesPreviousWriter(t *testing.T) {
	s := mustOpen(t)
	for _, wl := range trace.Names() {
		for _, scheme := range schemes.All() {
			rec := simulatedRecord(t, wl, scheme)
			if err := s.Put(rec); err != nil {
				t.Fatal(err)
			}
			body, sum, err := EncodeRecord(rec)
			if err != nil {
				t.Fatal(err)
			}
			prev, err := json.Marshal(envelope{Sum: sum, Body: body})
			if err != nil {
				t.Fatal(err)
			}
			path := s.path(rec.Fingerprint)
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if want := append(prev, '\n'); !bytes.Equal(got, want) {
				t.Fatalf("%s/%s: Put wrote\n%s\nprevious writer\n%s", wl, scheme, got, want)
			}
			back, ok := s.Get(rec.Fingerprint)
			if !ok || !reflect.DeepEqual(back, rec) {
				t.Fatalf("%s/%s: record did not round-trip (hit=%v)", wl, scheme, ok)
			}

			reframed := map[string][]byte{
				"pretty":    []byte("{\n  \"sum\": \"" + sum + "\",\n  \"body\": " + string(body) + "\n}\n"),
				"reordered": []byte(`{"body":` + string(body) + `,"sum":"` + sum + `"}`),
			}
			for name, data := range reframed {
				if err := os.WriteFile(path, data, 0o644); err != nil {
					t.Fatal(err)
				}
				if _, ok := s.Get(rec.Fingerprint); ok {
					t.Fatalf("%s/%s: %s envelope served by Get", wl, scheme, name)
				}
				if _, _, ok := s.GetRaw(rec.Fingerprint); ok {
					t.Fatalf("%s/%s: %s envelope served by GetRaw", wl, scheme, name)
				}
			}
		}
	}
}

// FuzzStoreRecord writes arbitrary bytes where a record lives. Get and
// GetRaw must not panic, must agree on hit or miss, and a hit's body must
// hash to its sum and decode under json.Unmarshal to exactly Get's
// record, which carries the requested fingerprint.
func FuzzStoreRecord(f *testing.F) {
	s, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	fp := Fingerprint(config.Quick(), "stream", "none")
	if err := s.Put(record(fp, 7)); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(s.path(fp))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(bytes.TrimSuffix(valid, []byte("\n")))
	f.Add(valid[:len(valid)/2])
	f.Add(append(append([]byte{}, valid...), valid...))
	f.Add([]byte(`{"sum":"","body":{}}`))
	f.Add([]byte("not json at all"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(s.path(fp), data, 0o644); err != nil {
			t.Fatal(err)
		}
		rec, ok := s.Get(fp)
		body, sum, rawOK := s.GetRaw(fp)
		if ok != rawOK {
			t.Fatalf("Get hit=%v but GetRaw hit=%v", ok, rawOK)
		}
		if !ok {
			return
		}
		if rec.Fingerprint != fp {
			t.Fatalf("Get served fingerprint %q at %q", rec.Fingerprint, fp)
		}
		if h := sha256.Sum256(body); hex.EncodeToString(h[:]) != sum {
			t.Fatalf("GetRaw body does not hash to its sum %s", sum)
		}
		var back Record
		if err := json.Unmarshal(body, &back); err != nil || !reflect.DeepEqual(back, rec) {
			t.Fatalf("GetRaw body decodes to %+v (err %v), Get served %+v", back, err, rec)
		}
	})
}

var (
	sinkBody   []byte
	sinkResult gpu.Result
)

// raceDetector is set when the tests are built with -race (race_test.go).
var raceDetector bool

// TestStoreHitAllocs pins the allocations of one GetRaw and one Lookup hit
// on the record the benchmarks below read, so a reflective decode, a
// record built only to be discarded or a per-call configuration encoding
// cannot come back unnoticed. GetRaw's are the path, the file read and
// the checksum string; nearly all of Lookup's are the counter sets' keys
// and the record's strings. The race detector adds allocations of its
// own, so the pin holds only without it.
func TestStoreHitAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts differ under -race")
	}
	const maxGetRaw, maxLookup = 8.0, 74.0
	s := mustOpen(t)
	rec := simulatedRecord(t, "random", "cachecraft")
	if err := s.Put(rec); err != nil {
		t.Fatal(err)
	}
	cfg := gridConfig()
	if _, ok := s.Lookup(cfg, "random", "cachecraft"); !ok {
		t.Fatal("miss")
	}
	if n := testing.AllocsPerRun(100, func() { sinkBody, _, _ = s.GetRaw(rec.Fingerprint) }); n > maxGetRaw {
		t.Errorf("GetRaw hit allocates %.0f times, want at most %.0f", n, maxGetRaw)
	}
	if n := testing.AllocsPerRun(100, func() { sinkResult, _ = s.Lookup(cfg, "random", "cachecraft") }); n > maxLookup {
		t.Errorf("Lookup hit allocates %.0f times, want at most %.0f", n, maxLookup)
	}
}

// BenchmarkGetRaw and BenchmarkLookup time a store hit on a real
// CacheCraft record (four populated counter sets): the read, framing,
// checksum and identity check, then GetRaw's check-only walk or Lookup's
// full decode.
func BenchmarkGetRaw(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	rec := simulatedRecord(b, "random", "cachecraft")
	if err := s.Put(rec); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body, _, ok := s.GetRaw(rec.Fingerprint)
		if !ok {
			b.Fatal("miss")
		}
		sinkBody = body
	}
}

func BenchmarkLookup(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	rec := simulatedRecord(b, "random", "cachecraft")
	if err := s.Put(rec); err != nil {
		b.Fatal(err)
	}
	cfg := gridConfig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, ok := s.Lookup(cfg, "random", "cachecraft")
		if !ok {
			b.Fatal("miss")
		}
		sinkResult = res
	}
}
