package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"regexp"
	"sync"
	"testing"

	"cachecraft/internal/config"
)

func TestFingerprintDeterministic(t *testing.T) {
	a := Fingerprint(config.Default(), "stream", "cachecraft")
	b := Fingerprint(config.Default(), "stream", "cachecraft")
	if a != b {
		t.Fatalf("fingerprint not deterministic: %s vs %s", a, b)
	}
	if !regexp.MustCompile(`^[0-9a-f]{64}$`).MatchString(a) {
		t.Fatalf("fingerprint not hex sha256: %q", a)
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := Fingerprint(config.Default(), "stream", "cachecraft")
	if Fingerprint(config.Default(), "scan", "cachecraft") == base {
		t.Fatal("workload change did not change fingerprint")
	}
	if Fingerprint(config.Default(), "stream", "none") == base {
		t.Fatal("scheme change did not change fingerprint")
	}
	cfg := config.Default()
	cfg.Seed++
	if Fingerprint(cfg, "stream", "cachecraft") == base {
		t.Fatal("config change did not change fingerprint")
	}
	cfg = config.Default()
	cfg.L2.SizeBytes *= 2
	if Fingerprint(cfg, "stream", "cachecraft") == base {
		t.Fatal("nested config change did not change fingerprint")
	}
}

// TestFingerprintIncludesSimulatorIdentity: bumping the simulator
// revision must re-address every record, so results from older simulator
// logic can never be served as hits.
func TestFingerprintIncludesSimulatorIdentity(t *testing.T) {
	cfg := config.Default()
	now := fingerprint("cachecraft@r3", cfg, "stream", "cachecraft")
	old := fingerprint("cachecraft@r2", cfg, "stream", "cachecraft")
	if now == old {
		t.Fatal("simulator revision not part of the fingerprint")
	}
}

// fingerprintOracle encodes the fingerprint payload the plain way, as one
// json.Marshal of a struct whose fields are in payload order.
func fingerprintOracle(simID string, cfg config.GPU, workload, scheme string) string {
	b, err := json.Marshal(struct {
		Sim      string     `json:"sim"`
		Config   config.GPU `json:"config"`
		Workload string     `json:"workload"`
		Scheme   string     `json:"scheme"`
	}{simID, cfg, workload, scheme})
	if err != nil {
		panic(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestFingerprintMatchesStructEncoding: the payload fingerprint assembles
// from a once-encoded prefix hashes to the same address as the struct
// encoding — also for names that JSON escapes — and Fingerprinter agrees
// with Fingerprint.
func TestFingerprintMatchesStructEncoding(t *testing.T) {
	odd := config.Quick()
	odd.L2.Name = `l2 "<&>"`
	odd.DRAM.BanksPerChannel = 70
	for _, cfg := range []config.GPU{config.Default(), odd} {
		for _, c := range [][2]string{
			{"stream", "none"}, {"random", "cachecraft"}, {"", ""},
			{`a"b`, `c\d`}, {"<", ">"}, {"&", "\x7f"}, {"é\u2028", "a\x00\t"},
		} {
			if got, want := fingerprint("cachecraft@r9", cfg, c[0], c[1]), fingerprintOracle("cachecraft@r9", cfg, c[0], c[1]); got != want {
				t.Fatalf("%q/%q: %s, struct encoding %s", c[0], c[1], got, want)
			}
		}
		if got, want := Fingerprinter(cfg)("gemm", "ecc-cache"), Fingerprint(cfg, "gemm", "ecc-cache"); got != want {
			t.Fatalf("Fingerprinter %s, Fingerprint %s", got, want)
		}
	}
}

var sinkFingerprint string

// BenchmarkFingerprint times one address computed from scratch, as
// Store.Lookup, Store.Put and cluster.Cells compute it.
func BenchmarkFingerprint(b *testing.B) {
	cfg := config.Default()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sinkFingerprint = Fingerprint(cfg, "random", "cachecraft")
	}
}

// BenchmarkFingerprintTable times the 40 addresses of a serve table
// (every workload with every scheme) on one configuration.
func BenchmarkFingerprintTable(b *testing.B) {
	cfg := config.Default()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fp := Fingerprinter(cfg)
		for j := 0; j < 40; j++ {
			sinkFingerprint = fp("random", "cachecraft")
		}
	}
}

// TestStorePrefixFollowsConfig: the handle's one-entry prefix cache never
// serves another configuration's address, whether callers alternate
// configurations or race on the entry.
func TestStorePrefixFollowsConfig(t *testing.T) {
	s := mustOpen(t)
	cfgs := []config.GPU{config.Quick(), config.Default(), config.Quick()}
	cfgs[2].Seed++
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				cfg := cfgs[(g+i)%len(cfgs)]
				if got, want := s.fingerprint(cfg, "stream", "none"), Fingerprint(cfg, "stream", "none"); got != want {
					t.Errorf("goroutine %d call %d: address %s, want %s", g, i, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if err := s.Save(cfgs[0], "stream", "none", testResult(1)); err != nil {
		t.Fatal(err)
	}
	for i, want := range []bool{true, false, true, false} {
		if _, ok := s.Lookup(cfgs[i%2], "stream", "none"); ok != want {
			t.Fatalf("lookup %d on config %d: hit=%v, want %v", i, i%2, ok, want)
		}
	}
}
