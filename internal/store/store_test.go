package store

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"cachecraft/internal/config"
	"cachecraft/internal/gpu"
	"cachecraft/internal/sim"
	"cachecraft/internal/stats"
	"cachecraft/internal/version"
)

// testResult builds a result with enough structure (maps, ordered
// counters, floats) to exercise the round trip.
func testResult(seed uint64) gpu.Result {
	c := stats.NewCounters()
	c.Add("zeta", seed)
	c.Add("alpha", seed+1)
	return gpu.Result{
		Workload:     "stream",
		Scheme:       "none",
		Cycles:       sim.Cycle(42_000 + seed),
		Instructions: 1_000 * seed,
		IPC:          1.0 / float64(seed+3),
		DRAMBytes:    map[string]uint64{"demand": seed * 64, "redundancy": seed * 8},
		Machine:      c,
	}
}

func mustOpen(t *testing.T) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func record(fp string, seed uint64) Record {
	return Record{
		Fingerprint: fp,
		Sim:         version.String(),
		Workload:    "stream",
		Scheme:      "none",
		Result:      testResult(seed),
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s := mustOpen(t)
	fp := Fingerprint(config.Quick(), "stream", "none")
	rec := record(fp, 7)
	if err := s.Put(rec); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(fp)
	if !ok {
		t.Fatal("freshly written record missed")
	}
	if !reflect.DeepEqual(got, rec) {
		t.Fatalf("round trip changed record:\nwant %+v\n got %+v", rec, got)
	}
	// Counter order must survive (renderers depend on it).
	if names := got.Result.Machine.Names(); len(names) != 2 || names[0] != "zeta" {
		t.Fatalf("counter order lost: %v", names)
	}
	// GetRaw must return the canonical encoding: re-encoding the decoded
	// record reproduces the stored bytes (the basis of stable ETags).
	raw, sum, ok := s.GetRaw(fp)
	if !ok {
		t.Fatal("GetRaw missed")
	}
	body, sum2, err := EncodeRecord(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(raw) != string(body) || sum != sum2 {
		t.Fatalf("stored bytes not canonical:\nstored %s\nre-enc %s", raw, body)
	}
}

// TestReopenedStoreNeverServesPartialEnvelope models the crash-recovery
// contract Put's fsync discipline exists for: whatever prefix of the
// envelope bytes reached disk before a crash — including a
// complete-looking file of the right length whose tail was lost, and the
// pathological all-zeros file a data-less journalled rename used to be
// able to leave — a fresh handle on the directory must treat the entry as
// a miss, never serve a partial record, and allow a clean rewrite.
func TestReopenedStoreNeverServesPartialEnvelope(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	fp := Fingerprint(config.Quick(), "stream", "none")
	rec := record(fp, 11)
	if err := s.Put(rec); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(s.path(fp))
	if err != nil {
		t.Fatal(err)
	}

	// Cuts stop at len-2: the final byte is the trailing newline, which is
	// not part of the envelope — a file missing only it is still complete.
	for _, cut := range []int{0, 1, len(full) / 4, len(full) / 2, len(full) - 2} {
		if err := os.WriteFile(s.path(fp), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		reopened, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := reopened.Get(fp); ok {
			t.Fatalf("reopened store served a %d/%d-byte partial envelope", cut, len(full))
		}
		if _, _, ok := reopened.GetRaw(fp); ok {
			t.Fatalf("GetRaw served a %d/%d-byte partial envelope", cut, len(full))
		}
	}
	// Right length, zeroed contents (rename journalled, data lost).
	if err := os.WriteFile(s.path(fp), make([]byte, len(full)), 0o644); err != nil {
		t.Fatal(err)
	}
	reopened, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := reopened.Get(fp); ok {
		t.Fatal("reopened store served a zero-filled envelope")
	}
	// The damaged entry must be rewritable.
	if err := reopened.Put(rec); err != nil {
		t.Fatal(err)
	}
	got, ok := reopened.Get(fp)
	if !ok || !reflect.DeepEqual(got, rec) {
		t.Fatal("rewrite after torn entry did not round-trip")
	}
}

func TestGetMissesOnAbsent(t *testing.T) {
	s := mustOpen(t)
	if _, ok := s.Get(Fingerprint(config.Quick(), "stream", "none")); ok {
		t.Fatal("empty store reported a hit")
	}
}

func TestCorruptionIsAMissNotAnError(t *testing.T) {
	fp := Fingerprint(config.Quick(), "stream", "none")
	corruptions := map[string]func(t *testing.T, path string){
		"truncated": func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"bit-flipped": func(t *testing.T, path string) {
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0x40 // inside the body: checksum must catch it
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"garbage": func(t *testing.T, path string) {
			if err := os.WriteFile(path, []byte("not json at all"), 0o644); err != nil {
				t.Fatal(err)
			}
		},
		"empty": func(t *testing.T, path string) {
			if err := os.WriteFile(path, nil, 0o644); err != nil {
				t.Fatal(err)
			}
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			s := mustOpen(t)
			if err := s.Put(record(fp, 9)); err != nil {
				t.Fatal(err)
			}
			corrupt(t, s.path(fp))
			if _, ok := s.Get(fp); ok {
				t.Fatalf("%s record served as a hit", name)
			}
			if _, _, ok := s.GetRaw(fp); ok {
				t.Fatalf("%s record served raw", name)
			}
			// The slot is still writable: a re-run heals the store.
			if err := s.Put(record(fp, 9)); err != nil {
				t.Fatal(err)
			}
			if _, ok := s.Get(fp); !ok {
				t.Fatal("re-written record missed")
			}
		})
	}
}

// TestRecordAtWrongAddressIsAMiss: a valid record copied to another
// fingerprint's path (e.g. a botched manual copy) must not be served.
func TestRecordAtWrongAddressIsAMiss(t *testing.T) {
	s := mustOpen(t)
	fpA := Fingerprint(config.Quick(), "stream", "none")
	fpB := Fingerprint(config.Quick(), "scan", "none")
	if err := s.Put(record(fpA, 3)); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(s.path(fpB)), 0o755); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(s.path(fpA))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.path(fpB), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(fpB); ok {
		t.Fatal("record served from a foreign address")
	}
}

// TestStaleSimRevisionIsAMiss: a record claiming a different simulator
// revision must miss even if its checksum is intact.
func TestStaleSimRevisionIsAMiss(t *testing.T) {
	s := mustOpen(t)
	fp := Fingerprint(config.Quick(), "stream", "none")
	rec := record(fp, 5)
	rec.Sim = "cachecraft@r0-ancient"
	if err := s.Put(rec); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(fp); ok {
		t.Fatal("stale-revision record served as a hit")
	}
}

// TestFingerprintIdentityIsVerbatim: a record hits only under the
// fingerprint its body decodes to. A body whose fingerprint is written
// with an escape matches a requested fingerprint spelled with that
// escape byte for byte, yet decodes to another one, so it misses; a
// non-ASCII fingerprint EncodeRecord writes as is hits.
func TestFingerprintIdentityIsVerbatim(t *testing.T) {
	if !verbatim(version.String()) {
		t.Fatalf("simulator identity %q is not verbatim, so no record can match it", version.String())
	}
	s := mustOpen(t)
	escaped := `ab\u0063` // decodes to "abc"
	body := strings.Replace(canonicalBody(t, record("abc", 2)), `"fingerprint":"abc"`, `"fingerprint":"`+escaped+`"`, 1)
	h := sha256.Sum256([]byte(body))
	if err := os.MkdirAll(filepath.Dir(s.path(escaped)), 0o755); err != nil {
		t.Fatal(err)
	}
	data := frameHead + hex.EncodeToString(h[:]) + frameMid + body + frameTail + "\n"
	if err := os.WriteFile(s.path(escaped), []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(escaped); ok {
		t.Fatal("Get served a record whose fingerprint decodes to another one")
	}
	if _, _, ok := s.GetRaw(escaped); ok {
		t.Fatal("GetRaw served a record whose fingerprint decodes to another one")
	}

	utf := "é-fingerprint"
	if err := s.Put(record(utf, 3)); err != nil {
		t.Fatal(err)
	}
	if rec, ok := s.Get(utf); !ok || rec.Fingerprint != utf {
		t.Fatalf("Get(%q) = %q, %v", utf, rec.Fingerprint, ok)
	}
	if _, _, ok := s.GetRaw(utf); !ok {
		t.Fatalf("GetRaw(%q) missed", utf)
	}
}

// TestFingerprintMustBeFileName: a fingerprint that could leave its shard
// directory — a path separator, a leading dot, or nothing at all — or
// that holds a NUL is never written, reading it never counts against the
// breaker, and a record file placed where such a fingerprint would
// resolve, outside the store, is a miss.
func TestFingerprintMustBeFileName(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(filepath.Join(dir, "a", "store"))
	if err != nil {
		t.Fatal(err)
	}
	s.SetBreaker(1, time.Hour)
	for _, fp := range []string{"", ".", "..", "../outside", ".hidden", "ab/cd", `ab\cd`, "ab\x00cd"} {
		if err := s.Put(record(fp, 1)); err == nil {
			t.Errorf("Put(%q) succeeded", fp)
		}
		if _, _, ok := s.GetRaw(fp); ok || s.BreakerState() != BreakerClosed {
			t.Fatalf("GetRaw(%q): hit %v, breaker state %d", fp, ok, s.BreakerState())
		}
	}
	if n := countFiles(t, dir); n != 0 {
		t.Fatalf("rejected Puts left %d files", n)
	}

	const fp = "../outside" // shard "..": resolves to dir/outside.json
	if rel, _ := filepath.Rel(s.Dir(), s.path(fp)); !strings.HasPrefix(rel, "..") {
		t.Fatalf("%q resolves to %s, inside the store", fp, s.path(fp))
	}
	body := canonicalBody(t, record(fp, 2))
	h := sha256.Sum256([]byte(body))
	data := frameHead + hex.EncodeToString(h[:]) + frameMid + body + frameTail + "\n"
	if err := os.WriteFile(s.path(fp), []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(fp); ok {
		t.Fatal("Get served a record from outside the store")
	}
	if _, _, ok := s.GetRaw(fp); ok {
		t.Fatal("GetRaw served a record from outside the store")
	}
}

// countFiles counts the regular files under dir.
func countFiles(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && d.Type().IsRegular() {
			n++
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestConcurrentHandlesSameDir exercises many goroutines, each with its
// own Store handle (the in-process approximation of separate processes),
// reading and writing an overlapping key set under -race.
func TestConcurrentHandlesSameDir(t *testing.T) {
	dir := t.TempDir()
	fps := []string{
		Fingerprint(config.Quick(), "stream", "none"),
		Fingerprint(config.Quick(), "scan", "none"),
		Fingerprint(config.Quick(), "stream", "cachecraft"),
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s, err := Open(dir)
			if err != nil {
				errs <- err
				return
			}
			for i := 0; i < 30; i++ {
				fp := fps[(g+i)%len(fps)]
				// All writers store identical content per key, so a read
				// must be either a miss or the exact record.
				if err := s.Put(record(fp, uint64(len(fp)))); err != nil {
					errs <- err
					return
				}
				got, ok := s.Get(fp)
				if !ok {
					errs <- fmt.Errorf("goroutine %d: read-after-write miss for %s", g, fp)
					return
				}
				if got.Fingerprint != fp {
					errs <- fmt.Errorf("goroutine %d: wrong record for %s", g, fp)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestCrossProcessConcurrentAccess re-executes this test binary as three
// real child processes (plus this one) hammering the same store
// directory, proving the tempfile+rename protocol across process
// boundaries, not just across goroutines.
func TestCrossProcessConcurrentAccess(t *testing.T) {
	if os.Getenv("CACHECRAFT_STORE_HELPER") == "1" {
		storeHelperMain(t)
		return
	}
	if testing.Short() {
		t.Skip("spawns child processes")
	}
	exe, err := os.Executable()
	if err != nil {
		t.Skipf("cannot find test binary: %v", err)
	}
	dir := t.TempDir()
	const procs = 3
	cmds := make([]*exec.Cmd, procs)
	for i := range cmds {
		cmd := exec.Command(exe, "-test.run", "^TestCrossProcessConcurrentAccess$")
		cmd.Env = append(os.Environ(),
			"CACHECRAFT_STORE_HELPER=1",
			"CACHECRAFT_STORE_DIR="+dir,
			"CACHECRAFT_STORE_SEED="+strconv.Itoa(i),
		)
		cmds[i] = cmd
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
	}
	// Contend from this process too.
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	helperLoop(t, st, procs)
	for i, cmd := range cmds {
		if err := cmd.Wait(); err != nil {
			t.Errorf("child %d failed: %v", i, err)
		}
	}
}

// storeHelperMain is the child-process body: open the shared directory
// and run the same put/get loop as the parent.
func storeHelperMain(t *testing.T) {
	st, err := Open(os.Getenv("CACHECRAFT_STORE_DIR"))
	if err != nil {
		t.Fatal(err)
	}
	seed, _ := strconv.Atoi(os.Getenv("CACHECRAFT_STORE_SEED"))
	helperLoop(t, st, seed)
}

// helperLoop writes and reads an overlapping set of fingerprints. Content
// per fingerprint is identical across all processes, so every successful
// read must decode to the expected record.
func helperLoop(t *testing.T, st *Store, seed int) {
	workloads := []string{"stream", "scan", "bfs"}
	for i := 0; i < 40; i++ {
		wl := workloads[(seed+i)%len(workloads)]
		fp := Fingerprint(config.Quick(), wl, "none")
		if err := st.Put(record(fp, uint64(len(wl)))); err != nil {
			t.Fatalf("put %s: %v", fp, err)
		}
		got, ok := st.Get(fp)
		if !ok {
			t.Fatalf("read-after-write miss for %s", fp)
		}
		if got.Fingerprint != fp || got.Result.Instructions != 1_000*uint64(len(wl)) {
			t.Fatalf("inconsistent record for %s: %+v", fp, got)
		}
	}
}
