// Package store is a content-addressed, on-disk cache of simulation
// results. Records are keyed by the canonical fingerprint of (simulator
// identity, GPU configuration, workload, scheme) — see Fingerprint — and
// written atomically (tempfile + rename in the same directory), so any
// number of processes may read and write one store directory
// concurrently.
//
// A record file holds exactly
//
//	{"sum":"<64 lowercase hex>","body":<body>}
//
// followed by a newline, where body is the record's canonical JSON (see
// EncodeRecord) and sum is the hex SHA-256 of those body bytes. A read
// checks, in order, the framing (any other shape, even equivalent JSON,
// is a miss; the trailing newline is optional), the checksum, the
// identity prefix the body must open with (its fingerprint and simulator
// revision), and then walks the body once, without reflection: the walk
// accepts exactly the layout EncodeRecord writes (keys in order, no
// whitespace, JSON-grammar numbers that fit their fields, null only for
// DRAMBytes and the counter sets), and everything it accepts
// json.Unmarshal decodes to the same record. Get builds the record on
// that walk; GetRaw, which serves the bytes, only checks them. Any
// failure — a fingerprint that is not a file name (see fileName), a
// missing or unreadable file, truncation, bit flips, foreign
// files, any non-canonical shape, a record at the wrong address or from
// another revision — is a cache miss, never an error, because the
// simulator can always regenerate the record.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"unicode/utf8"

	"cachecraft/internal/chaos"
	"cachecraft/internal/config"
	"cachecraft/internal/gpu"
	"cachecraft/internal/version"
)

// Record is one stored simulation result plus the identity that produced
// it. Its JSON encoding is canonical: encoding a decoded record
// reproduces the stored bytes (stats.Counters marshal in insertion
// order), which is what makes checksum-derived ETags stable across
// cold and warm servings.
type Record struct {
	Fingerprint string     `json:"fingerprint"`
	Sim         string     `json:"sim"` // version.String() at write time
	Workload    string     `json:"workload"`
	Scheme      string     `json:"scheme"`
	Result      gpu.Result `json:"result"`
}

// The on-disk framing of a record file: frameHead, the body's hex
// checksum, frameMid, the body, frameTail. Put writes exactly this and a
// newline — the bytes encoding/json produces for the equivalent
// {sum, body} struct — and get accepts nothing else.
const (
	frameHead = `{"sum":"`
	frameMid  = `","body":`
	frameTail = `}`
	sumLen    = 2 * sha256.Size
)

// identityTail closes the identity prefix every current record body opens
// with, after its fingerprint: {"fingerprint":"<fp>" + identityTail.
var identityTail = `","sim":"` + version.String() + `",`

// Store is a handle on one store directory. The zero value is not usable;
// call Open. Beyond the path a Store carries optional resilience hooks
// (SetBreaker, SetChaos) that are configured once at setup, and a
// one-entry cache of the last configuration's fingerprint prefix, which
// Lookup and Save share. Handles are safe for concurrent use and cheap to
// recreate: a new handle only encodes its first configuration again.
type Store struct {
	dir  string
	brk  *breaker        // nil = no circuit breaking
	inj  *chaos.Injector // nil = chaos off
	last atomic.Pointer[cfgPrefix]
}

// Open creates (if needed) and returns the store rooted at dir.
func Open(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir reports the store's root directory.
func (s *Store) Dir() string { return s.dir }

// SetChaos attaches a fault injector to the store's disk paths
// (chaos.SiteStoreGet / SiteStorePut / SiteStoreSync). Injected errors
// are indistinguishable from real disk failures: reads miss, writes
// fail, and both feed the circuit breaker. Call before sharing the
// handle; nil (the default) is chaos off at zero cost.
func (s *Store) SetChaos(in *chaos.Injector) { s.inj = in }

// path shards records by the first fingerprint byte to keep directories
// small under large sweeps. Callers check fp with fileName first.
func (s *Store) path(fp string) string {
	shard := "xx"
	if len(fp) >= 2 {
		shard = fp[:2]
	}
	return filepath.Join(s.dir, shard, fp+".json")
}

// fileName reports whether fp can name a record file: non-empty, with no
// path separator and no leading dot, so that neither fp nor its two-byte
// shard can be "." or ".." and the record stays inside its shard
// directory, and with no NUL, which the open would fail on and count
// against the breaker. Every fingerprint the store computes is lowercase
// hex.
func fileName(fp string) bool {
	return fp != "" && fp[0] != '.' && !strings.ContainsAny(fp, "/\\\x00")
}

// EncodeRecord marshals a record to its canonical body bytes and returns
// the body plus its hex SHA-256 checksum (the basis of HTTP ETags).
func EncodeRecord(rec Record) (body []byte, sum string, err error) {
	body, err = json.Marshal(rec)
	if err != nil {
		return nil, "", fmt.Errorf("store: encode %s: %w", rec.Fingerprint, err)
	}
	h := sha256.Sum256(body)
	return body, hex.EncodeToString(h[:]), nil
}

// Put writes the record under its own fingerprint, atomically and
// durably: the bytes are staged in a tempfile in the destination
// directory, fsynced, renamed into place, and the directory itself is
// fsynced. Readers never observe a partial record, concurrent writers of
// the same fingerprint harmlessly race to install identical content, and
// a crash right after Put returns cannot leave the entry half-written or
// the rename unjournalled — the store either serves the complete record
// or misses.
func (s *Store) Put(rec Record) error {
	if !fileName(rec.Fingerprint) {
		return fmt.Errorf("store: fingerprint %q is not a file name", rec.Fingerprint)
	}
	body, sum, err := EncodeRecord(rec)
	if err != nil {
		return err
	}
	data := make([]byte, 0, len(frameHead)+sumLen+len(frameMid)+len(body)+len(frameTail)+1)
	data = append(data, frameHead...)
	data = append(data, sum...)
	data = append(data, frameMid...)
	data = append(data, body...)
	data = append(data, frameTail+"\n"...)
	// Only now does the disk come into play: an open breaker fast-fails
	// the write (degraded mode: recompute-without-persist), and every
	// disk outcome below feeds the breaker's consecutive-error count.
	if s.brk != nil && !s.brk.allow() {
		return fmt.Errorf("store: write %s: %w", rec.Fingerprint, ErrDegraded)
	}
	err = s.putDisk(rec.Fingerprint, data)
	if s.brk != nil {
		s.brk.record(err)
	}
	return err
}

// putDisk performs Put's disk half: tempfile, fsync, rename, directory
// fsync. Chaos hooks stand in for write and fsync failures.
func (s *Store) putDisk(fp string, data []byte) error {
	dst := s.path(fp)
	if err := s.inj.Inject(chaos.SiteStorePut, fp); err != nil {
		return fmt.Errorf("store: write %s: %w", fp, err)
	}
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Dir(dst), ".tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	_, werr := tmp.Write(data)
	if werr == nil {
		// Flush the contents before the rename publishes the name: without
		// this a crash can journal the rename but not the data, leaving a
		// complete-looking entry full of zeros.
		werr = s.inj.Inject(chaos.SiteStoreSync, fp)
		if werr == nil {
			werr = tmp.Sync()
		}
	}
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Chmod(tmp.Name(), 0o644)
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), dst)
	}
	if werr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: write %s: %w", fp, werr)
	}
	// The rename itself lives in the parent directory's metadata; fsync it
	// so the entry survives a crash after Put reports success.
	if err := syncDir(filepath.Dir(dst)); err != nil {
		return fmt.Errorf("store: write %s: %w", fp, err)
	}
	return nil
}

// syncDir fsyncs a directory, making a just-renamed entry durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	serr := d.Sync()
	cerr := d.Close()
	if serr != nil {
		return serr
	}
	return cerr
}

// read loads the record file for fp and checks everything but the body's
// layout: the framing, the checksum and the identity prefix. Any failure —
// a fingerprint that is not a file name, missing file, non-canonical
// framing, checksum mismatch, a record that does not belong at this
// address, or one from a different simulator revision — is a miss. Disk
// health feeds the breaker: a missing file is a healthy answer, a read
// error (EIO, injected chaos) counts toward tripping, and an open breaker
// or a fingerprint that is not a file name misses without touching the
// disk at all.
func (s *Store) read(fp string) (body, sum []byte, ok bool) {
	if !fileName(fp) || s.brk != nil && !s.brk.allow() {
		return nil, nil, false
	}
	var (
		data []byte
		err  error
	)
	if err = s.inj.Inject(chaos.SiteStoreGet, fp); err == nil {
		data, err = os.ReadFile(s.path(fp))
	}
	if s.brk != nil {
		switch {
		case err == nil, errors.Is(err, fs.ErrNotExist):
			s.brk.record(nil)
		default:
			s.brk.record(err)
		}
	}
	if err != nil {
		return nil, nil, false
	}
	sum, body, ok = unframe(data)
	if !ok {
		return nil, nil, false
	}
	var want [sumLen]byte
	h := sha256.Sum256(body)
	hex.Encode(want[:], h[:])
	if !bytes.Equal(sum, want[:]) || !hasIdentity(body, fp) {
		return nil, nil, false
	}
	return body, sum, true
}

// unframe slices the checksum and body out of a record file written in
// the canonical framing, reporting false for any other shape.
func unframe(data []byte) (sum, body []byte, ok bool) {
	data = bytes.TrimSuffix(data, []byte("\n"))
	if !bytes.HasPrefix(data, []byte(frameHead)) {
		return nil, nil, false
	}
	data = data[len(frameHead):]
	if len(data) < sumLen || !bytes.HasPrefix(data[sumLen:], []byte(frameMid)) {
		return nil, nil, false
	}
	sum, data = data[:sumLen], data[sumLen+len(frameMid):]
	if !bytes.HasSuffix(data, []byte(frameTail)) {
		return nil, nil, false
	}
	return sum, data[:len(data)-len(frameTail)], true
}

// hasIdentity reports whether body opens with the identity a record at
// fp written by this simulator revision carries. It also requires fp to
// be verbatim (as is every fingerprint the store computes), so that a
// body the record walk accepts decodes to exactly fp and this revision:
// the fingerprint's string token then ends right after fp's bytes and
// holds no escape.
func hasIdentity(body []byte, fp string) bool {
	const head = `{"fingerprint":"`
	if !verbatim(fp) || !bytes.HasPrefix(body, []byte(head)) {
		return false
	}
	body = body[len(head):]
	return bytes.HasPrefix(body, []byte(fp)) && bytes.HasPrefix(body[len(fp):], []byte(identityTail))
}

// verbatim reports whether s between quotes is a JSON string token whose
// value is s itself: valid UTF-8 with no quote, backslash or control byte.
func verbatim(s string) bool {
	for i := 0; i < len(s); i++ {
		if b := s[i]; b < 0x20 || b == '"' || b == '\\' {
			return false
		}
	}
	return utf8.ValidString(s)
}

// Get returns the record stored under fp, or ok=false on a miss
// (including any form of corruption and any body decodeRecord rejects).
func (s *Store) Get(fp string) (Record, bool) {
	body, _, ok := s.read(fp)
	if !ok {
		return Record{}, false
	}
	return decodeRecord(body)
}

// GetRaw returns the verified record body bytes and their checksum for
// fp. The bytes are exactly what Put wrote, so serving them preserves
// byte-identity (and ETag identity) with the original encoding. It hits
// exactly when Get does, but checks the body with checkRecord instead of
// building the record it would only discard.
func (s *Store) GetRaw(fp string) (body []byte, sum string, ok bool) {
	body, rawSum, ok := s.read(fp)
	if !ok || !checkRecord(body) {
		return nil, "", false
	}
	return body, string(rawSum), true
}

// Lookup implements the bench.ResultStore read side: it addresses the
// store by the simulation's canonical fingerprint.
func (s *Store) Lookup(cfg config.GPU, workload, scheme string) (gpu.Result, bool) {
	rec, ok := s.Get(s.fingerprint(cfg, workload, scheme))
	if !ok {
		return gpu.Result{}, false
	}
	return rec.Result, true
}

// Save implements the bench.ResultStore write side.
func (s *Store) Save(cfg config.GPU, workload, scheme string, res gpu.Result) error {
	return s.Put(Record{
		Fingerprint: s.fingerprint(cfg, workload, scheme),
		Sim:         version.String(),
		Workload:    workload,
		Scheme:      scheme,
		Result:      res,
	})
}
