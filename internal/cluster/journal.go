package cluster

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
)

// Journal op codes: one per terminal cell outcome. A cell appears in the
// journal only once it can never change again, so replay is a pure merge
// — no undo records, no in-progress states to reconcile.
const (
	// JournalDone records a successfully completed cell with its
	// canonical record bytes.
	JournalDone = "done"
	// JournalFailed records a cell that exhausted its retry budget.
	JournalFailed = "failed"
	// JournalQuarantined records a poison cell pulled from circulation.
	JournalQuarantined = "quarantined"
)

// JournalEntry is one terminal cell outcome as persisted in the sweep
// journal. Done entries carry the record's canonical body bytes and
// checksum (exactly what the coordinator streams and what the store
// would hold), so replay restores a cell without re-encoding anything;
// failed and quarantined entries carry the error message verbatim, so a
// resumed sweep streams byte-identical error lines.
type JournalEntry struct {
	Op          string `json:"op"`
	Fingerprint string `json:"fingerprint"`
	Workload    string `json:"workload,omitempty"`
	Scheme      string `json:"scheme,omitempty"`
	// Sim fences replay: entries written by a different simulator
	// revision are skipped, mirroring the store's revision check.
	Sim  string          `json:"sim"`
	Sum  string          `json:"sum,omitempty"`
	Body json.RawMessage `json:"body,omitempty"`
	// Error is the terminal error message (failed/quarantined).
	Error string `json:"error,omitempty"`
	// History lists the failure events that led to quarantine, oldest
	// first, as "worker: cause" strings.
	History []string `json:"history,omitempty"`
}

// journalLine is the on-disk framing: one NDJSON line per entry, the
// entry body wrapped with its own SHA-256 — the store's envelope shape
// applied to a log. The checksum is what lets replay distinguish "torn
// tail from the crash we are recovering from" (expected, stop there)
// from "complete but corrupt line" (also just stop: everything after a
// bad line is suspect).
type journalLine struct {
	Sum  string          `json:"sum"`
	Body json.RawMessage `json:"body"`
}

// Journal is the coordinator's crash-recovery log: an append-only,
// checksummed NDJSON file of terminal cell outcomes, fsynced on every
// append. OpenJournal replays whatever a previous process left behind;
// Coordinator.New merges those entries so a restarted coordinator
// answers already-finished cells instantly instead of recomputing them.
//
// The journal is an optimization, never a source of truth the system
// cannot live without: losing an entry (crash between publish and
// append, a corrupt tail) only means the deterministic simulator runs
// that cell again. That asymmetry is why append errors degrade to a log
// line rather than failing the sweep.
type Journal struct {
	path string

	mu       sync.Mutex
	f        *os.File
	replayed []JournalEntry
	skipped  int
}

// OpenJournal opens (creating if absent) the journal at path, replays
// every intact entry already on disk, and positions the file for
// appends. Replay stops at the first corrupt, torn or oversize line —
// everything before it is trustworthy, everything after it is not — and
// reports the dropped remainder via Skipped.
func OpenJournal(path string) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("cluster: journal: %w", err)
	}
	j := &Journal{path: path, f: f}
	rd := bufio.NewReader(f)
	var buf []byte
	for {
		// A done entry embeds a full record body, but records are small
		// (counters and floats, no traces), so MaxBodyBytes is generous.
		line, oversize, err := readLine(rd, buf[:0], MaxBodyBytes)
		buf = line
		if line = bytes.TrimSpace(line); len(line) > 0 || oversize {
			e, ok := JournalEntry{}, false
			if j.skipped == 0 && !oversize {
				e, ok = replayLine(line)
			}
			if ok {
				j.replayed = append(j.replayed, e)
			} else {
				j.skipped++
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("cluster: journal %s: %w", path, err)
		}
	}
	if _, err := f.Seek(0, 2); err != nil {
		f.Close()
		return nil, fmt.Errorf("cluster: journal %s: %w", path, err)
	}
	return j, nil
}

// readLine appends the next line of rd, newline included, to buf. A line
// longer than limit bytes is read to its end but not kept: readLine
// reports it as oversize, so one runaway line costs at most limit bytes.
func readLine(rd *bufio.Reader, buf []byte, limit int) (line []byte, oversize bool, err error) {
	n := 0
	for {
		frag, err := rd.ReadSlice('\n')
		if n += len(frag); n <= limit {
			buf = append(buf, frag...)
		}
		if err != bufio.ErrBufferFull {
			return buf, n > limit, err
		}
	}
}

// replayLine decodes one journal line, reporting false unless it is an
// intact entry: valid framing, a matching checksum, and a fingerprint.
func replayLine(line []byte) (JournalEntry, bool) {
	var jl journalLine
	if err := json.Unmarshal(line, &jl); err != nil {
		return JournalEntry{}, false
	}
	h := sha256.Sum256(jl.Body)
	if hex.EncodeToString(h[:]) != jl.Sum {
		return JournalEntry{}, false
	}
	var e JournalEntry
	if err := json.Unmarshal(jl.Body, &e); err != nil || e.Fingerprint == "" {
		return JournalEntry{}, false
	}
	return e, true
}

// Replayed returns the entries recovered when the journal was opened,
// in append order. The slice is owned by the journal; callers must not
// mutate it.
func (j *Journal) Replayed() []JournalEntry { return j.replayed }

// Skipped reports how many trailing non-blank lines replay dropped as
// torn or corrupt.
func (j *Journal) Skipped() int { return j.skipped }

// Path reports the journal's file path.
func (j *Journal) Path() string { return j.path }

// Append writes the entries as checksummed NDJSON lines and fsyncs
// once for the whole batch. When Append returns nil the entries will
// survive a crash; the coordinator calls it before publishing a success
// to waiting clients, which is what makes a restarted coordinator's
// output byte-identical. Nil-receiver safe: a coordinator without a
// journal appends into the void.
func (j *Journal) Append(entries ...JournalEntry) error {
	if j == nil || len(entries) == 0 {
		return nil
	}
	var buf bytes.Buffer
	for _, e := range entries {
		body, err := json.Marshal(e)
		if err != nil {
			return fmt.Errorf("cluster: journal encode %s: %w", e.Fingerprint, err)
		}
		h := sha256.Sum256(body)
		line, err := json.Marshal(journalLine{Sum: hex.EncodeToString(h[:]), Body: body})
		if err != nil {
			return fmt.Errorf("cluster: journal encode %s: %w", e.Fingerprint, err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, err := j.f.Write(buf.Bytes()); err != nil {
		return fmt.Errorf("cluster: journal append: %w", err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("cluster: journal fsync: %w", err)
	}
	return nil
}

// Close closes the journal file. Append after Close fails.
func (j *Journal) Close() error {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.f.Close()
}
