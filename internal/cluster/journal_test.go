package cluster

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cachecraft/internal/obs"
	"cachecraft/internal/version"
)

func openTestJournal(t *testing.T, path string) *Journal {
	t.Helper()
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j := openTestJournal(t, path)
	if got := len(j.Replayed()); got != 0 {
		t.Fatalf("fresh journal replayed %d entries", got)
	}
	want := []JournalEntry{
		{Op: JournalDone, Fingerprint: "fp1", Workload: "stream", Scheme: "none",
			Sim: version.String(), Sum: "abc", Body: []byte(`{"k":1}`)},
		{Op: JournalFailed, Fingerprint: "fp2", Workload: "stream", Scheme: "park",
			Sim: version.String(), Error: "cluster: cell failed after 3 attempts: boom"},
		{Op: JournalQuarantined, Fingerprint: "fp3", Workload: "scan", Scheme: "none",
			Sim: version.String(), Error: "quarantined", History: []string{"w1: lease expired", "w2: lease expired"}},
	}
	if err := j.Append(want[0]); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(want[1], want[2]); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2 := openTestJournal(t, path)
	got := j2.Replayed()
	if len(got) != len(want) || j2.Skipped() != 0 {
		t.Fatalf("replayed %d entries (skipped %d), want %d", len(got), j2.Skipped(), len(want))
	}
	for i := range want {
		if got[i].Op != want[i].Op || got[i].Fingerprint != want[i].Fingerprint ||
			got[i].Error != want[i].Error || string(got[i].Body) != string(want[i].Body) {
			t.Fatalf("entry %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if len(got[2].History) != 2 || got[2].History[0] != "w1: lease expired" {
		t.Fatalf("quarantine history = %v", got[2].History)
	}
	// The reopened journal appends where the old one left off.
	if err := j2.Append(JournalEntry{Op: JournalDone, Fingerprint: "fp4", Sim: version.String()}); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	if j3 := openTestJournal(t, path); len(j3.Replayed()) != 4 {
		t.Fatalf("after reopen+append: %d entries, want 4", len(j3.Replayed()))
	}
}

// TestJournalTornTailIsDropped pins crash semantics: a half-written last
// line (the write the crash interrupted) and anything after a corrupted
// line are dropped, while every intact prefix entry survives.
func TestJournalTornTailIsDropped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j := openTestJournal(t, path)
	for _, fp := range []string{"fp1", "fp2", "fp3"} {
		if err := j.Append(JournalEntry{Op: JournalDone, Fingerprint: fp, Sim: version.String()}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last line in half, as a crash mid-append would.
	torn := data[:len(data)-20]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}
	j2 := openTestJournal(t, path)
	if got := len(j2.Replayed()); got != 2 {
		t.Fatalf("torn tail: replayed %d, want 2", got)
	}
	if j2.Skipped() != 1 {
		t.Fatalf("torn tail: skipped %d, want 1", j2.Skipped())
	}

	// Flip a byte inside the first line's body: replay must stop before
	// it, trusting nothing at or after the corruption.
	corrupt := append([]byte{}, data...)
	corrupt[30] ^= 0x40
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	j3 := openTestJournal(t, path)
	if got := len(j3.Replayed()); got != 0 {
		t.Fatalf("corrupt first line: replayed %d, want 0", got)
	}
	if j3.Skipped() != 3 {
		t.Fatalf("corrupt first line: skipped %d, want 3", j3.Skipped())
	}
}

// TestJournalOversizeLineIsSkipped: a line longer than MaxBodyBytes
// between intact entries is dropped like any corrupt line, not fatal.
// Replay keeps the entries before it, skips it and every non-blank line
// after it, and the journal still opens for appends.
func TestJournalOversizeLineIsSkipped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	entry := func(fp string) []byte {
		j := openTestJournal(t, filepath.Join(t.TempDir(), fp+".journal"))
		if err := j.Append(JournalEntry{Op: JournalDone, Fingerprint: fp, Sim: version.String()}); err != nil {
			t.Fatal(err)
		}
		j.Close()
		line, err := os.ReadFile(j.Path())
		if err != nil {
			t.Fatal(err)
		}
		return line
	}
	var data []byte
	data = append(data, entry("fp1")...)
	data = append(data, entry("fp2")...)
	data = append(data, bytes.Repeat([]byte("x"), MaxBodyBytes+1)...)
	data = append(data, "\n\n"...)
	data = append(data, entry("fp3")...)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	defer j.Close()
	if got := j.Replayed(); len(got) != 2 || got[0].Fingerprint != "fp1" || got[1].Fingerprint != "fp2" {
		t.Fatalf("replayed %+v, want fp1 and fp2", got)
	}
	if j.Skipped() != 2 {
		t.Fatalf("skipped %d, want 2 (the oversize line and fp3)", j.Skipped())
	}
	if err := j.Append(JournalEntry{Op: JournalDone, Fingerprint: "fp4", Sim: version.String()}); err != nil {
		t.Fatal(err)
	}
}

// TestCoordinatorResumesFromJournal is the tentpole's in-process pin: a
// coordinator completes and fails cells, dies (Close), and its successor
// — same journal, fresh process state — answers the re-submitted grid
// entirely from the journal: identical bytes, identical error strings,
// and zero dispatches.
func TestCoordinatorResumesFromJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j := openTestJournal(t, path)
	c1 := newTestCoordinator(t, Options{Journal: j, MaxAttempts: 1})
	good, bad := testCell("none"), testCell("cachecraft")
	for _, cell := range []Cell{good, bad} {
		if err := c1.Submit(cell); err != nil {
			t.Fatal(err)
		}
	}
	grant := c1.Lease("w1", 2)
	if grant == nil || len(grant.Cells) != 2 {
		t.Fatalf("grant = %+v", grant)
	}
	c1.Complete(CompleteRequest{LeaseID: grant.LeaseID, Worker: "w1", Results: []CellResult{
		resultFor(good),
		{Fingerprint: bad.Fingerprint, Error: "division by zero in scheme"},
	}})
	out1good := mustWait(t, c1, good.Fingerprint)
	out1bad := mustWait(t, c1, bad.Fingerprint)
	if out1good.Err != "" || out1bad.Err == "" {
		t.Fatalf("first life outcomes: %+v / %+v", out1good, out1bad)
	}
	c1.Close()
	j.Close()

	reg := obs.NewRegistry()
	j2 := openTestJournal(t, path)
	c2 := newTestCoordinator(t, Options{Journal: j2, Registry: reg})
	// The resumed sweep re-submits the same grid...
	for _, cell := range []Cell{good, bad} {
		if err := c2.Submit(cell); err != nil {
			t.Fatal(err)
		}
	}
	// ...and both cells answer instantly, with no worker and no dispatch.
	out2good := mustWait(t, c2, good.Fingerprint)
	out2bad := mustWait(t, c2, bad.Fingerprint)
	if string(out2good.Body) != string(out1good.Body) || out2good.Sum != out1good.Sum {
		t.Fatal("replayed success differs from the original bytes")
	}
	if out2bad.Err != out1bad.Err {
		t.Fatalf("replayed failure %q, want %q", out2bad.Err, out1bad.Err)
	}
	if g := c2.Lease("w1", 8); g != nil {
		t.Fatalf("resumed coordinator dispatched work: %+v (want zero recomputation)", g)
	}
	st := c2.Status()
	if st.DoneCells != 1 || st.FailedCells != 1 || st.JournalReplayedCells != 2 {
		t.Fatalf("status = %+v", st)
	}
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), "cachecraft_journal_replayed_cells_total 2") {
		t.Error("metrics missing cachecraft_journal_replayed_cells_total 2")
	}
}

// TestJournalReplayFencesForeignRevisions: entries written by another
// simulator build must not resurrect — their fingerprints can never be
// asked for again, and replaying them would hide that the cells need
// recomputing under the new revision.
func TestJournalReplayFencesForeignRevisions(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j := openTestJournal(t, path)
	if err := j.Append(
		JournalEntry{Op: JournalDone, Fingerprint: "fp-old", Workload: "stream", Scheme: "none",
			Sim: "cachecraft@r0-stale", Sum: "s", Body: []byte(`{}`)},
		JournalEntry{Op: JournalDone, Fingerprint: "fp-new", Workload: "stream", Scheme: "none",
			Sim: version.String(), Sum: "s", Body: []byte(`{}`)},
	); err != nil {
		t.Fatal(err)
	}
	j.Close()
	j2 := openTestJournal(t, path)
	c := newTestCoordinator(t, Options{Journal: j2})
	c.mu.Lock()
	_, oldOK := c.cells["fp-old"]
	_, newOK := c.cells["fp-new"]
	c.mu.Unlock()
	if oldOK || !newOK {
		t.Fatalf("replay: stale=%v current=%v, want stale fenced and current restored", oldOK, newOK)
	}
}

// TestWriteAheadOrdering pins the WAL property the byte-identity
// guarantee rests on: by the time a waiting client can observe a
// success, its entry is already fsynced in the journal.
func TestWriteAheadOrdering(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j := openTestJournal(t, path)
	c := newTestCoordinator(t, Options{Journal: j})
	cell := testCell("none")
	if err := c.Submit(cell); err != nil {
		t.Fatal(err)
	}
	grant := c.Lease("w1", 1)
	if grant == nil {
		t.Fatal("no grant")
	}
	c.Complete(CompleteRequest{LeaseID: grant.LeaseID, Worker: "w1",
		Results: []CellResult{resultFor(cell)}})
	out := mustWait(t, c, cell.Fingerprint)
	// The instant Wait returns, a reopened journal must already hold the
	// exact published bytes — no flush, no Close, no grace period.
	j2 := openTestJournal(t, path)
	entries := j2.Replayed()
	if len(entries) != 1 {
		t.Fatalf("journal holds %d entries at publish time, want 1", len(entries))
	}
	if entries[0].Op != JournalDone || string(entries[0].Body) != string(out.Body) || entries[0].Sum != out.Sum {
		t.Fatalf("journal entry %+v does not match the published outcome", entries[0])
	}
}

func TestQuarantineAfterCrashLikeFailuresAcrossWorkers(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.journal")
	j := openTestJournal(t, path)
	reg := obs.NewRegistry()
	c := newTestCoordinator(t, Options{
		Journal: j, Registry: reg,
		LeaseTTL: 40 * time.Millisecond, MaxAttempts: 10, QuarantineAfter: 2,
	})
	cell := testCell("none")
	if err := c.Submit(cell); err != nil {
		t.Fatal(err)
	}
	// Two distinct workers take the cell and die (no heartbeat, no
	// complete): two crash-like failures in a row trip the poison rule.
	for i, worker := range []string{"w1", "w2"} {
		var g *LeaseGrant
		deadline := time.Now().Add(5 * time.Second)
		for g == nil {
			if time.Now().After(deadline) {
				t.Fatalf("attempt %d never granted", i)
			}
			g = c.Lease(worker, 1)
			if g == nil {
				time.Sleep(5 * time.Millisecond)
			}
		}
	}
	out := mustWait(t, c, cell.Fingerprint)
	if !out.Quarantined || !strings.Contains(out.Err, "quarantined") {
		t.Fatalf("outcome = %+v, want quarantine", out)
	}
	st := c.Status()
	if st.QuarantinedCells != 1 || st.FailedCells != 0 || len(st.Quarantined) != 1 {
		t.Fatalf("status = %+v", st)
	}
	q := st.Quarantined[0]
	if q.Fingerprint != cell.Fingerprint || len(q.History) != 2 ||
		!strings.Contains(q.History[0], "w1") || !strings.Contains(q.History[1], "w2") {
		t.Fatalf("quarantine row = %+v", q)
	}
	var sb strings.Builder
	reg.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), "cachecraft_cells_quarantined_total 1") {
		t.Error("metrics missing cachecraft_cells_quarantined_total 1")
	}
	// A quarantined cell never circulates again.
	if g := c.Lease("w3", 1); g != nil {
		t.Fatalf("quarantined cell re-granted: %+v", g)
	}

	// The quarantine survives a restart, history and all.
	c.Close()
	j.Close()
	j2 := openTestJournal(t, path)
	c2 := newTestCoordinator(t, Options{Journal: j2})
	out2, err := c2.Wait(mustCtx(t), cell.Fingerprint)
	if err != nil {
		t.Fatal(err)
	}
	if !out2.Quarantined || out2.Err != out.Err {
		t.Fatalf("replayed quarantine = %+v, want %+v", out2, out)
	}
	if st2 := c2.Status(); st2.QuarantinedCells != 1 || len(st2.Quarantined[0].History) != 2 {
		t.Fatalf("replayed status = %+v", st2)
	}
}

func mustCtx(t *testing.T) context.Context {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	t.Cleanup(cancel)
	return ctx
}

// TestQuarantineNeedsDistinctWorkers: one flapping host repeatedly
// losing the same cell must not condemn it — the retry budget, not the
// poison rule, decides its fate.
func TestQuarantineNeedsDistinctWorkers(t *testing.T) {
	c := newTestCoordinator(t, Options{
		LeaseTTL: 30 * time.Millisecond, MaxAttempts: 3, QuarantineAfter: 2,
	})
	cell := testCell("none")
	if err := c.Submit(cell); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		var g *LeaseGrant
		deadline := time.Now().Add(5 * time.Second)
		for g == nil {
			if time.Now().After(deadline) {
				t.Fatalf("attempt %d never granted", i)
			}
			g = c.Lease("flappy", 1)
			if g == nil {
				time.Sleep(5 * time.Millisecond)
			}
		}
	}
	out := mustWait(t, c, cell.Fingerprint)
	if out.Quarantined {
		t.Fatalf("single-worker failures quarantined the cell: %+v", out)
	}
	if !strings.Contains(out.Err, "after 3 attempts") {
		t.Fatalf("outcome = %+v, want retry-budget failure", out)
	}
}

// TestReportedErrorsDoNotQuarantine: a worker that survives and reports
// the cell's error is evidence the cell is merely wrong, not poison —
// only crash-like disappearances count toward quarantine.
func TestReportedErrorsDoNotQuarantine(t *testing.T) {
	c := newTestCoordinator(t, Options{MaxAttempts: 3, QuarantineAfter: 2})
	cell := testCell("none")
	if err := c.Submit(cell); err != nil {
		t.Fatal(err)
	}
	for i, worker := range []string{"w1", "w2", "w3"} {
		var g *LeaseGrant
		deadline := time.Now().Add(5 * time.Second)
		for g == nil {
			if time.Now().After(deadline) {
				t.Fatalf("attempt %d never granted", i)
			}
			g = c.Lease(worker, 1)
			if g == nil {
				time.Sleep(2 * time.Millisecond)
			}
		}
		c.Complete(CompleteRequest{LeaseID: g.LeaseID, Worker: worker,
			Results: []CellResult{{Fingerprint: cell.Fingerprint, Error: "bad math"}}})
	}
	out := mustWait(t, c, cell.Fingerprint)
	if out.Quarantined {
		t.Fatalf("reported errors quarantined the cell: %+v", out)
	}
	if !strings.Contains(out.Err, "after 3 attempts") || !strings.Contains(out.Err, "bad math") {
		t.Fatalf("outcome = %+v", out)
	}
}

// FuzzOpenJournal replays arbitrary bytes as a journal file. Opening must
// not panic, replay must account for every non-blank line as either
// replayed or skipped, and every replayed entry must carry a fingerprint.
func FuzzOpenJournal(f *testing.F) {
	seed := filepath.Join(f.TempDir(), "seed.journal")
	j, err := OpenJournal(seed)
	if err != nil {
		f.Fatal(err)
	}
	if err := j.Append(
		JournalEntry{Op: JournalDone, Fingerprint: "fp1", Sim: version.String(), Sum: "abc", Body: []byte(`{"k":1}`)},
		JournalEntry{Op: JournalFailed, Fingerprint: "fp2", Sim: version.String(), Error: "boom"},
	); err != nil {
		f.Fatal(err)
	}
	j.Close()
	valid, err := os.ReadFile(seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(strings.Replace(string(valid), "\n", "\n \n\r\n", 1))) // blank lines between entries
	f.Add(valid[:len(valid)-7])                                         // torn tail
	f.Add([]byte(strings.Replace(string(valid), "fp1", "fpX", 1)))      // checksum mismatch
	f.Add([]byte("{}\nnot json\n"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.journal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		lines := 0
		for _, l := range bytes.Split(data, []byte("\n")) {
			if len(bytes.TrimSpace(l)) > 0 {
				lines++
			}
		}
		if got := len(j.Replayed()) + j.Skipped(); got != lines {
			t.Fatalf("replayed %d + skipped %d = %d, want %d non-blank lines",
				len(j.Replayed()), j.Skipped(), got, lines)
		}
		for i, e := range j.Replayed() {
			if e.Fingerprint == "" {
				t.Fatalf("replayed entry %d has no fingerprint: %+v", i, e)
			}
		}
	})
}
