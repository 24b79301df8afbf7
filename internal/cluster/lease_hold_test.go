package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"cachecraft/internal/config"
)

// pollLease sends one lease poll through the HTTP handler and returns the
// recorded answer once the handler is done (held polls included).
func pollLease(ctx context.Context, c *Coordinator, worker string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/cluster/lease",
		strings.NewReader(`{"worker":"`+worker+`","max":1}`)).WithContext(ctx)
	rec := httptest.NewRecorder()
	c.handleLease(rec, req)
	return rec
}

// startPoll runs pollLease on its own goroutine and returns once the poll
// has reported its worker and had time to settle into its hold.
func startPoll(t *testing.T, ctx context.Context, c *Coordinator, worker string) <-chan *httptest.ResponseRecorder {
	t.Helper()
	out := make(chan *httptest.ResponseRecorder, 1)
	go func() { out <- pollLease(ctx, c, worker) }()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		_, seen := c.workers[worker]
		c.mu.Unlock()
		if seen {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("poll never reached the coordinator")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	return out
}

// grantOf asserts a 200 answer leasing exactly cell.
func grantOf(t *testing.T, rec *httptest.ResponseRecorder, cell Cell) {
	t.Helper()
	if rec.Code != http.StatusOK {
		t.Fatalf("poll answered %d, want 200 with a grant", rec.Code)
	}
	var g LeaseGrant
	if err := json.NewDecoder(rec.Body).Decode(&g); err != nil {
		t.Fatal(err)
	}
	if len(g.Cells) != 1 || g.Cells[0].Fingerprint != cell.Fingerprint {
		t.Fatalf("grant = %+v, want %s", g.Cells, cell.Fingerprint)
	}
}

func TestHeldPollWakesOnSubmit(t *testing.T) {
	c := newTestCoordinator(t, Options{})
	done := startPoll(t, context.Background(), c, "w1")
	cell := testCell("none")
	submitted := time.Now()
	if err := c.Submit(cell); err != nil {
		t.Fatal(err)
	}
	rec := <-done
	if d := time.Since(submitted); d > 200*time.Millisecond {
		t.Fatalf("grant arrived %s after Submit, want within 200ms", d)
	}
	grantOf(t, rec, cell)
}

func TestHeldPollWakesAtNotBefore(t *testing.T) {
	const backoff = 300 * time.Millisecond
	c := newTestCoordinator(t, Options{BackoffBase: backoff, BackoffCap: backoff})
	cell := testCell("none")
	if err := c.Submit(cell); err != nil {
		t.Fatal(err)
	}
	g := c.Lease("w1", 1)
	if g == nil {
		t.Fatal("no lease for a queued cell")
	}
	failed := time.Now()
	c.Complete(CompleteRequest{LeaseID: g.LeaseID, Worker: "w1",
		Results: []CellResult{{Fingerprint: cell.Fingerprint, Error: "boom"}}})

	rec := pollLease(context.Background(), c, "w1")
	d := time.Since(failed)
	grantOf(t, rec, cell)
	// The re-queued cell is granted once its backoff ends — not before,
	// and not at the end of the one-second hold.
	if d < backoff || d > backoff+300*time.Millisecond {
		t.Fatalf("backed-off cell granted %s after the failure, want within 300ms after its %s backoff", d, backoff)
	}
}

func TestHeldPollEndsOnCloseAndHangUp(t *testing.T) {
	c := newTestCoordinator(t, Options{})
	ctx, hangUp := context.WithCancel(context.Background())
	defer hangUp()
	for _, tc := range []struct {
		name    string
		ctx     context.Context
		release func()
		want    int
	}{
		// A hung-up poll writes nothing, so the recorder keeps its 200
		// default; what matters is that the handler returns.
		{"hang-up", ctx, hangUp, http.StatusOK},
		{"close", context.Background(), c.Close, http.StatusServiceUnavailable},
	} {
		done := startPoll(t, tc.ctx, c, "w-"+tc.name)
		select {
		case rec := <-done:
			t.Fatalf("%s: poll answered %d before release; it should be held", tc.name, rec.Code)
		default:
		}
		released := time.Now()
		tc.release()
		rec := <-done
		if d := time.Since(released); d > 200*time.Millisecond {
			t.Fatalf("%s: held poll returned %s after release, want within 200ms", tc.name, d)
		}
		if rec.Code != tc.want {
			t.Fatalf("%s: answer %d %q, want %d", tc.name, rec.Code, rec.Body.String(), tc.want)
		}
	}
}

// TestSubmitRacingHeldPollIsNeverMissed starts a poll and a Submit
// together, many times over, with the Submit delayed by 0 to 450µs so it
// lands on every phase of the poll: whichever wins, the poll must come
// back with the cell well before its hold would have ended. Run it under
// -race.
func TestSubmitRacingHeldPollIsNeverMissed(t *testing.T) {
	c := newTestCoordinator(t, Options{LeaseTTL: time.Minute})
	for i := 0; i < 50; i++ {
		cfg := config.Quick()
		cfg.AccessesPerSM = 100 + i
		cell := NewCell(cfg, "stream", "none")
		var (
			wg    sync.WaitGroup
			rec   *httptest.ResponseRecorder
			start = make(chan struct{})
		)
		wg.Add(2)
		go func() {
			defer wg.Done()
			<-start
			rec = pollLease(context.Background(), c, "w1")
		}()
		go func() {
			defer wg.Done()
			<-start
			time.Sleep(time.Duration(i%10) * 50 * time.Microsecond)
			if err := c.Submit(cell); err != nil {
				t.Error(err)
			}
		}()
		t0 := time.Now()
		close(start)
		wg.Wait()
		if d := time.Since(t0); d > leaseHold/2 {
			t.Fatalf("round %d: poll took %s; the Submit's wake-up was missed", i, d)
		}
		grantOf(t, rec, cell)
	}
}
