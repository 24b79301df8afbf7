package audit_test

import (
	"context"
	"reflect"
	"strings"
	"testing"

	cachecraft "cachecraft"
	"cachecraft/internal/audit"
	"cachecraft/internal/bench"
	"cachecraft/internal/config"
	"cachecraft/internal/mem"
	"cachecraft/internal/schemes"
	"cachecraft/internal/sim"
	"cachecraft/internal/trace"
)

// wantRule asserts the checker recorded at least one violation of rule.
func wantRule(t *testing.T, c *audit.Checker, rule string) {
	t.Helper()
	for _, v := range c.Violations() {
		if v.Rule == rule {
			return
		}
	}
	t.Fatalf("no %q violation recorded; have %v", rule, c.Violations())
}

// wantClean asserts the checker recorded nothing.
func wantClean(t *testing.T, c *audit.Checker) {
	t.Helper()
	if err := c.Err(); err != nil {
		t.Fatalf("unexpected violations: %v", err)
	}
}

func TestAuditNilCheckerIsSafe(t *testing.T) {
	var c *audit.Checker
	c.SetMSHRCapacity(4)
	c.EngineStep(1)
	if tok := c.ReadIssued(0, 0, 0x100, 1); tok != 0 {
		t.Fatalf("nil checker minted token %d", tok)
	}
	c.Delivered(1, 0, 1)
	c.StoreIssued(0, 0, 0x100, 1)
	c.ReadMissIssued(0, 0x100, 1, mem.Demand)
	c.ReadMissDone(1, 0)
	c.WritebackIssued(1, 0x100, 1)
	c.MSHRAlloc(0, 0, 0x100, 1)
	c.MSHRFetch(0, 0, 0x100, 1)
	c.MSHRFill(0, 0, 0x100, 1)
	c.MSHRRelease(0, 0, 0x100)
	c.Submitted(0, mem.Request{Bytes: 32}, 0, 0, 3)
	c.Serviced(1, mem.Request{Bytes: 32}, 0, 0, 3, -1, 0)
	c.Refreshed(2, 0)
	c.XbarTransfer("req", 0, 1, 32, 1)
	c.CacheViolation(1, nil)
	c.BankDrained(2, 0, 0, 0)
	c.FinishSim(2, 0, 0)
	c.FinishXbar(2, "req", 0)
	if c.Err() != nil || c.Total() != 0 || c.Violations() != nil {
		t.Fatal("nil checker reported state")
	}
}

func TestAuditTickMonotonic(t *testing.T) {
	c := audit.NewChecker()
	c.EngineStep(5)
	c.EngineStep(5) // same cycle is legal
	wantClean(t, c)
	c.EngineStep(3)
	wantRule(t, c, "tick-monotonic")
}

func TestAuditTokenLifecycle(t *testing.T) {
	c := audit.NewChecker()
	tok := c.ReadIssued(10, 2, 0x400, 0b1010)
	c.Delivered(12, tok, 0b0010)
	wantClean(t, c)
	c.Delivered(13, tok, 0b0100) // sector was never requested
	wantRule(t, c, "token-mask")

	c = audit.NewChecker()
	c.Delivered(1, 99, 1)
	wantRule(t, c, "token-unknown")

	// A token delivered twice must fail the second time: full delivery
	// retires it.
	c = audit.NewChecker()
	tok = c.StoreIssued(0, 0, 0x80, 0b1)
	c.Delivered(4, tok, 0b1)
	wantClean(t, c)
	c.Delivered(5, tok, 0b1)
	wantRule(t, c, "token-unknown")

	// Delivery before issue is time travel.
	c = audit.NewChecker()
	tok = c.ReadIssued(10, 0, 0x80, 0b1)
	c.Delivered(7, tok, 0b1)
	wantRule(t, c, "token-time")

	// Undelivered tokens surface as leaks at end of simulation.
	c = audit.NewChecker()
	c.ReadIssued(0, 1, 0x200, 0b11)
	c.FinishSim(100, 0, 0)
	wantRule(t, c, "token-leak")
}

func TestAuditSchemeCallPairing(t *testing.T) {
	c := audit.NewChecker()
	tok := c.ReadMissIssued(5, 0x1000, 0b11, mem.Demand)
	c.ReadMissDone(9, tok)
	wantClean(t, c)
	c.ReadMissDone(10, tok) // double completion
	wantRule(t, c, "scheme-done-twice")

	c = audit.NewChecker()
	tok = c.ReadMissIssued(20, 0x1000, 0b1, mem.Demand)
	c.ReadMissDone(15, tok)
	wantRule(t, c, "scheme-done-time")

	c = audit.NewChecker()
	c.ReadMissIssued(0, 0x1000, 0b1, mem.Demand)
	c.FinishSim(50, 0, 0)
	wantRule(t, c, "scheme-done-missing")

	c = audit.NewChecker()
	c.WritebackIssued(1, 0x2000, 0)
	wantRule(t, c, "scheme-writeback-mask")
}

func TestAuditMSHRRules(t *testing.T) {
	c := audit.NewChecker()
	c.MSHRAlloc(0, 1, 0x100, 1)
	c.MSHRAlloc(1, 1, 0x100, 2)
	wantRule(t, c, "mshr-double-alloc")

	c = audit.NewChecker()
	c.SetMSHRCapacity(1)
	c.MSHRAlloc(0, 0, 0x100, 1)
	c.MSHRAlloc(0, 0, 0x180, 2)
	wantRule(t, c, "mshr-capacity")

	c = audit.NewChecker()
	c.MSHRFetch(0, 0, 0x100, 0b1)
	wantRule(t, c, "mshr-fetch-unknown")

	c = audit.NewChecker()
	c.MSHRAlloc(0, 0, 0x100, 1)
	c.MSHRFetch(1, 0, 0x100, 0b11)
	c.MSHRFill(2, 0, 0x100, 0b100) // fill outside the fetched set
	wantRule(t, c, "mshr-fill-mask")

	c = audit.NewChecker()
	c.MSHRAlloc(0, 0, 0x100, 1)
	c.MSHRFetch(1, 0, 0x100, 0b11)
	c.MSHRFill(2, 0, 0x100, 0b01)
	c.MSHRRelease(3, 0, 0x100) // one fetched sector never filled
	wantRule(t, c, "mshr-release-incomplete")

	c = audit.NewChecker()
	c.MSHRRelease(0, 0, 0x100)
	wantRule(t, c, "mshr-release-unknown")

	// A never-released entry is a leak at drain.
	c = audit.NewChecker()
	c.MSHRAlloc(0, 3, 0x100, 1)
	c.BankDrained(99, 3, 1, 0)
	wantRule(t, c, "mshr-leak")
}

func TestAuditDRAMShadow(t *testing.T) {
	req := mem.Request{Addr: 0x1000, Bytes: 32, Class: mem.Demand}

	c := audit.NewChecker()
	c.Serviced(5, req, 0, 0, 3, -1, 0)
	wantRule(t, c, "dram-queue")

	c = audit.NewChecker()
	c.Submitted(0, req, 0, 0, 3)
	c.Serviced(5, req, 0, 0, 3, -1, 9) // bank busy until cycle 9
	wantRule(t, c, "dram-busy")

	// The scheduler claiming an open row the shadow never saw opened is a
	// row-state divergence.
	c = audit.NewChecker()
	c.Submitted(0, req, 0, 0, 3)
	c.Serviced(5, req, 0, 0, 3, 7, 0)
	wantRule(t, c, "dram-row-state")

	// Refresh closes rows: a post-refresh access to the same row is a miss
	// in the shadow, and a scheduler still claiming it open diverges.
	c = audit.NewChecker()
	c.Submitted(0, req, 0, 0, 3)
	c.Serviced(5, req, 0, 0, 3, -1, 0)
	c.Refreshed(6, 0)
	c.Submitted(7, req, 0, 0, 3)
	c.Serviced(8, req, 0, 0, 3, 3, 0)
	wantRule(t, c, "dram-row-state")

	c = audit.NewChecker()
	c.Submitted(0, mem.Request{Addr: 0x1000, Bytes: 0, Class: mem.Demand}, 0, 0, 3)
	wantRule(t, c, "dram-bytes")
}

func TestAuditXbarRules(t *testing.T) {
	c := audit.NewChecker()
	c.XbarTransfer("req", 10, 11, 32, 4) // delivered 3 cycles early
	wantRule(t, c, "xbar-latency")

	c = audit.NewChecker()
	c.XbarTransfer("resp", 0, 4, 64, 4)
	c.FinishXbar(9, "resp", 64)
	wantClean(t, c)
	c.FinishXbar(9, "resp", 128)
	wantRule(t, c, "xbar-bytes")
}

func TestAuditErrSummaryAndCap(t *testing.T) {
	c := audit.NewChecker()
	if c.Err() != nil {
		t.Fatal("clean checker returned an error")
	}
	for i := 0; i < 100; i++ {
		c.Delivered(sim.Cycle(i), 12345, 1)
	}
	if c.Total() != 100 {
		t.Fatalf("Total = %d, want 100", c.Total())
	}
	if len(c.Violations()) >= c.Total() {
		t.Fatalf("recording cap not applied: %d recorded", len(c.Violations()))
	}
	err := c.Err()
	if err == nil || !strings.Contains(err.Error(), "100 violations") ||
		!strings.Contains(err.Error(), "token-unknown") {
		t.Fatalf("Err() = %v", err)
	}
}

// TestAuditRunMatchesUnaudited pins the zero-observer property: auditing
// must not change simulated behaviour, alone or sharing the machine
// observer with the probe subscriber. Audited and audited+probed runs
// return results identical to a plain run of the same cell, counters
// included.
func TestAuditRunMatchesUnaudited(t *testing.T) {
	cfg := config.Quick()
	cfg.AccessesPerSM = 400
	for _, scheme := range []string{"none", "cachecraft"} {
		plain, err := cachecraft.Run(cfg, "gemm", scheme)
		if err != nil {
			t.Fatal(err)
		}
		audited, err := cachecraft.Run(cfg, "gemm", scheme, cachecraft.WithAudit())
		if err != nil {
			t.Fatalf("%s: audited run failed: %v", scheme, err)
		}
		if !reflect.DeepEqual(plain, audited) {
			t.Fatalf("%s: audited result differs from plain result:\n%+v\nvs\n%+v", scheme, plain, audited)
		}
		probes := cachecraft.NewProbes(500)
		both, err := cachecraft.Run(cfg, "gemm", scheme, cachecraft.WithAudit(), cachecraft.WithProbes(probes))
		if err != nil {
			t.Fatalf("%s: audited+probed run failed: %v", scheme, err)
		}
		if !reflect.DeepEqual(plain, both) {
			t.Fatalf("%s: audited+probed result differs from plain result:\n%+v\nvs\n%+v", scheme, plain, both)
		}
		if len(probes.Snapshot()) == 0 {
			t.Fatalf("%s: probes recorded nothing alongside the audit", scheme)
		}
	}
}

// TestAuditQuickGridAllSchemes runs the full workload × scheme grid at
// quick scale under the runner's audit knob. Any invariant violation in
// any cell fails the whole grid — this is the audited tier-1 job's
// backbone.
func TestAuditQuickGridAllSchemes(t *testing.T) {
	cfg := config.Quick()
	cfg.NumSMs = 2
	cfg.AccessesPerSM = 300
	r := bench.NewRunner(cfg)
	r.SetAudit(true)
	var specs []bench.Spec
	for _, wl := range trace.Names() {
		for _, s := range schemes.Names() {
			specs = append(specs, bench.Spec{CfgID: "base", Workload: wl, Variant: s})
		}
	}
	if _, err := r.Prefetch(context.Background(), specs); err != nil {
		t.Fatalf("audited grid failed: %v", err)
	}
	if st := r.Stats(); st.Runs != len(specs) {
		t.Fatalf("expected %d audited runs, got %d", len(specs), st.Runs)
	}
}
