package chaos

import (
	"strings"
	"testing"

	"cxlalloc/internal/core"
)

// TestSweepSmall runs the full chaos gate at CI size: every crash point
// the workload discovers must fire under both failure modes with zero
// invariant violations, and the NMP fault phase must complete degraded.
func TestSweepSmall(t *testing.T) {
	cfg := Config{Script: Script{Threads: 4, Procs: 2, Ops: 400, Seed: 7}}
	rep, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) == 0 {
		t.Fatal("discovery found no crash points")
	}
	for _, must := range append([]string{"small.alloc.post-take"}, core.RecoveryCrashPoints...) {
		found := false
		for _, p := range rep.Points {
			if p == must {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("workload never visited %q", must)
		}
	}
	if len(rep.Unswept) != 0 {
		t.Errorf("unswept combinations: %v", rep.Unswept)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	if !rep.NMP.Completed {
		t.Errorf("NMP fault run did not complete: %s", rep.NMP.Err)
	}
	if rep.NMP.Fallbacks == 0 {
		t.Error("NMP fault run never took the sw_flush_cas fallback")
	}
	if rep.NMP.Faults == 0 {
		t.Error("NMP fault run injected no faults")
	}
	if rep.swept() != len(rep.Points) {
		t.Errorf("swept %d of %d points", rep.swept(), len(rep.Points))
	}
	if !rep.Ok() {
		t.Fatalf("report not Ok: %s", rep.Summary())
	}
	if !strings.Contains(rep.Summary(), "chaos OK") {
		t.Errorf("summary = %q", rep.Summary())
	}
	if out := FormatReport(rep); !strings.Contains(out, "nmp fault phase") {
		t.Errorf("FormatReport missing NMP section:\n%s", out)
	}
}

// TestSweepAuto runs the gate on a self-healing pod: the harness makes
// zero Recover/Restart calls, every crash — including crashes injected
// inside recovery and inside the claim protocol — must be converged by
// the watchdog alone, and the liveness crash points must be swept too.
func TestSweepAuto(t *testing.T) {
	cfg := Config{Script: Script{Threads: 4, Procs: 2, Ops: 400, Seed: 7}, AutoRecover: true}
	rep, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	musts := append([]string{"small.alloc.post-take"}, core.RecoveryCrashPoints...)
	musts = append(musts, core.LivenessCrashPoints...)
	for _, must := range musts {
		found := false
		for _, p := range rep.Points {
			if p == must {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("workload never visited %q", must)
		}
	}
	if len(rep.Unswept) != 0 {
		t.Errorf("unswept combinations: %v", rep.Unswept)
	}
	for _, v := range rep.Violations {
		t.Errorf("violation: %s", v)
	}
	if !rep.Ok() {
		t.Fatalf("report not Ok: %s", rep.Summary())
	}
	if !strings.Contains(rep.Summary(), "chaos[auto] OK") {
		t.Errorf("summary = %q", rep.Summary())
	}
}

// TestSweepConfigValidation rejects degenerate pods where process death
// would leave no survivors.
func TestSweepConfigValidation(t *testing.T) {
	for _, cfg := range []Config{
		{Script: Script{Threads: 1, Procs: 1, Ops: 400}},
		{Script: Script{Threads: 4, Procs: 1, Ops: 400}},
		{Script: Script{Threads: 2, Procs: 4, Ops: 400}},
		{Script: Script{Threads: 4, Procs: 2, Ops: 10}},
	} {
		if _, err := Sweep(cfg); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

// TestSweepSingleMode restricts the sweep to thread crashes only.
func TestSweepSingleMode(t *testing.T) {
	cfg := Config{Script: Script{Threads: 4, Procs: 2, Ops: 200, Seed: 11}, Modes: []Mode{ModeThreadCrash}}
	rep, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, run := range rep.Runs {
		if run.Mode != ModeThreadCrash {
			t.Fatalf("unexpected mode %q", run.Mode)
		}
	}
	if len(rep.Unswept) != 0 || len(rep.Violations) != 0 {
		t.Fatalf("unswept=%v violations=%v", rep.Unswept, rep.Violations)
	}
}
