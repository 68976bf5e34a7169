package chaos

import (
	"bytes"
	"encoding/json"
	"testing"

	"cxlalloc/internal/telemetry"
)

// TestSweepEmitsCrashRepairSpans runs a small thread-crash sweep with
// tracing enabled and asserts the trace carries the chaos story: crash
// points firing, crash marks, recovery enter/exit pairs, and at least
// one derived crash→repair span — the satellite guarantee that a chaos
// run is reconstructible from the telemetry plane alone.
func TestSweepEmitsCrashRepairSpans(t *testing.T) {
	cfg := Config{Script: Script{Threads: 4, Procs: 2, Ops: 200, Seed: 11}, Modes: []Mode{ModeThreadCrash}}
	tr := telemetry.Start(cfg.Threads, 1<<14)
	defer telemetry.Stop()

	rep, err := Sweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Ok() {
		t.Fatalf("sweep not Ok: %s", rep.Summary())
	}
	telemetry.Stop()

	counts := tr.Counts()
	for _, want := range []telemetry.Kind{
		telemetry.EvCrashPoint, telemetry.EvCrash,
		telemetry.EvRecoveryEnter, telemetry.EvRecoveryExit,
	} {
		if counts[want.String()] == 0 {
			t.Errorf("no %s events recorded", want)
		}
	}

	spans := telemetry.CrashRepairSpans(tr.Events())
	if len(spans) == 0 {
		t.Fatal("no crash→repair spans derived from the trace")
	}
	for _, sp := range spans {
		if sp.End < sp.Start {
			t.Errorf("span on tid %d ends before it starts: %+v", sp.TID, sp)
		}
		if sp.Outcome != "repaired" {
			t.Errorf("span outcome = %q, want repaired", sp.Outcome)
		}
	}

	// The exporter must produce a Chrome-loadable JSON object with those
	// spans as complete ("X") events.
	var buf bytes.Buffer
	if err := telemetry.WriteChromeTrace(&buf, tr); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	nx := 0
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "X" && ev["name"] == "crash→repair" {
			nx++
		}
	}
	if nx != len(spans) {
		t.Errorf("trace has %d crash→repair X events, want %d", nx, len(spans))
	}
}
