package bench

import (
	"testing"

	"cxlalloc/internal/telemetry"
)

func TestRunObs(t *testing.T) {
	sc := tinyScale()
	rows, err := RunObs(sc)
	if err != nil {
		t.Fatal(err)
	}
	// 2 shapes x 3 modes x 1 thread count.
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	for _, r := range rows {
		if r.Failed != "" {
			continue
		}
		if r.Throughput <= 0 {
			t.Fatalf("%s/%s: no disabled-mode throughput", r.Workload, r.Allocator)
		}
		for _, k := range []string{"tput_enabled", "overhead_pct", "events", "dropped"} {
			if r.Extra[k] == "" {
				t.Fatalf("%s/%s: Extra[%q] missing (extra=%v)", r.Workload, r.Allocator, k, r.Extra)
			}
		}
		if r.Extra["events"] == "0" {
			t.Fatalf("%s/%s: enabled run recorded no events", r.Workload, r.Allocator)
		}
	}
	// RunObs must leave global tracing off.
	if telemetry.Enabled() {
		t.Fatal("RunObs left the global tracer installed")
	}
}
