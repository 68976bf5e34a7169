package main

import (
	"math"
	"runtime"
	"testing"
)

// TestSmoke runs all four workloads, untraced and traced, at a scale that
// finishes in seconds. It gates what does not depend on the machine: the
// checks pass, nothing fails apart from kv_read's known false misses
// (ROADMAP item 0), every metric of BENCHMARK.json is reported and no
// other, and the ladder telescopes. It gates no timing.
func TestSmoke(t *testing.T) {
	var keep []any // see runResult.keep: nothing is freed until every run is over
	defer runtime.KeepAlive(&keep)
	for _, spec := range workloads {
		e2e := runE2E(spec, 2026, 0.5, true)
		keep = append(keep, e2e.keep)
		checkRun(t, e2e, endToEndMetrics)
		for _, m := range endToEndMetrics {
			if v := e2e.Metrics[m.Name].Value; !(v > 0) || math.IsInf(v, 0) {
				t.Errorf("%s: end-to-end metric %s = %v; the driver's bounds are shares of it", spec.Name, m.Name, v)
			}
		}
		traced, kept := runTraced(spec, 2026, 0.9)
		keep = append(keep, traced.keep)
		checkRun(t, traced, perLayerMetrics)
		sum := traced.Metrics["workload.gen_ns_per_op"].Value
		for _, layer := range ladderLayers[1:] {
			sum += traced.Metrics[layer+".self_ns_per_op"].Value
		}
		if top := traced.Metrics["fabric.ns_per_op"].Value; !(top > 0) || math.Abs(sum-top) > 1e-6*top {
			t.Errorf("%s: self times sum to %v, fabric.ns_per_op is %v", spec.Name, sum, top)
		}
		if len(kept) == 0 {
			t.Errorf("%s: the traced run kept no spans", spec.Name)
		}
		for _, b := range kept {
			for _, s := range b.spans {
				if s.End < s.Start || (s.Parent >= 0 && b.spans[s.Parent].Req != s.Req) {
					t.Fatalf("%s %s: bad span %+v", spec.Name, b.rung, s)
				}
			}
		}
	}
}

func checkRun(t *testing.T, r *runResult, want []metricDef) {
	t.Helper()
	if raceEnabled && r.Failed == r.Checks.Errors {
		t.Logf("%s trace %d: %d requests shed under the race detector", r.Workload, r.Trace, r.Failed)
	} else if !r.Correct || r.Failed != 0 {
		t.Errorf("%s trace %d: correct %v, %d failed of %d: %v", r.Workload, r.Trace, r.Correct, r.Failed, r.Attempted, r.Notes)
	}
	if r.Attempted == 0 {
		t.Errorf("%s trace %d: nothing attempted", r.Workload, r.Trace)
	}
	if r.Checks.FalseMiss != 0 && r.Workload != "kv_read" {
		t.Errorf("%s trace %d: %d false misses on a workload that may miss", r.Workload, r.Trace, r.Checks.FalseMiss)
	}
	if len(r.Metrics) != len(want) {
		t.Errorf("%s trace %d: %d metrics reported, BENCHMARK.json lists %d", r.Workload, r.Trace, len(r.Metrics), len(want))
	}
	for _, m := range want {
		if got, ok := r.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("%s trace %d: metric %s (%s) missing or in unit %q", r.Workload, r.Trace, m.Name, m.Unit, got.Unit)
		}
	}
}
