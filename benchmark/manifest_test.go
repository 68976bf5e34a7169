package main

import (
	"regexp"
	"testing"
)

// BENCHMARK.json is what the driver and -compare read; the tables in
// manifest.go are what the runs report. They must name the same metrics.
func TestManifestMatchesTheCode(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	man, err := readManifest(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(man.Workloads), len(workloads))
	}
	for i, w := range man.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the code", i, w.Name, workloads[i].Name)
		}
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why of %d characters", w.Name, len(w.Why))
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind, n, u, better string) {
		if !name.MatchString(n) || !unit.MatchString(u) || seen[n] {
			t.Errorf("%s metric %q (%q): bad or repeated name or unit", kind, n, u)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("%s metric %q: better = %q", kind, n, better)
		}
		seen[n] = true
	}
	if len(man.EndToEnd) != len(endToEndMetrics) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in the code", len(man.EndToEnd), len(endToEndMetrics))
	}
	for i, m := range man.EndToEnd {
		check("end-to-end", m.Name, m.Unit, m.Better)
		if d := endToEndMetrics[i]; d.Name != m.Name || d.Unit != m.Unit {
			t.Errorf("end-to-end metric %d: %v in BENCHMARK.json, %v in the code", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
	}
	if len(man.PerLayer) != len(perLayerMetrics) || len(man.PerLayer) > 128 {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in the code", len(man.PerLayer), len(perLayerMetrics))
	}
	for i, m := range man.PerLayer {
		check("per-layer", m.Name, m.Unit, m.Better)
		if d := perLayerMetrics[i]; d.Name != m.Name || d.Unit != m.Unit {
			t.Errorf("per-layer metric %d: %v in BENCHMARK.json, %v in the code", i, m, d)
		}
	}
	if man.RunSeconds < 1 || man.RunSeconds > 60 {
		t.Errorf("run_seconds %d", man.RunSeconds)
	}
}
