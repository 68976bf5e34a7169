package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	// Three repeats: the quartiles of (lo, v, hi) are lo and hi.
	m := func(v, lo, hi float64) metric { return metric{Value: v, Repeats: []float64{lo, v, hi}} }
	cases := []struct {
		name   string
		a, b   metric
		better string
		bound  float64
		want   string
	}{
		{"throughput down 20% of a", m(100, 98, 102), m(80, 79, 81), "higher", 0.10, "worse"},
		{"throughput up 20%", m(100, 98, 102), m(120, 118, 122), "higher", 0.10, "better"},
		{"throughput within the bound", m(100, 98, 102), m(95, 94, 97), "higher", 0.10, "same"},
		{"latency up 20%", m(100, 98, 102), m(120, 118, 122), "lower", 0.10, "worse"},
		{"latency down 20%", m(100, 98, 102), m(80, 79, 81), "lower", 0.10, "better"},
		{"a's repeats spread wider than the bound", m(100, 90, 105), m(80, 79, 81), "higher", 0.10, "unresolved"},
		{"b's repeats spread wider than the bound", m(100, 98, 102), m(120, 100, 130), "lower", 0.10, "unresolved"},
		{"ok_share lost one op in ten thousand", m(1, 1, 1), m(0.9999, 0.9999, 0.9999), "higher", 0.00001, "worse"},
		{"ok_share lost one op in ten million", m(1, 1, 1), m(0.9999999, 0.9999999, 0.9999999), "higher", 0.00001, "same"},
	}
	for _, c := range cases {
		if got, _ := verdict(c.a, c.b, c.better, c.bound); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestQuartileSpreadMatchesPythonStatistics(t *testing.T) {
	// statistics.quantiles([770, 830, 840, 845, 900, 965], n=4) = [815.0, 842.5, 916.25]
	got := quartileSpread([]float64{900, 770, 845, 830, 965, 840})
	if want := (916.25 - 815.0) / 842.5; math.Abs(got-want) > 1e-12 {
		t.Fatalf("quartileSpread = %v, want %v", got, want)
	}
	// One cold repeat in six does not set the spread.
	if got := quartileSpread([]float64{100, 101, 99, 100, 102, 160}); got > 0.2 {
		t.Fatalf("one outlier gave a spread of %v", got)
	}
	if quartileSpread([]float64{5}) != 0 || quartileSpread(nil) != 0 {
		t.Fatal("fewer than two values have no spread")
	}
}

func TestCompareRefusesUnlikeReports(t *testing.T) {
	base := report{Env: envBlock{NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", Seed: 2026}}
	if why := comparable(&base, &base); why != "" {
		t.Fatalf("a report must compare with itself: %s", why)
	}
	for name, mutate := range map[string]func(*report){
		"nproc":      func(r *report) { r.Env.NProc = 4 },
		"GOMAXPROCS": func(r *report) { r.Env.GOMAXPROCS = 1 },
		"go version": func(r *report) { r.Env.GoVersion = "go1.25.0" },
		"seed":       func(r *report) { r.Env.Seed = 1 },
		"quick":      func(r *report) { r.Quick = true },
	} {
		other := base
		mutate(&other)
		if comparable(&base, &other) == "" || comparable(&other, &base) == "" {
			t.Errorf("reports that differ in %s were accepted", name)
		}
	}
}

func TestCompareRowsAndExitCode(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	man, err := readManifest(root)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(sat float64) *report {
		r := &report{Env: envBlock{NProc: 2, GOMAXPROCS: 2, GoVersion: "go1.24.0", Seed: 2026}}
		for _, w := range workloads {
			run := newResult(w, 0, 2026, 20)
			for _, m := range endToEndMetrics {
				run.set(m.Name, m.Unit, 1)
			}
			run.set(mSatOps, "ops/s", sat)
			r.Runs = append(r.Runs, *run, *newResult(w, 1, 2026, 20))
		}
		return r
	}
	var out bytes.Buffer
	if code := compareLoaded(man, mk(1000), mk(990), &out); code != 0 {
		t.Fatalf("a 1%% dip exits %d:\n%s", code, out.String())
	}
	if rows := strings.Count(out.String(), "\n") - 1; rows != len(workloads)*len(endToEndMetrics) {
		t.Fatalf("%d rows, want one per workload and end-to-end metric:\n%s", rows, out.String())
	}
	out.Reset()
	if code := compareLoaded(man, mk(1000), mk(500), &out); code != exitFailed || !strings.Contains(out.String(), "worse") {
		t.Fatalf("a halved throughput exits %d:\n%s", code, out.String())
	}
}
