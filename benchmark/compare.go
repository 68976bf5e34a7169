package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

func loadReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Runs) == 0 {
		return nil, fmt.Errorf("%s: not a full report (no runs)", path)
	}
	return &r, nil
}

// comparable says why two reports may not be compared, or "".
func comparable(a, b *report) string {
	switch {
	case a.Quick || b.Quick:
		return "a -quick report is not a measurement"
	case a.Env.NProc != b.Env.NProc:
		return fmt.Sprintf("nproc differs (%d, %d)", a.Env.NProc, b.Env.NProc)
	case a.Env.GOMAXPROCS != b.Env.GOMAXPROCS:
		return fmt.Sprintf("GOMAXPROCS differs (%d, %d)", a.Env.GOMAXPROCS, b.Env.GOMAXPROCS)
	case a.Env.GoVersion != b.Env.GoVersion:
		return fmt.Sprintf("go version differs (%s, %s)", a.Env.GoVersion, b.Env.GoVersion)
	case a.Env.Seed != b.Env.Seed:
		return fmt.Sprintf("seed differs (%d, %d)", a.Env.Seed, b.Env.Seed)
	}
	return ""
}

// verdict compares b's median with a's for one end-to-end metric.
// worsening is the share of a's median by which b is worse (negative when
// better). A side whose repeats spread wider than the bound cannot resolve
// a change of the bound's size. Spread is the quartile spread the driver
// uses, not the issue's min–max range: one cold repeat in six is enough to
// push min–max past any bound, and it called 12 of 28 rows unresolved
// between two reports whose medians agreed within 1 %.
func verdict(a, b metric, better string, bound float64) (v string, worsening float64) {
	worsening = (b.Value - a.Value) / a.Value
	if better == "higher" {
		worsening = -worsening
	}
	if quartileSpread(a.Repeats) > bound || quartileSpread(b.Repeats) > bound {
		return "unresolved", worsening
	}
	switch {
	case worsening > bound:
		return "worse", worsening
	case worsening < -bound:
		return "better", worsening
	}
	return "same", worsening
}

// compareReports prints one row per workload and end-to-end metric and
// returns the exit code: exitFailed when any row is worse.
func compareReports(man *manifest, pathA, pathB string, w io.Writer) int {
	var reps [2]*report
	for i, path := range []string{pathA, pathB} {
		var err error
		if reps[i], err = loadReport(path); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: -compare:", err)
			return exitUsage
		}
	}
	return compareLoaded(man, reps[0], reps[1], w)
}

func compareLoaded(man *manifest, a, b *report, w io.Writer) int {
	if why := comparable(a, b); why != "" {
		fmt.Fprintln(os.Stderr, "benchmark: -compare refuses these reports:", why)
		return exitUsage
	}
	if qa, qb := a.Env.Sleep100usMs, b.Env.Sleep100usMs; math.Abs(qa-qb) > math.Max(qa, qb)/5 {
		fmt.Fprintf(os.Stderr, "warning: time.Sleep(100us) took %.3f ms and %.3f ms: the idle-worker wake-up that sets lat_p99_us differs between the two machines\n", qa, qb)
	}
	untraced := func(r *report, workload string) *runResult {
		for i := range r.Runs {
			if r.Runs[i].Workload == workload && r.Runs[i].Trace == 0 {
				return &r.Runs[i]
			}
		}
		return nil
	}
	code := 0
	fmt.Fprintf(w, "%-10s %-14s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "change", "bound", "verdict")
	for _, wl := range man.Workloads {
		ra, rb := untraced(a, wl.Name), untraced(b, wl.Name)
		if ra == nil || rb == nil {
			continue
		}
		for _, m := range man.EndToEnd {
			v, worsening := verdict(ra.Metrics[m.Name], rb.Metrics[m.Name], m.Better, m.Bound)
			fmt.Fprintf(w, "%-10s %-14s %14.6g %14.6g %+8.2f%% %6.3g%%  %s\n", wl.Name, m.Name,
				ra.Metrics[m.Name].Value, rb.Metrics[m.Name].Value, 100*worsening, 100*m.Bound, v)
			if v == "worse" {
				code = exitFailed
			}
		}
	}
	return code
}
