package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func hotRow(threads int, tput float64) Row {
	return Row{Experiment: "hotpath", Workload: "threadtest-small",
		Allocator: "cxlalloc-swcc", Threads: threads, Procs: 2, Throughput: tput}
}

// TestRunHotpath checks the hotpath experiment returns one row per cell:
// both shapes under every hotpath mode at every thread count.
func TestRunHotpath(t *testing.T) {
	sc := tinyScale()
	rows, err := RunHotpath(sc)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, r := range rows {
		if r.Experiment != "hotpath" {
			t.Fatalf("row from experiment %q", r.Experiment)
		}
		if r.Failed == "" && r.Throughput <= 0 {
			t.Fatalf("%s/%s t=%d: no throughput", r.Workload, r.Allocator, r.Threads)
		}
		seen[fmt.Sprintf("%s|%s|%d", r.Workload, r.Allocator, r.Threads)] = true
	}
	for _, shape := range []string{"threadtest-small", "xmalloc-small"} {
		for _, m := range HotpathModes {
			for _, threads := range sc.Threads {
				if cell := fmt.Sprintf("%s|%s|%d", shape, m.Name, threads); !seen[cell] {
					t.Errorf("no row for cell %s", cell)
				}
			}
		}
	}
	if want := 2 * len(HotpathModes) * len(sc.Threads); len(rows) != want {
		t.Fatalf("rows = %d, want %d", len(rows), want)
	}
}

// TestAppendBenchJSONAppendsAndReplaces pins the trajectory-file
// semantics the per-PR workflow relies on: a new label appends a run,
// re-recording an existing label replaces it in place (stable order,
// no growth), and rows are stably sorted on write.
func TestAppendBenchJSONAppendsAndReplaces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_hotpath.json")
	if err := AppendBenchJSON(path, "before", []Row{hotRow(4, 900), hotRow(2, 800)}); err != nil {
		t.Fatal(err)
	}
	if err := AppendBenchJSON(path, "after", []Row{hotRow(2, 1200)}); err != nil {
		t.Fatal(err)
	}
	if err := AppendBenchJSON(path, "before", []Row{hotRow(2, 850)}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var bf BenchFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Runs) != 2 {
		t.Fatalf("runs = %d, want 2 (replace, not append, for a seen label)", len(bf.Runs))
	}
	if bf.Runs[0].Label != "before" || bf.Runs[1].Label != "after" {
		t.Fatalf("run order changed on replace: %q, %q", bf.Runs[0].Label, bf.Runs[1].Label)
	}
	if len(bf.Runs[0].Rows) != 1 || bf.Runs[0].Rows[0].Throughput != 850 {
		t.Fatalf("replaced run holds stale rows: %+v", bf.Runs[0].Rows)
	}

	// Rows written sorted: the first call's out-of-order input.
	if err := AppendBenchJSON(path, "sorted", []Row{hotRow(4, 2), hotRow(1, 1)}); err != nil {
		t.Fatal(err)
	}
	raw, _ = os.ReadFile(path)
	bf = BenchFile{}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	rows := bf.Runs[2].Rows
	if rows[0].Threads != 1 || rows[1].Threads != 4 {
		t.Fatalf("rows not sorted by threads: %+v", rows)
	}
}
