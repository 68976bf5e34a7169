package bench

// The hotpath experiment is the per-PR performance trajectory of the
// simulator's interposition cost (DESIGN.md §7): the fig9 allocator
// microbenchmarks, cxlalloc only, swept across the three coherence
// models that exercise the hot paths differently —
//
//   - dram  (ModeDRAM):    coherent device; the SWcc cache is bypassed,
//     so this isolates allocator-logic and HWcc costs.
//   - swcc  (ModeSWFlush): incoherent device; every metadata access goes
//     through the per-thread SWcc write-back cache, the dominant
//     interposition cost.
//   - mcas  (ModeMCAS):    incoherent device plus the NMP mCAS path for
//     HWcc words.
//
// Results are meant to be committed to BENCH_hotpath.json via
// `cxlbench -exp hotpath -json BENCH_hotpath.json -label <phase>`, so
// before/after numbers ride along with the PR that changed the hot path.

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"cxlalloc/internal/atomicx"
)

// HotpathModes is the coherence-model lineup of the hotpath experiment.
var HotpathModes = []struct {
	Name string
	Mode atomicx.Mode
}{
	{"cxlalloc-dram", atomicx.ModeDRAM},
	{"cxlalloc-swcc", atomicx.ModeSWFlush},
	{"cxlalloc-mcas", atomicx.ModeMCAS},
}

// RunHotpath runs threadtest-small and xmalloc-small for cxlalloc under
// every hotpath mode at every sc.Threads count.
func RunHotpath(sc Scale) ([]Row, error) {
	var rows []Row
	for _, shape := range []string{"threadtest-small", "xmalloc-small"} {
		for _, m := range HotpathModes {
			fac := NewCXLFactory(CXLVariant{Name: m.Name, Mode: m.Mode, Procs: sc.Procs}, sc.ArenaBytes)
			for _, threads := range sc.Threads {
				row, err := runMicro("hotpath", fac, shape, sc, threads, 64)
				if err != nil {
					return nil, err
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// BenchRun is one labeled cxlbench invocation recorded in a BENCH_*.json
// trajectory file.
type BenchRun struct {
	Label string `json:"label"`
	Rows  []Row  `json:"rows"`
}

// BenchFile is the committed BENCH_*.json format: an ordered list of
// labeled runs ("before"/"after" within one PR, one run per PR across
// the trajectory).
type BenchFile struct {
	Runs []BenchRun `json:"runs"`
}

// SortRows orders rows deterministically (experiment, workload,
// allocator, threads, procs) so committed JSON diffs cleanly in review.
func SortRows(rows []Row) {
	sort.SliceStable(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		switch {
		case a.Experiment != b.Experiment:
			return a.Experiment < b.Experiment
		case a.Workload != b.Workload:
			return a.Workload < b.Workload
		case a.Allocator != b.Allocator:
			return a.Allocator < b.Allocator
		case a.Threads != b.Threads:
			return a.Threads < b.Threads
		default:
			return a.Procs < b.Procs
		}
	})
}

// AppendBenchJSON appends one labeled run to the BenchFile at path,
// creating it if absent. A run with the same label is replaced in place,
// so re-running an experiment does not grow the file. Output is
// indented, rows sorted, map keys sorted by encoding/json — byte-stable
// for identical inputs.
func AppendBenchJSON(path, label string, rows []Row) error {
	var bf BenchFile
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &bf); err != nil {
			return fmt.Errorf("bench: %s exists but is not a BenchFile: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	sorted := append([]Row(nil), rows...)
	SortRows(sorted)
	run := BenchRun{Label: label, Rows: sorted}
	replaced := false
	for i := range bf.Runs {
		if bf.Runs[i].Label == label {
			bf.Runs[i] = run
			replaced = true
			break
		}
	}
	if !replaced {
		bf.Runs = append(bf.Runs, run)
	}
	out, err := json.MarshalIndent(&bf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}
