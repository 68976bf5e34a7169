package bench

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"

	"cxlalloc/internal/atomicx"
	"cxlalloc/internal/telemetry"
)

// tinyScale keeps harness tests fast.
func tinyScale() Scale {
	return Scale{
		Ops:         4_000,
		Keyspace:    2_000,
		InitialLoad: 1_000,
		Buckets:     1 << 10,
		ArenaBytes:  256 << 20,
		Trials:      1,
		Threads:     []int{2},
		Procs:       2,
		Seed:        7,
	}
}

// requireCellsRan fails, naming the cell, on every row that did not run
// to completion: one with a Failed reason, or one whose workload saw
// allocation errors. The only failure allowed is the one the paper
// reports: cxl-shm cannot allocate MC-12's and MC-37's values.
func requireCellsRan(t *testing.T, rows []Row) {
	t.Helper()
	for _, r := range rows {
		if r.Allocator == "cxl-shm" && (r.Workload == "MC-12" || r.Workload == "MC-37") &&
			r.Failed == "crash: allocation size unsupported" {
			continue
		}
		if r.Failed != "" || r.Extra["allocErrors"] != "" {
			t.Errorf("%s %s/%s threads=%d procs=%d: failed %q, allocErrors %q",
				r.Experiment, r.Workload, r.Allocator, r.Threads, r.Procs, r.Failed, r.Extra["allocErrors"])
		}
	}
}

func TestRunTable1(t *testing.T) {
	rows, err := RunTable1(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("table1 rows = %d, want 6 allocators", len(rows))
	}
	byName := map[string]Row{}
	for _, r := range rows {
		byName[r.Allocator] = r
	}
	// The cxlalloc row must match the paper's Table 1.
	cx := byName["cxlalloc"]
	if cx.Extra["xp"] != "yes" || cx.Extra["mmap"] != "yes" ||
		cx.Extra["fail"] != "NB" || cx.Extra["rec"] != "NB" || cx.Extra["str"] != "App" {
		t.Fatalf("cxlalloc row = %v", cx.Extra)
	}
	if byName["boost"].Extra["fail"] != "B" {
		t.Fatal("boost must block on failure")
	}
	out := FormatTable1(rows)
	if !strings.Contains(out, "cxlalloc") || !strings.Contains(out, "lightning") {
		t.Fatalf("table missing rows:\n%s", out)
	}
}

func TestRunTable2(t *testing.T) {
	rows, err := RunTable2(tinyScale(), 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 {
		t.Fatalf("table2 rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Extra["ins%"] == "" || r.Extra["dist"] == "" {
			t.Fatalf("incomplete row: %+v", r)
		}
	}
	_ = FormatTable2(rows)
}

func TestRunFig8SingleWorkload(t *testing.T) {
	sc := tinyScale()
	rows, err := RunFig8(sc, []string{"YCSB-A"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 7 { // 7 allocators x 1 thread count
		t.Fatalf("rows = %d", len(rows))
	}
	requireCellsRan(t, rows)
	for _, r := range rows {
		if r.Failed == "" && r.Throughput <= 0 {
			t.Fatalf("no throughput for %s", r.Allocator)
		}
		if r.Allocator == "cxlalloc" && r.HWccBytes == 0 {
			t.Fatal("cxlalloc HWcc bytes missing")
		}
	}
}

func TestRunFig8UnsupportedSizeRecorded(t *testing.T) {
	sc := tinyScale()
	sc.Ops = 2_000
	rows, err := RunFig8(sc, []string{"MC-12"})
	if err != nil {
		t.Fatal(err)
	}
	requireCellsRan(t, rows)
	found := false
	for _, r := range rows {
		if r.Allocator == "cxl-shm" {
			found = true
			if r.Failed == "" {
				t.Fatal("cxl-shm must fail on MC-12 (values > 1 KiB)")
			}
		}
	}
	if !found {
		t.Fatal("cxl-shm row missing")
	}
}

func TestRunFig9(t *testing.T) {
	rows, err := RunFig9(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*7 {
		t.Fatalf("rows = %d", len(rows))
	}
	requireCellsRan(t, rows)
}

func TestRunFig10(t *testing.T) {
	sc := tinyScale()
	sc.Ops = 512
	rows, err := RunFig10(sc, []int{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	requireCellsRan(t, rows)
	for _, r := range rows {
		if r.Failed == "" && r.Throughput <= 0 {
			t.Fatalf("huge bench produced no throughput: %+v", r)
		}
	}
}

func TestRunFig11(t *testing.T) {
	rows, err := RunFig11([]int{1, 2}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3*2 {
		t.Fatalf("rows = %d", len(rows))
	}
	var hw1, sw1 string
	for _, r := range rows {
		if r.Extra["p50"] == "" {
			t.Fatalf("missing percentiles: %+v", r)
		}
		if r.Threads == 1 {
			if r.Workload == "hw_cas" {
				hw1 = r.Extra["p50"]
			}
			if r.Workload == "sw_cas" {
				sw1 = r.Extra["p50"]
			}
		}
	}
	if hw1 == "" || sw1 == "" {
		t.Fatal("missing impl rows")
	}
	_ = FormatFig11(rows)
}

func TestRunFig12(t *testing.T) {
	sc := tinyScale()
	sc.Ops = 2_000
	rows, err := RunFig12(sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*6 {
		t.Fatalf("rows = %d", len(rows))
	}
	requireCellsRan(t, rows)
	// Structural claim: ralloc's mcas variant is slower than its dram
	// twin — the protocol rounds are pure added cost there. cxlalloc no
	// longer satisfies the same inequality: magazines run only on
	// incoherent devices (DESIGN.md §7.2), so the mcas variant amortizes
	// its protocol cost down to one line write per alloc while the dram
	// baseline stays on the classic path, and threadtest's batched
	// pattern lets mcas come out ahead. Assert both rows exist and are
	// positive instead.
	tput := map[string]float64{}
	for _, r := range rows {
		if r.Workload == "threadtest-small" {
			tput[r.Allocator] = r.Throughput
		}
	}
	for _, name := range []string{"cxlalloc", "cxlalloc-mcas"} {
		if tput[name] <= 0 {
			t.Fatalf("%s throughput = %v", name, tput[name])
		}
	}
	if tput["ralloc-mcas"] >= tput["ralloc"] {
		t.Fatalf("ralloc-mcas (%v) not slower than dram (%v)", tput["ralloc-mcas"], tput["ralloc"])
	}
}

func TestRunFig7(t *testing.T) {
	sc := tinyScale()
	rows, err := RunFig7(sc, 2_000, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2*3*3 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.ElapsedSec <= 0 {
			t.Fatalf("no elapsed time: %+v", r)
		}
		// cxlalloc never leaks; ralloc-leak must report a leak when
		// crashes occurred.
		if r.Allocator == "cxlalloc" && strings.Contains(r.Workload, "crashes=2") {
			if r.Extra["leak"] != "0KiB" {
				t.Fatalf("cxlalloc leaked: %+v", r)
			}
		}
		if r.Allocator == "ralloc-leak" && strings.Contains(r.Workload, "crashes=2") {
			if r.Extra["leak"] == "" || r.Extra["leak"] == "0.0KiB" {
				t.Fatalf("ralloc-leak reported no leak under crashes: %+v", r)
			}
		}
		if r.Allocator == "ralloc-gc" && strings.Contains(r.Workload, "crashes=2") {
			if r.Extra["gc"] == "" {
				t.Fatalf("ralloc-gc reported no GC time: %+v", r)
			}
		}
	}
	_ = FormatFig7(rows)
}

func TestAblationRecovery(t *testing.T) {
	rows, err := RunAblationRecovery(tinyScale())
	if err != nil {
		t.Fatal(err)
	}
	requireCellsRan(t, rows)
	sawRatio := false
	for _, r := range rows {
		if r.Allocator == "cxlalloc" && r.Extra["vsBase"] != "" {
			sawRatio = true
		}
	}
	if !sawRatio {
		t.Fatal("no vsBase annotation")
	}
}

func TestAblationHWcc(t *testing.T) {
	sc := tinyScale()
	rows, err := RunAblationHWccAccounting(sc)
	if err != nil {
		t.Fatal(err)
	}
	requireCellsRan(t, rows)
	// cxlalloc must use far less HWcc memory than ralloc.
	for _, r := range rows {
		if r.Allocator == "cxlalloc" && r.Workload == "threadtest-small" {
			if r.Extra["vsRalloc"] == "" {
				t.Fatalf("missing vsRalloc: %+v", r)
			}
			pct, err := strconv.ParseFloat(strings.TrimSuffix(r.Extra["vsRalloc"], "%"), 64)
			if err != nil {
				t.Fatal(err)
			}
			if pct >= 100 {
				t.Fatalf("cxlalloc HWcc (%v%%) not below ralloc's", pct)
			}
		}
	}
}

func TestNDJSONOutput(t *testing.T) {
	rows := []Row{{Experiment: "x", Workload: "w", Allocator: "a", Threads: 1, Throughput: 2.5}}
	var buf bytes.Buffer
	if err := WriteNDJSON(&buf, rows); err != nil {
		t.Fatal(err)
	}
	var back Row
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Allocator != "a" || back.Throughput != 2.5 {
		t.Fatalf("round trip = %+v", back)
	}
	var tab bytes.Buffer
	PrintTable(&tab, rows)
	if !strings.Contains(tab.String(), "2.5") {
		t.Fatalf("table output missing data:\n%s", tab.String())
	}
}

func TestAblationDisown(t *testing.T) {
	rows, err := RunAblationDisown(tinyScale(), 13)
	if err != nil {
		t.Fatal(err)
	}
	requireCellsRan(t, rows)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	slabs := map[string]string{}
	for _, r := range rows {
		slabs[r.Allocator] = r.Extra["heapSlabs"]
	}
	with, _ := strconv.Atoi(slabs["cxlalloc"])
	without, _ := strconv.Atoi(slabs["cxlalloc-no-disown"])
	// Disown keeps the heap flat; the ablation leaks roughly one slab
	// per round of mixed frees.
	if without <= with*2 {
		t.Fatalf("no-disown heap (%d slabs) should dwarf disown heap (%d slabs)", without, with)
	}
}

// At the default hot sample period, a 64Ki-event ring holds every
// sampled event of a 600k-op threadtest-small trial, so a tracer left on
// overwrites nothing. A hot site that stops sampling, or a new per-op
// event outside the sampled kinds, wraps the ring and fails here.
func TestTraceRingHoldsA600kOpTrial(t *testing.T) {
	sc := tinyScale()
	sc.Ops = 600_000
	fac := NewCXLFactory(CXLVariant{Name: "cxlalloc-mcas", Mode: atomicx.ModeMCAS, Procs: 1}, sc.ArenaBytes)
	tr := telemetry.Start(1, 1<<16)
	row, err := runMicro("trace", fac, "threadtest-small", sc, 1, 64)
	telemetry.Stop()
	if err != nil {
		t.Fatal(err)
	}
	requireCellsRan(t, []Row{row})
	t.Logf("sample period %d: %d events recorded, %d overwritten", telemetry.HotSamplePeriod(), tr.Recorded(), tr.Dropped())
	if tr.Recorded() == 0 {
		t.Fatal("the traced trial recorded no events")
	}
	if d := tr.Dropped(); d != 0 {
		t.Fatalf("the ring overwrote %d of its %d events", d, tr.Recorded())
	}
}
