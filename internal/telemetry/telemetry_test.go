package telemetry

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestDisabledEmitIsInert pins the disabled-path contract: no tracer
// installed means Emit is a no-op and Enabled is false.
func TestDisabledEmitIsInert(t *testing.T) {
	if Stop(); Enabled() {
		t.Fatal("Enabled with no tracer")
	}
	Emit(0, EvAlloc, 1, 2) // must not panic or record anywhere
	if Active() != nil {
		t.Fatal("Active after Stop")
	}
}

// TestRingWraparound fills a ring past capacity and checks overflow
// accounting: Recorded counts everything, Dropped counts the
// overwritten prefix, and Events returns exactly the newest cap
// events in order.
func TestRingWraparound(t *testing.T) {
	tr := Start(1, 8) // capacity rounds to 8
	defer Stop()
	const total = 21
	for i := 0; i < total; i++ {
		Emit(0, EvFlush, uint64(i), 0)
	}
	if got := tr.Recorded(); got != total {
		t.Fatalf("Recorded = %d, want %d", got, total)
	}
	if got := tr.Dropped(); got != total-8 {
		t.Fatalf("Dropped = %d, want %d", got, total-8)
	}
	evs := tr.Events()
	if len(evs) != 8 {
		t.Fatalf("Events len = %d, want 8", len(evs))
	}
	for i, e := range evs {
		if want := uint64(total - 8 + i); e.A != want {
			t.Fatalf("event %d: A = %d, want %d (oldest-first tail)", i, e.A, want)
		}
		if e.TID != 0 || e.Kind != EvFlush {
			t.Fatalf("event %d: %+v", i, e)
		}
	}
	if tr.Counts()["swcc.flush"] != total {
		t.Fatalf("Counts = %v", tr.Counts())
	}
}

// TestRingUnderCapacity checks the no-wrap case and per-ring routing,
// including the system ring for out-of-range tids.
func TestRingUnderCapacity(t *testing.T) {
	tr := Start(2, 16)
	defer Stop()
	Emit(0, EvAlloc, 10, 1)
	Emit(1, EvFree, 20, 2)
	Emit(SystemTID, EvRepair, 30, 0)
	Emit(99, EvFenced, 40, 0) // out of range → system ring
	if tr.Dropped() != 0 {
		t.Fatalf("Dropped = %d", tr.Dropped())
	}
	evs := tr.Events()
	if len(evs) != 4 {
		t.Fatalf("Events len = %d", len(evs))
	}
	byKind := map[Kind]Event{}
	for _, e := range evs {
		byKind[e.Kind] = e
	}
	if byKind[EvAlloc].TID != 0 || byKind[EvFree].TID != 1 {
		t.Fatalf("tid routing wrong: %+v", evs)
	}
	if byKind[EvRepair].TID != SystemTID || byKind[EvFenced].TID != 99 {
		t.Fatalf("system ring routing wrong: %+v", evs)
	}
}

// TestConcurrentEmit hammers distinct per-thread rings from parallel
// goroutines (the normal write topology) and checks nothing is lost
// below capacity. Run under -race this also proves the emit path is
// data-race-free.
func TestConcurrentEmit(t *testing.T) {
	const threads, each = 4, 1000
	tr := Start(threads, 1024)
	defer Stop()
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				Emit(tid, EvAlloc, uint64(i), uint32(tid))
			}
		}(tid)
	}
	wg.Wait()
	if got := tr.Recorded(); got != threads*each {
		t.Fatalf("Recorded = %d", got)
	}
	if tr.Dropped() != 0 {
		t.Fatalf("Dropped = %d", tr.Dropped())
	}
	perTID := map[int16]int{}
	for _, e := range tr.Events() {
		perTID[e.TID]++
	}
	for tid := 0; tid < threads; tid++ {
		if perTID[int16(tid)] != each {
			t.Fatalf("tid %d: %d events", tid, perTID[int16(tid)])
		}
	}
}

func TestPointIntern(t *testing.T) {
	a := PointID("alloc.small.pre-commit")
	b := PointID("free.large.post-oplog")
	if a2 := PointID("alloc.small.pre-commit"); a2 != a {
		t.Fatalf("re-intern changed id: %d vs %d", a2, a)
	}
	if a == b {
		t.Fatal("distinct points share an id")
	}
	if PointName(a) != "alloc.small.pre-commit" || PointName(b) != "free.large.post-oplog" {
		t.Fatalf("PointName mismatch")
	}
	if PointName(1<<31) != "?" {
		t.Fatal("unknown id should decode to ?")
	}
}

// TestCrashRepairSpans feeds a synthetic crash/recovery timeline and
// checks span derivation: fenced exits must not close a span, the
// winning recovery must.
func TestCrashRepairSpans(t *testing.T) {
	events := []Event{
		{TS: 10, Kind: EvCrash, TID: 2},
		{TS: 20, Kind: EvRecoveryEnter, TID: 3, A: 2},
		{TS: 30, Kind: EvRecoveryExit, TID: 3, A: 2, Arg: RecoveryFenced},
		{TS: 40, Kind: EvRecoveryEnter, TID: 1, A: 2},
		{TS: 55, Kind: EvRecoveryExit, TID: 1, A: 2, Arg: RecoveryOK},
		{TS: 60, Kind: EvCrash, TID: 0},
	}
	spans := CrashRepairSpans(events)
	if len(spans) != 1 {
		t.Fatalf("spans = %+v, want exactly one closed span", spans)
	}
	sp := spans[0]
	if sp.TID != 2 || sp.Start != 10 || sp.End != 55 || sp.Outcome != "repaired" {
		t.Fatalf("span = %+v", sp)
	}
}

// TestWriteChromeTrace smoke-checks the exporter output: valid JSON,
// a traceEvents array with the required phase fields, and a derived
// crash→repair X event.
func TestWriteChromeTrace(t *testing.T) {
	tr := Start(4, 64)
	Emit(0, EvAlloc, 0xabc, 3)
	Emit(2, EvCrash, 0, 0)
	Emit(1, EvRecoveryEnter, 2, 0)
	Emit(1, EvRecoveryExit, 2, RecoveryOK)
	Emit(0, EvCrashPoint, 0, PointID("test.point"))
	Stop()
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var out struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("exporter emitted invalid JSON: %v", err)
	}
	var sawX, sawB, sawE, sawPoint bool
	for _, e := range out.TraceEvents {
		switch e["ph"] {
		case "X":
			sawX = true
		case "B":
			sawB = true
		case "E":
			sawE = true
		}
		if name, _ := e["name"].(string); strings.HasPrefix(name, "crash.point:test.point") {
			sawPoint = true
		}
	}
	if !sawX || !sawB || !sawE || !sawPoint {
		t.Fatalf("trace missing phases: X=%v B=%v E=%v point=%v\n%s", sawX, sawB, sawE, sawPoint, buf.String())
	}
	if err := WriteChromeTrace(&buf, nil); err == nil {
		t.Fatal("nil tracer must error")
	}
}

// TestWriteMetricsNDJSON checks one-object-per-line framing and the
// snapshot delta arithmetic.
func TestWriteMetricsNDJSON(t *testing.T) {
	a := Snapshot{}
	a.Alloc.SmallAllocs = 100
	a.Cache.Flushes = 7
	b := Snapshot{}
	b.Alloc.SmallAllocs = 250
	b.Cache.Flushes = 17
	d := b.Delta(a)
	if d.Alloc.SmallAllocs != 150 || d.Cache.Flushes != 10 {
		t.Fatalf("delta = %+v", d)
	}
	var buf bytes.Buffer
	recs := []MetricsRecord{
		{Values: a},
		{Dims: map[string]string{"exp": "fig9"}, Values: b},
	}
	if err := WriteMetricsNDJSON(&buf, recs); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("NDJSON lines = %d: %q", len(lines), buf.String())
	}
	for _, ln := range lines {
		var rec MetricsRecord
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatalf("line %q: %v", ln, err)
		}
	}
}

// TestSnapshotDeltaCoversEveryField guards Snapshot.Delta: fill every
// leaf of Snapshot with a distinct non-zero value by reflection, then a
// delta against zero must give the snapshot back and a delta against
// itself must be zero everywhere but the documented gauges. A counter
// added to Snapshot that Delta skipped would fail here instead of going
// stale silently.
func TestSnapshotDeltaCoversEveryField(t *testing.T) {
	gauges := map[string]bool{"Chaos.CrashPointsInstrumented": true, "Trace.Enabled": true}

	var s Snapshot
	want := fillDistinct(t, &s, 100)
	if len(want) < 50 {
		t.Fatalf("walked only %d leaves of Snapshot", len(want))
	}

	eachLeaf(reflect.ValueOf(s.Delta(Snapshot{})), "", func(path string, leaf reflect.Value) {
		if leaf.Interface() != want[path] {
			t.Errorf("Delta(zero).%s = %v, want %v: Delta drops this field", path, leaf.Interface(), want[path])
		}
	})
	eachLeaf(reflect.ValueOf(s.Delta(s)), "", func(path string, leaf reflect.Value) {
		if gauges[path] {
			if leaf.Interface() != want[path] {
				t.Errorf("Delta(self).%s = %v, want the gauge's own value %v", path, leaf.Interface(), want[path])
			}
		} else if !leaf.IsZero() {
			t.Errorf("Delta(self).%s = %v, want 0: a counter must subtract", path, leaf.Interface())
		}
	})
}

// eachLeaf visits every non-struct field under v, depth first, with its
// dotted path.
func eachLeaf(v reflect.Value, path string, visit func(path string, leaf reflect.Value)) {
	if v.Kind() != reflect.Struct {
		visit(path, v)
		return
	}
	for i := 0; i < v.NumField(); i++ {
		p := v.Type().Field(i).Name
		if path != "" {
			p = path + "." + p
		}
		eachLeaf(v.Field(i), p, visit)
	}
}
