package telemetry

import (
	"encoding/json"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// metricsKeys is the full set of JSON key paths of a Snapshot — the
// schema of every `-metrics` NDJSON line's "values" object, which the
// benchmark module and any jq/Prometheus consumer read by name.
var metricsKeys = []string{
	"alloc.huge_allocs", "alloc.huge_frees", "alloc.large_allocs", "alloc.large_frees",
	"alloc.small_allocs", "alloc.small_frees",
	"cache.fences", "cache.fetches", "cache.flushes", "cache.hits", "cache.loads",
	"cache.stores", "cache.writebacks",
	"chaos.crash_discards", "chaos.crash_points_fired", "chaos.crash_points_instrumented",
	"chaos.crashes_marked", "chaos.lines_dropped_at_crash", "chaos.recoveries",
	"chaos.recoveries_fenced",
	"hw.hwcas_fallbacks", "hw.mcas_faults", "hw.mcas_retries",
	"liveness.claims", "liveness.false_alarms", "liveness.false_takeovers", "liveness.fenced",
	"liveness.renews", "liveness.repairs", "liveness.rescues", "liveness.self_fences",
	"nmp.conflicts", "nmp.failures", "nmp.faults_injected", "nmp.loads", "nmp.sprds",
	"nmp.spwrs", "nmp.stores", "nmp.successes",
	"server.admitted", "server.breaker_opens", "server.breaker_reroutes", "server.crash_resolves",
	"server.executed", "server.shed_breaker", "server.shed_codel", "server.shed_deadline",
	"server.shed_pod_full", "server.shed_queue_full", "server.shed_shard", "server.shed_write",
	"server.submitted", "server.worker_crashes",
	"trace.dropped", "trace.enabled", "trace.recorded",
}

// TestMetricsKeySetGolden pins the -metrics schema: renaming, moving or
// dropping a counter changes a key path that downstream readers parse,
// so it must show up here as a deliberate edit, not as a silent gap in
// their data. A new counter is added to metricsKeys with its field.
func TestMetricsKeySetGolden(t *testing.T) {
	b, err := json.Marshal(Snapshot{})
	if err != nil {
		t.Fatal(err)
	}
	var root map[string]any
	if err := json.Unmarshal(b, &root); err != nil {
		t.Fatal(err)
	}
	var got []string
	var walk func(path string, v any)
	walk = func(path string, v any) {
		obj, ok := v.(map[string]any)
		if !ok {
			got = append(got, path)
			return
		}
		for k, sub := range obj {
			if path != "" {
				k = path + "." + k
			}
			walk(k, sub)
		}
	}
	walk("", root)
	sort.Strings(got)
	if !slices.Equal(got, metricsKeys) {
		t.Fatalf("Snapshot JSON key paths changed:\n got  %q\n want %q", got, metricsKeys)
	}
}

// fillDistinct sets every leaf of *v to a distinct non-zero value from
// base upward (bools to true) and returns the leaves' values by path.
func fillDistinct[T any](t *testing.T, v *T, base uint64) map[string]any {
	t.Helper()
	vals := map[string]any{}
	eachLeaf(reflect.ValueOf(v).Elem(), "", func(path string, leaf reflect.Value) {
		base += 3
		switch leaf.Kind() {
		case reflect.Uint64:
			leaf.SetUint(base)
		case reflect.Bool:
			leaf.SetBool(true)
		default:
			t.Fatalf("%s is a %s leaf; Delta and Add only know uint64 and bool", path, leaf.Kind())
		}
		vals[path] = leaf.Interface()
	})
	return vals
}

// checkRule holds Delta and Add to their one rule on T: for s and p
// with every leaf distinct and non-zero, Delta subtracts every counter,
// Add(Delta(s, p), p) gives back s, and a gauge keeps its left
// operand's value under both. The walk is generic, so a counter added to any stats struct is
// checked here without editing the test.
func checkRule[T any](t *testing.T, gauges map[string]bool) {
	t.Helper()
	var s, p T
	want := fillDistinct(t, &s, 1000)
	left := fillDistinct(t, &p, 1)
	eachLeaf(reflect.ValueOf(Delta(s, p)), "", func(path string, leaf reflect.Value) {
		wantD := want[path]
		if !gauges[path] {
			wantD = want[path].(uint64) - left[path].(uint64)
		}
		if leaf.Interface() != wantD {
			t.Errorf("%T: Delta(s, p).%s = %v, want %v", s, path, leaf.Interface(), wantD)
		}
	})
	eachLeaf(reflect.ValueOf(Add(Delta(s, p), p)), "", func(path string, leaf reflect.Value) {
		if leaf.Interface() != want[path] {
			t.Errorf("%T: Add(Delta(s, p), p).%s = %v, want %v", s, path, leaf.Interface(), want[path])
		}
	})
	sum := Add(p, s)
	for path := range gauges {
		if got := leafAt(sum, path); got != left[path] {
			t.Errorf("%T: Add(p, s).%s = %v, want the gauge's left value %v", s, path, got, left[path])
		}
	}
}

// leafAt returns the leaf of v at a dotted path.
func leafAt(v any, path string) any {
	var got any
	eachLeaf(reflect.ValueOf(v), "", func(p string, leaf reflect.Value) {
		if p == path {
			got = leaf.Interface()
		}
	})
	return got
}

// TestDeltaAddRule checks the rule on a whole Snapshot and on each part
// a producer fills or a caller diffs on its own.
func TestDeltaAddRule(t *testing.T) {
	checkRule[Snapshot](t, map[string]bool{"Chaos.CrashPointsInstrumented": true, "Trace.Enabled": true})
	checkRule[CacheStats](t, nil)
	checkRule[HWStats](t, nil)
	checkRule[NMPStats](t, nil)
	checkRule[LivenessStats](t, nil)
	checkRule[ChaosStats](t, map[string]bool{"CrashPointsInstrumented": true})

	// slo diffs a bare ServerStats: Delta must be plain field-wise
	// subtraction there.
	var a, b ServerStats
	fillDistinct(t, &a, 5000)
	fillDistinct(t, &b, 7)
	d := reflect.ValueOf(Delta(a, b))
	av, bv := reflect.ValueOf(a), reflect.ValueOf(b)
	for i := 0; i < d.NumField(); i++ {
		if got, want := d.Field(i).Uint(), av.Field(i).Uint()-bv.Field(i).Uint(); got != want {
			t.Errorf("Delta(ServerStats).%s = %d, want %d", d.Type().Field(i).Name, got, want)
		}
	}
}
