package telemetry

import (
	"encoding/json"
	"io"
	"reflect"
)

// Snapshot is the unified, diffable metrics view of a pod. Each layer
// counts directly in this package's types — memsim's caches in
// CacheStats, atomicx in HWStats, the NMP unit in NMPStats, the
// liveness watchdog in LivenessStats — so a Snapshot is assembled by
// Add, not by copying fields: core.(*Heap).Snapshot sums the heap's
// layers and cxlalloc.(*Pod).Snapshot adds every process's watchdog.
//
// All fields are cumulative counters (or gauges tagged as such), so
// "rate over an interval" is Delta of two snapshots.
type Snapshot struct {
	Cache    CacheStats    `json:"cache"`
	HW       HWStats       `json:"hw"`
	NMP      NMPStats      `json:"nmp"`
	Alloc    AllocStats    `json:"alloc"`
	Chaos    ChaosStats    `json:"chaos"`
	Liveness LivenessStats `json:"liveness"`
	Trace    TraceStats    `json:"trace"`
	Server   ServerStats   `json:"server"`
}

// CacheStats counts one SWcc cache's coherence-relevant events
// (memsim.Cache), or their sum across threads in a Snapshot: where the
// SWcc protocol pays its costs.
type CacheStats struct {
	Loads      uint64 `json:"loads"` // loads served (hit or miss)
	Hits       uint64 `json:"hits"`  // loads/stores served from a resident line
	Stores     uint64 `json:"stores"`
	Fetches    uint64 `json:"fetches"`    // lines fetched from device memory
	Writebacks uint64 `json:"writebacks"` // lines written back to device memory
	Flushes    uint64 `json:"flushes"`    // explicit Flush calls (incl. LoadFresh's and LoadFreshLine's, both modes)
	Fences     uint64 `json:"fences"`
}

// HWStats counts degraded-mode events on atomicx's hw_cas (mCAS) path:
// device faults observed, bounded retries, and CASes that completed
// through the sw_flush_cas fallback instead of the NMP unit.
type HWStats struct {
	MCASFaults     uint64 `json:"mcas_faults"`     // faulted mCAS attempts observed by CAS
	MCASRetries    uint64 `json:"mcas_retries"`    // retries issued after a fault
	HWCASFallbacks uint64 `json:"hwcas_fallbacks"` // CASes completed via the sw_flush_cas fallback
}

// NMPStats counts the near-memory-processing unit's (nmp.Unit) ops and
// faults.
type NMPStats struct {
	SpWrs     uint64 `json:"spwrs"`
	SpRds     uint64 `json:"sprds"`
	Successes uint64 `json:"successes"`
	Failures  uint64 `json:"failures"`
	Conflicts uint64 `json:"conflicts"` // operations failed by the same-address check
	// FaultsInjected counts mCAS operations rejected by injected device
	// faults (chaos testing; zero in normal operation).
	FaultsInjected uint64 `json:"faults_injected"`
	// Loads and Stores count uncached accesses through the unit's data
	// path (Load/Store), the HWcc reads and writes that are not mCAS.
	Loads  uint64 `json:"loads"`
	Stores uint64 `json:"stores"`
}

// AllocStats counts allocator operations by size domain, summed across
// threads (cumulative, survives thread recovery).
type AllocStats struct {
	SmallAllocs uint64 `json:"small_allocs"`
	SmallFrees  uint64 `json:"small_frees"`
	LargeAllocs uint64 `json:"large_allocs"`
	LargeFrees  uint64 `json:"large_frees"`
	HugeAllocs  uint64 `json:"huge_allocs"`
	HugeFrees   uint64 `json:"huge_frees"`
}

// ChaosStats covers crash injection and recovery.
type ChaosStats struct {
	CrashPointsInstrumented uint64 `json:"crash_points_instrumented" telemetry:"gauge"`
	CrashPointsFired        uint64 `json:"crash_points_fired"`
	CrashesMarked           uint64 `json:"crashes_marked"`
	Recoveries              uint64 `json:"recoveries"`
	RecoveriesFenced        uint64 `json:"recoveries_fenced"`
	CrashDiscards           uint64 `json:"crash_discards"`
	LinesDroppedAtCrash     uint64 `json:"lines_dropped_at_crash"`
}

// LivenessStats covers the heartbeat/lease/claim plane. The heap counts
// Renews and Claims; each process's liveness.Manager counts the rest.
type LivenessStats struct {
	Renews         uint64 `json:"renews"`
	Claims         uint64 `json:"claims"`
	Repairs        uint64 `json:"repairs"`
	Fenced         uint64 `json:"fenced"`
	FalseAlarms    uint64 `json:"false_alarms"`
	Rescues        uint64 `json:"rescues"`
	SelfFences     uint64 `json:"self_fences"`
	FalseTakeovers uint64 `json:"false_takeovers"`
}

// TraceStats reports the tracer's own bookkeeping.
type TraceStats struct {
	Enabled  bool   `json:"enabled"`
	Recorded uint64 `json:"recorded"`
	Dropped  uint64 `json:"dropped"`
}

// ServerStats is the KV service front end's resilience ledger
// (internal/server): admission, shedding, breaker, and crash-recovery
// counters. Zero outside server-driven runs — the heap cannot fill it;
// server.(*Server).Stats() is the producer and overlays it onto a pod
// snapshot for unified metrics output.
type ServerStats struct {
	Submitted uint64 `json:"submitted"` // requests presented to admission
	Admitted  uint64 `json:"admitted"`  // requests enqueued for a worker
	Executed  uint64 `json:"executed"`  // requests that ran against the store

	// Shedding, by reason. A shed request was never executed, so a shed
	// response is never an acknowledgement.
	ShedQueueFull uint64 `json:"shed_queue_full"` // bounded-queue eviction (oldest first)
	ShedCoDel     uint64 `json:"shed_codel"`      // CoDel queue-delay drop at dequeue
	ShedDeadline  uint64 `json:"shed_deadline"`   // deadline already expired at dequeue
	ShedWrite     uint64 `json:"shed_write"`      // soft memory watermark: writes rejected
	ShedPodFull   uint64 `json:"shed_pod_full"`   // hard memory watermark or allocator OOM
	ShedBreaker   uint64 `json:"shed_breaker"`    // every eligible process group's breaker open
	ShedShard     uint64 `json:"shed_shard"`      // fabric gate: shard moved/frozen between routing and execution

	// Circuit breaker around watchdog-repaired process groups.
	BreakerOpens    uint64 `json:"breaker_opens"`    // closed->open transitions
	BreakerReroutes uint64 `json:"breaker_reroutes"` // requests routed around an open group

	// Worker crash handling (injected faults through the service path).
	WorkerCrashes uint64 `json:"worker_crashes"` // ops that died mid-execution
	CrashResolves uint64 `json:"crash_resolves"` // crashed ops settled after repair
}

// FillTrace populates s.Trace from the installed tracer (if any).
func (s *Snapshot) FillTrace() {
	if t := Active(); t != nil {
		s.Trace = TraceStats{Enabled: true, Recorded: t.Recorded(), Dropped: t.Dropped()}
	}
}

// Delta returns s minus prev: the rule of the package-level Delta.
func (s Snapshot) Delta(prev Snapshot) Snapshot { return Delta(s, prev) }

// Delta returns s minus prev, leaf by leaf, for any counter struct of
// this package (Snapshot or one of its parts): a uint64 subtracts, while
// a bool or a field tagged `telemetry:"gauge"` keeps s's value. So
// "rate over an interval" is Delta of two snapshots, and a counter added
// to any stats struct is covered without another edit.
func Delta[T any](s, prev T) T {
	return combine(s, prev, func(x, y uint64) uint64 { return x - y })
}

// Add returns a plus b under the same rule as Delta: uint64 counters
// sum, bools and gauges keep a's value. Snapshot assembly is Add over
// the owning layers' counters.
func Add[T any](a, b T) T {
	return combine(a, b, func(x, y uint64) uint64 { return x + y })
}

func combine[T any](a, b T, op func(x, y uint64) uint64) T {
	combineInto(reflect.ValueOf(&a).Elem(), reflect.ValueOf(b), op)
	return a
}

func combineInto(a, b reflect.Value, op func(x, y uint64) uint64) {
	for i := 0; i < a.NumField(); i++ {
		f := a.Type().Field(i)
		switch {
		case f.Type.Kind() == reflect.Struct:
			combineInto(a.Field(i), b.Field(i), op)
		case f.Type.Kind() == reflect.Uint64 && f.Tag.Get("telemetry") != "gauge":
			a.Field(i).SetUint(op(a.Field(i).Uint(), b.Field(i).Uint()))
		}
	}
}

// MetricsRecord is one NDJSON metrics line: a snapshot with optional
// free-form dimensions (experiment, workload, allocator…).
type MetricsRecord struct {
	Dims   map[string]string `json:"dims,omitempty"`
	Values Snapshot          `json:"values"`
}

// WriteMetricsNDJSON appends records to w, one JSON object per line
// (newline-delimited JSON, greppable and ingestible by jq/Prometheus
// sidecars without a schema).
func WriteMetricsNDJSON(w io.Writer, recs []MetricsRecord) error {
	enc := json.NewEncoder(w)
	for i := range recs {
		if err := enc.Encode(&recs[i]); err != nil {
			return err
		}
	}
	return nil
}
