package telemetry

import (
	"encoding/json"
	"io"
)

// Snapshot is the unified, diffable metrics view of a pod: one typed
// struct subsuming the counters previously scattered across core.Stats,
// nmp.Stats, atomicx.HWStats, per-thread CacheStatsFor, and the
// liveness watchdog. The owning packages fill the mirrored sub-structs
// (telemetry cannot import them — every instrumented layer imports
// telemetry); core.(*Heap).Snapshot and cxlalloc.(*Pod).Snapshot are
// the aggregation points.
//
// All fields are cumulative counters (or gauges marked as such), so
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

// CacheStats aggregates the SWcc cache protocol counters
// (memsim.CacheStats) across threads.
type CacheStats struct {
	Loads      uint64 `json:"loads"`
	Hits       uint64 `json:"hits"`
	Stores     uint64 `json:"stores"`
	Fetches    uint64 `json:"fetches"`
	Writebacks uint64 `json:"writebacks"`
	Flushes    uint64 `json:"flushes"`
	Fences     uint64 `json:"fences"`
}

// HWStats mirrors atomicx.HWStats: the mCAS offload retry/fallback
// picture.
type HWStats struct {
	MCASFaults     uint64 `json:"mcas_faults"`
	MCASRetries    uint64 `json:"mcas_retries"`
	HWCASFallbacks uint64 `json:"hwcas_fallbacks"`
}

// NMPStats mirrors nmp.Stats: the near-memory-processing unit's op and
// fault counters.
type NMPStats struct {
	SpWrs          uint64 `json:"spwrs"`
	SpRds          uint64 `json:"sprds"`
	Successes      uint64 `json:"successes"`
	Failures       uint64 `json:"failures"`
	Conflicts      uint64 `json:"conflicts"`
	FaultsInjected uint64 `json:"faults_injected"`
	// Loads and Stores are uncached data-path accesses (not mCAS).
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
	CrashPointsInstrumented uint64 `json:"crash_points_instrumented"` // gauge
	CrashPointsFired        uint64 `json:"crash_points_fired"`
	CrashesMarked           uint64 `json:"crashes_marked"`
	Recoveries              uint64 `json:"recoveries"`
	RecoveriesFenced        uint64 `json:"recoveries_fenced"`
	CrashDiscards           uint64 `json:"crash_discards"`
	LinesDroppedAtCrash     uint64 `json:"lines_dropped_at_crash"`
}

// LivenessStats covers the heartbeat/lease/claim plane.
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

// Delta returns s minus prev, field-wise, for cumulative counters;
// gauges (CrashPointsInstrumented, Trace.Enabled) keep s's value.
func (s Snapshot) Delta(prev Snapshot) Snapshot {
	d := Snapshot{
		Cache: CacheStats{
			Loads:      s.Cache.Loads - prev.Cache.Loads,
			Hits:       s.Cache.Hits - prev.Cache.Hits,
			Stores:     s.Cache.Stores - prev.Cache.Stores,
			Fetches:    s.Cache.Fetches - prev.Cache.Fetches,
			Writebacks: s.Cache.Writebacks - prev.Cache.Writebacks,
			Flushes:    s.Cache.Flushes - prev.Cache.Flushes,
			Fences:     s.Cache.Fences - prev.Cache.Fences,
		},
		HW: HWStats{
			MCASFaults:     s.HW.MCASFaults - prev.HW.MCASFaults,
			MCASRetries:    s.HW.MCASRetries - prev.HW.MCASRetries,
			HWCASFallbacks: s.HW.HWCASFallbacks - prev.HW.HWCASFallbacks,
		},
		NMP: NMPStats{
			SpWrs:          s.NMP.SpWrs - prev.NMP.SpWrs,
			SpRds:          s.NMP.SpRds - prev.NMP.SpRds,
			Successes:      s.NMP.Successes - prev.NMP.Successes,
			Failures:       s.NMP.Failures - prev.NMP.Failures,
			Conflicts:      s.NMP.Conflicts - prev.NMP.Conflicts,
			FaultsInjected: s.NMP.FaultsInjected - prev.NMP.FaultsInjected,
			Loads:          s.NMP.Loads - prev.NMP.Loads,
			Stores:         s.NMP.Stores - prev.NMP.Stores,
		},
		Alloc: AllocStats{
			SmallAllocs: s.Alloc.SmallAllocs - prev.Alloc.SmallAllocs,
			SmallFrees:  s.Alloc.SmallFrees - prev.Alloc.SmallFrees,
			LargeAllocs: s.Alloc.LargeAllocs - prev.Alloc.LargeAllocs,
			LargeFrees:  s.Alloc.LargeFrees - prev.Alloc.LargeFrees,
			HugeAllocs:  s.Alloc.HugeAllocs - prev.Alloc.HugeAllocs,
			HugeFrees:   s.Alloc.HugeFrees - prev.Alloc.HugeFrees,
		},
		Chaos: ChaosStats{
			CrashPointsInstrumented: s.Chaos.CrashPointsInstrumented,
			CrashPointsFired:        s.Chaos.CrashPointsFired - prev.Chaos.CrashPointsFired,
			CrashesMarked:           s.Chaos.CrashesMarked - prev.Chaos.CrashesMarked,
			Recoveries:              s.Chaos.Recoveries - prev.Chaos.Recoveries,
			RecoveriesFenced:        s.Chaos.RecoveriesFenced - prev.Chaos.RecoveriesFenced,
			CrashDiscards:           s.Chaos.CrashDiscards - prev.Chaos.CrashDiscards,
			LinesDroppedAtCrash:     s.Chaos.LinesDroppedAtCrash - prev.Chaos.LinesDroppedAtCrash,
		},
		Liveness: LivenessStats{
			Renews:         s.Liveness.Renews - prev.Liveness.Renews,
			Claims:         s.Liveness.Claims - prev.Liveness.Claims,
			Repairs:        s.Liveness.Repairs - prev.Liveness.Repairs,
			Fenced:         s.Liveness.Fenced - prev.Liveness.Fenced,
			FalseAlarms:    s.Liveness.FalseAlarms - prev.Liveness.FalseAlarms,
			Rescues:        s.Liveness.Rescues - prev.Liveness.Rescues,
			SelfFences:     s.Liveness.SelfFences - prev.Liveness.SelfFences,
			FalseTakeovers: s.Liveness.FalseTakeovers - prev.Liveness.FalseTakeovers,
		},
		Trace: TraceStats{
			Enabled:  s.Trace.Enabled,
			Recorded: s.Trace.Recorded - prev.Trace.Recorded,
			Dropped:  s.Trace.Dropped - prev.Trace.Dropped,
		},
		Server: ServerStats{
			Submitted:       s.Server.Submitted - prev.Server.Submitted,
			Admitted:        s.Server.Admitted - prev.Server.Admitted,
			Executed:        s.Server.Executed - prev.Server.Executed,
			ShedQueueFull:   s.Server.ShedQueueFull - prev.Server.ShedQueueFull,
			ShedCoDel:       s.Server.ShedCoDel - prev.Server.ShedCoDel,
			ShedDeadline:    s.Server.ShedDeadline - prev.Server.ShedDeadline,
			ShedWrite:       s.Server.ShedWrite - prev.Server.ShedWrite,
			ShedPodFull:     s.Server.ShedPodFull - prev.Server.ShedPodFull,
			ShedBreaker:     s.Server.ShedBreaker - prev.Server.ShedBreaker,
			ShedShard:       s.Server.ShedShard - prev.Server.ShedShard,
			BreakerOpens:    s.Server.BreakerOpens - prev.Server.BreakerOpens,
			BreakerReroutes: s.Server.BreakerReroutes - prev.Server.BreakerReroutes,
			WorkerCrashes:   s.Server.WorkerCrashes - prev.Server.WorkerCrashes,
			CrashResolves:   s.Server.CrashResolves - prev.Server.CrashResolves,
		},
	}
	return d
}

// MetricsRecord is one NDJSON metrics line: a labeled snapshot with
// optional free-form dimensions (experiment, workload, allocator…).
type MetricsRecord struct {
	Label  string            `json:"label,omitempty"`
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
