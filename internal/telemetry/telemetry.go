// Package telemetry is the pod's observability plane: lock-free
// per-thread trace rings, mergeable log-bucketed latency histograms, a
// unified counter snapshot, and exporters (Chrome trace_event JSON,
// NDJSON metrics).
//
// The package sits below every instrumented layer (memsim, atomicx,
// nmp, crash, core, liveness) and imports no internal package. It owns
// the counter format: each layer counts directly in this package's
// stats types, and Snapshot arithmetic is one rule (Delta, Add) over
// their uint64 leaves.
//
// Tracing cost model (DESIGN.md §8): the disabled path is one inlined
// atomic pointer load plus a predicted branch per instrumentation site
// and allocates nothing. Call sites are written
//
//	if telemetry.Enabled() {
//	    telemetry.Emit(tid, telemetry.EvFlush, uint64(w), 0)
//	}
//
// so the argument marshalling is only paid when a tracer is installed.
package telemetry

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Kind identifies a trace event type.
type Kind uint16

const (
	EvNone Kind = iota

	// Allocator ops. A = address, Arg = size class (small) or byte size
	// (large/huge, flagged by the high bit of Arg).
	EvAlloc
	EvFree

	// SWcc cache protocol. A = word index.
	EvFlush
	EvFence

	// mCAS offload (atomicx, ModeMCAS). A = word index, Arg = attempt
	// number (EvMCASRetry) — EvMCASFallback means the bounded retry
	// budget was exhausted and the op fell back to sw_flush_cas.
	EvMCASAttempt
	EvMCASRetry
	EvMCASFallback

	// NMP fault injection fired (nmp.maybeFault). Arg = fault kind.
	EvNMPFault

	// Crash/recovery lifecycle. EvCrashPoint: Arg = interned point id
	// (PointName decodes). EvRecoveryExit: Arg = RecoveryOK/RecoveryFenced.
	EvCrashPoint
	EvCrash
	EvRecoveryEnter
	EvRecoveryExit

	// Liveness plane. EvLeaseRenew: A = epoch. EvClaim: A = victim tid,
	// claim taken by TID. Watchdog outcomes mirror liveness event kinds:
	// EvRepair = fenced-recovery winner, EvFenced = loser.
	EvLeaseRenew
	EvClaim
	EvRepair
	EvRepairCrash
	EvFenced
	EvFalseAlarm
	EvRescue
	EvSelfFence

	// Adversarial persistence: a crashed cache was resolved by
	// CrashDiscard. A = lines dropped, Arg = in-play window size.
	EvCrashDiscard

	// Fabric plane (internal/fabric): pod-granularity liveness and shard
	// ownership. EvPodDark/EvPodHeal: A = pod id, Arg = cause (fence vs
	// heartbeat stall). Shard lifecycle: A = shard id, Arg = pod id —
	// EvShardClaim = migration claim word taken, EvShardFlip = routing
	// epoch advanced to the new owner, EvShardDrain = old owner's copy
	// deleted. EvMigInterrupt: an injected fault killed a migrator
	// mid-protocol (Arg = step index it died after).
	EvPodDark
	EvPodHeal
	EvShardClaim
	EvShardFlip
	EvShardDrain
	EvMigInterrupt

	numKinds
)

// Recovery outcomes for EvRecoveryExit.Arg.
const (
	RecoveryOK     = 0
	RecoveryFenced = 1
)

var kindNames = [numKinds]string{
	EvNone:          "none",
	EvAlloc:         "alloc",
	EvFree:          "free",
	EvFlush:         "swcc.flush",
	EvFence:         "swcc.fence",
	EvMCASAttempt:   "mcas.attempt",
	EvMCASRetry:     "mcas.retry",
	EvMCASFallback:  "mcas.fallback",
	EvNMPFault:      "nmp.fault",
	EvCrashPoint:    "crash.point",
	EvCrash:         "crash",
	EvRecoveryEnter: "recovery.enter",
	EvRecoveryExit:  "recovery.exit",
	EvLeaseRenew:    "lease.renew",
	EvClaim:         "claim",
	EvRepair:        "repair",
	EvRepairCrash:   "repair.crash",
	EvFenced:        "fenced",
	EvFalseAlarm:    "false-alarm",
	EvRescue:        "rescue",
	EvSelfFence:     "self-fence",
	EvCrashDiscard:  "crash.discard",
	EvPodDark:       "pod.dark",
	EvPodHeal:       "pod.heal",
	EvShardClaim:    "shard.claim",
	EvShardFlip:     "shard.flip",
	EvShardDrain:    "shard.drain",
	EvMigInterrupt:  "mig.interrupt",
}

// String returns the stable event-schema name of k.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one fixed-size trace record: 24 bytes, no pointers, so a
// ring of them is a single flat allocation the GC never scans.
//
// TS is coarse for high-rate kinds: hot events reuse their ring's last
// published timestamp, refreshed every coarseEvery reservations, so the
// per-event time.Now() that dominated enabled-tracing cost is paid on a
// cadence instead (DESIGN.md §8). Rare kinds — everything crash,
// recovery, and liveness — always take a precise stamp, so derived
// spans (MTTR, availability) keep nanosecond edges.
type Event struct {
	TS   int64  // nanoseconds since the tracer started (coarse for hot kinds)
	A    uint64 // primary argument (address, word, epoch…)
	Arg  uint32 // secondary argument (class, attempt, point id…)
	Kind Kind
	TID  int16 // emitting thread; SystemTID for non-thread emitters
}

// hotKindMask marks the high-rate kinds: they take coarse timestamps in
// emit, and their instrumentation sites sample 1-in-HotSamplePeriod via
// SampleHot. Every other kind is rare, precisely stamped, and recorded
// unconditionally.
const hotKindMask = 1<<EvAlloc | 1<<EvFree | 1<<EvFlush | 1<<EvFence |
	1<<EvMCASAttempt

// coarseEvery is the hot-kind timestamp refresh cadence per ring.
const coarseEvery = 64

// hotMask is HotSamplePeriod-1. Instrumentation sites read it through
// SampleHot without synchronization, so it must only be changed while no
// workload is emitting (cxlbench sets it once at startup, before any
// thread runs).
var hotMask uint32 = 64 - 1

// SetHotSamplePeriod sets the 1-in-n recording cadence instrumentation
// sites apply to hot kinds (rounded up to a power of two; n <= 1 means
// record every event, restoring full-fidelity traces). Exact operation
// counts are unaffected — they live in the allocator ledger and cache
// counters, not the ring — only ring density changes. Call it before
// emitters start; it is read unsynchronized on the hot path.
func SetHotSamplePeriod(n int) {
	p := 1
	for p < n {
		p <<= 1
	}
	hotMask = uint32(p - 1)
}

// HotSamplePeriod returns the current hot-kind sampling period.
func HotSamplePeriod() int { return int(hotMask) + 1 }

// SampleHot advances a caller-owned tick counter and reports whether
// this event falls on the sampling cadence. The counter must be owned
// by a single emitter (a thread's cache, a thread's op ledger); the
// first event always samples true, so every kind a workload touches at
// all appears in the trace.
func SampleHot(tick *uint32) bool {
	n := *tick
	*tick = n + 1
	return n&hotMask == 0
}

// SampleHotAtomic is SampleHot for emitters whose tick is shared across
// threads (the pod-wide HW layer).
func SampleHotAtomic(tick *atomic.Uint32) bool {
	return (tick.Add(1)-1)&hotMask == 0
}

// SystemTID is the ring used for events emitted outside any simulated
// thread (the liveness watchdog, NMP unit internals).
const SystemTID = -1

// ring is one per-thread event buffer. head counts every reservation
// ever made; the slot for reservation i is i & mask, so the ring
// overwrites oldest events and head-capacity is the drop count.
// Reservations use an atomic fetch-add: a thread's ring is normally
// single-writer, but watchdog threads may emit into a victim's ring, and
// distinct reservations always get distinct slots (unless a writer
// stalls for a full lap, in which case one event may tear — counters
// stay exact either way; see DESIGN.md §8).
type ring struct {
	head atomic.Uint64
	ts   atomic.Int64 // last published coarse timestamp (hot kinds reuse it)
	_    [6]uint64    // pad: keep heads of adjacent rings off one line
	ev   []Event
	// counts is this ring's per-kind recorded-event tally. Keeping it
	// per-ring (summed in Counts) removes the cross-thread contention a
	// single global counter array had under parallel workloads.
	counts [numKinds]atomic.Uint64
}

// Tracer records events into per-thread rings. Install with Start,
// remove with Stop. Reading events back (Events, exporters) is only
// valid after every emitting goroutine has quiesced (e.g. after the
// workload's WaitGroup join) — the rings are written without locks.
type Tracer struct {
	start time.Time
	rings []ring // index tid+1; rings[0] is the SystemTID ring
	mask  uint64

	// Lossless retention side log (Keep). keepMask is a per-kind bit
	// set; kept events of selected kinds are appended under keepMu so
	// ring wraparound cannot overwrite them.
	keepMask atomic.Uint64
	keepMu   sync.Mutex
	kept     []Event
	keptLost atomic.Uint64
}

// Every Kind must fit the keepMask word; this line fails to compile if
// the kind list ever grows past 64.
const _ = uint64(1) << numKinds

// keepCap bounds the Keep side log; kept kinds are rare (crashes,
// recoveries), so hitting the cap means a pathological run — the
// overflow is counted, not silently dropped.
const keepCap = 1 << 20

// active is the single global gate: nil means tracing is disabled and
// Enabled()/Emit cost one atomic load and a branch.
var active atomic.Pointer[Tracer]

// Enabled reports whether a tracer is installed. It is tiny so it
// inlines at instrumentation sites.
func Enabled() bool { return active.Load() != nil }

// Emit records one event if tracing is enabled. tid may be SystemTID.
func Emit(tid int, kind Kind, a uint64, arg uint32) {
	if t := active.Load(); t != nil {
		t.emit(tid, kind, a, arg)
	}
}

func (t *Tracer) emit(tid int, kind Kind, a uint64, arg uint32) {
	r := &t.rings[0]
	if ti := tid + 1; ti >= 1 && ti < len(t.rings) {
		r = &t.rings[ti]
	}
	i := r.head.Add(1) - 1
	var ts int64
	if hotKindMask&(1<<uint(kind)) == 0 || i&(coarseEvery-1) == 0 {
		ts = int64(time.Since(t.start))
		r.ts.Store(ts)
	} else {
		ts = r.ts.Load()
	}
	ev := Event{
		TS:   ts,
		A:    a,
		Arg:  arg,
		Kind: kind,
		TID:  int16(tid),
	}
	r.ev[i&t.mask] = ev
	r.counts[kind].Add(1)
	if t.keepMask.Load()&(1<<uint(kind)) != 0 {
		t.keepMu.Lock()
		if len(t.kept) < keepCap {
			t.kept = append(t.kept, ev)
		} else {
			t.keptLost.Add(1)
		}
		t.keepMu.Unlock()
	}
}

// Keep marks kinds for lossless retention: every subsequent emit of a
// kept kind is also appended, under a mutex, to a bounded side log that
// ring wraparound cannot overwrite. The rings remain the high-rate
// path; Keep exists for rare, load-bearing events — the crash and
// recovery markers that MTTR and availability are derived from — which
// an event flood would otherwise overwrite long before a run ends.
func (t *Tracer) Keep(kinds ...Kind) {
	m := t.keepMask.Load()
	for _, k := range kinds {
		m |= 1 << uint(k)
	}
	t.keepMask.Store(m)
}

// Kept returns a timestamp-ordered copy of the retained events. Quiesce
// emitters first for a complete view.
func (t *Tracer) Kept() []Event {
	t.keepMu.Lock()
	out := append([]Event(nil), t.kept...)
	t.keepMu.Unlock()
	sort.SliceStable(out, func(a, b int) bool { return out[a].TS < out[b].TS })
	return out
}

// KeptLost returns how many kept-kind events were discarded at the side
// log's cap.
func (t *Tracer) KeptLost() uint64 { return t.keptLost.Load() }

// NewTracer builds a tracer for tids 0..threads-1 (plus the system
// ring) holding up to perThread events per ring. perThread is rounded
// up to a power of two; 0 picks a default of 64Ki events (~1.5 MiB per
// thread).
func NewTracer(threads, perThread int) *Tracer {
	if threads < 0 {
		threads = 0
	}
	if perThread <= 0 {
		perThread = 1 << 16
	}
	cap := 1
	for cap < perThread {
		cap <<= 1
	}
	t := &Tracer{start: time.Now(), rings: make([]ring, threads+1), mask: uint64(cap - 1)}
	for i := range t.rings {
		t.rings[i].ev = make([]Event, cap)
	}
	return t
}

// Start builds a tracer and installs it as the global one, replacing
// any previous tracer. It returns the installed tracer for later
// draining.
func Start(threads, perThread int) *Tracer {
	t := NewTracer(threads, perThread)
	active.Store(t)
	return t
}

// Stop uninstalls the global tracer and returns it (nil if none was
// installed). In-flight Emit calls that already loaded the tracer may
// still land events; quiesce emitters before reading.
func Stop() *Tracer {
	t := active.Load()
	active.Store(nil)
	return t
}

// Active returns the installed tracer, or nil.
func Active() *Tracer { return active.Load() }

// Recorded returns the total number of events recorded (including any
// later overwritten), readable while tracing is live.
func (t *Tracer) Recorded() uint64 {
	var n uint64
	for i := range t.rings {
		n += t.rings[i].head.Load()
	}
	return n
}

// Dropped returns how many events were overwritten by ring wraparound,
// readable while tracing is live.
func (t *Tracer) Dropped() uint64 {
	var n uint64
	cap := t.mask + 1
	for i := range t.rings {
		if h := t.rings[i].head.Load(); h > cap {
			n += h - cap
		}
	}
	return n
}

// Counts returns per-kind recorded-event totals (summed across rings).
// Hot kinds are sampled at the instrumentation sites, so their totals
// count recorded events, not operations — exact operation counts live
// in the allocator ledger and cache counters (Snapshot).
func (t *Tracer) Counts() map[string]uint64 {
	m := make(map[string]uint64, int(numKinds))
	for k := Kind(1); k < numKinds; k++ {
		var n uint64
		for i := range t.rings {
			n += t.rings[i].counts[k].Load()
		}
		if n > 0 {
			m[k.String()] = n
		}
	}
	return m
}

// Events returns every retained event, oldest first, across all rings,
// ordered by timestamp. Only valid after emitters have quiesced.
func (t *Tracer) Events() []Event {
	var out []Event
	cap := t.mask + 1
	for i := range t.rings {
		r := &t.rings[i]
		h := r.head.Load()
		n := h
		if n > cap {
			n = cap
		}
		// Oldest retained reservation is h-n; slot order follows.
		for j := h - n; j < h; j++ {
			out = append(out, r.ev[j&t.mask])
		}
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].TS < out[b].TS })
	return out
}

// --- crash-point name interning -------------------------------------

// Crash points are identified by strings in internal/crash; trace
// events carry a dense interned id instead so EvCrashPoint stays fixed
// size. Interning only happens when a point actually fires (rare).
var intern struct {
	mu    sync.Mutex
	ids   map[string]uint32
	names []string
}

// PointID interns name and returns its dense id (stable for the
// process lifetime).
func PointID(name string) uint32 {
	intern.mu.Lock()
	defer intern.mu.Unlock()
	if intern.ids == nil {
		intern.ids = make(map[string]uint32)
	}
	if id, ok := intern.ids[name]; ok {
		return id
	}
	id := uint32(len(intern.names))
	intern.names = append(intern.names, name)
	intern.ids[name] = id
	return id
}

// PointName decodes an interned crash-point id.
func PointName(id uint32) string {
	intern.mu.Lock()
	defer intern.mu.Unlock()
	if int(id) < len(intern.names) {
		return intern.names[id]
	}
	return "?"
}
