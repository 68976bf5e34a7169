// Package atomicx provides the synchronization primitives cxlalloc runs
// on, parameterized by the pod's coherence model (paper §1, §5.4):
//
//   - ModeDRAM: host-local DRAM or fully hardware-coherent shared
//     memory. CAS is the CPU's CAS ("sw_cas" in Figure 11).
//   - ModeHWcc: CXL memory with inter-host hardware cache coherence
//     (Figure 1(A)). Same primitive, CXL-link cost on the round trip.
//   - ModeSWFlush: no HWcc; mCAS is *emulated* by flushing the target
//     line and then CASing ("sw_flush_cas"). The paper notes this is
//     only safe on real hardware within one coherence domain, but many
//     projects use it to model mCAS; the simulator provides it for the
//     Figure 11 comparison.
//   - ModeMCAS: no HWcc; the NMP unit's memory-based CAS ("hw_cas",
//     §4). Loads and stores of synchronization words are uncached
//     device-biased accesses through the NMP.
//
// All HWcc-region words the allocator synchronizes on go through this
// package, so switching the pod's coherence assumption is a single
// configuration change — the property the paper claims for cxlalloc's
// metadata partitioning.
package atomicx

import (
	"sync/atomic"

	"cxlalloc/internal/memsim"
	"cxlalloc/internal/nmp"
	"cxlalloc/internal/telemetry"
)

// Mode selects the coherence model for HWcc-region words.
type Mode int

const (
	ModeDRAM Mode = iota
	ModeHWcc
	ModeSWFlush
	ModeMCAS
)

// String returns the evaluation's name for the mode.
func (m Mode) String() string {
	switch m {
	case ModeDRAM:
		return "dram"
	case ModeHWcc:
		return "hwcc"
	case ModeSWFlush:
		return "swflush"
	case ModeMCAS:
		return "mcas"
	default:
		return "unknown"
	}
}

// mcasAttempts bounds the retry loop on a faulting NMP unit: the first
// attempt plus three retries with exponential backoff, after which CAS
// degrades to sw_flush_cas.
const mcasAttempts = 4

// HW performs loads, stores, and CAS on HWcc-region words under one of
// the coherence models. All methods are safe for concurrent use.
type HW struct {
	dev  *memsim.Device
	mode Mode
	unit *nmp.Unit
	lat  *memsim.Latency

	mcasFaults  atomic.Uint64
	mcasRetries atomic.Uint64
	fallbacks   atomic.Uint64
	evTick      atomic.Uint32 // EvMCASAttempt sampling tick (tracing only)
}

// New returns an HW over dev in the given mode. unit is required for
// ModeMCAS and ignored otherwise; lat may be nil (no injected latency).
func New(dev *memsim.Device, mode Mode, unit *nmp.Unit, lat *memsim.Latency) *HW {
	if mode == ModeMCAS && unit == nil {
		panic("atomicx: ModeMCAS requires an NMP unit")
	}
	return &HW{dev: dev, mode: mode, unit: unit, lat: lat}
}

// Mode returns the coherence model in use.
func (h *HW) Mode() Mode { return h.mode }

// Load reads HWcc word w.
func (h *HW) Load(tid, w int) uint64 {
	switch h.mode {
	case ModeMCAS:
		// Device-biased memory: uncached read through the NMP.
		return h.unit.Load(tid, w)
	case ModeSWFlush:
		// No HWcc: the line must be flushed before the load to read
		// fresh data, so every load pays a CXL round trip.
		h.lat.Inject(h.latv().CXLLoad)
		return h.dev.HWccLoad(w)
	case ModeHWcc:
		// Cacheable and coherent: most loads hit the CPU cache.
		h.lat.Inject(h.latv().LocalLoad)
		return h.dev.HWccLoad(w)
	default:
		h.lat.Inject(h.latv().LocalLoad)
		return h.dev.HWccLoad(w)
	}
}

// Store writes HWcc word w. Stores to synchronization words are only
// safe where the allocator's protocol rules out concurrent CAS (e.g.
// reinitializing a slab's remote-free word while holding exclusive
// ownership).
func (h *HW) Store(tid, w int, v uint64) {
	switch h.mode {
	case ModeMCAS:
		h.unit.Store(tid, w, v)
	case ModeSWFlush:
		h.lat.Inject(h.latv().CXLStore)
		h.dev.HWccStore(w, v)
	default:
		h.lat.Inject(h.latv().LocalStore)
		h.dev.HWccStore(w, v)
	}
}

// CAS attempts to replace old with new in word w. It returns the value
// observed (old on success, the conflicting current value on failure)
// and whether the swap occurred.
//
// In ModeMCAS a faulting NMP unit does not hang the pod: CAS retries the
// unit a bounded number of times with exponential backoff and then falls
// back to sw_flush_cas, so workloads complete degraded (counted in
// Stats) instead of blocking. The fallback is safe in the simulator
// because a faulted attempt commits nothing; on real hardware it
// inherits sw_flush_cas's single-coherence-domain caveat, which is the
// price of availability while the unit is down.
func (h *HW) CAS(tid, w int, old, new uint64) (cur uint64, ok bool) {
	switch h.mode {
	case ModeMCAS:
		for attempt := 0; attempt < mcasAttempts; attempt++ {
			// EvMCASAttempt fires on every HWcc op in mCAS mode, so it is
			// sampled (telemetry.SampleHot); retries and fallbacks are rare
			// and recorded unconditionally. The tick is a shared atomic —
			// the HW layer is pod-wide — but it is only touched when
			// tracing is enabled, and an mCAS attempt already costs an NMP
			// round trip.
			if telemetry.Enabled() && telemetry.SampleHotAtomic(&h.evTick) {
				telemetry.Emit(tid, telemetry.EvMCASAttempt, uint64(w), uint32(attempt))
			}
			cur, ok, err := h.unit.TryMCAS(tid, w, old, new)
			if err == nil {
				return cur, ok
			}
			h.mcasFaults.Add(1)
			if attempt < mcasAttempts-1 {
				h.mcasRetries.Add(1)
				if telemetry.Enabled() {
					telemetry.Emit(tid, telemetry.EvMCASRetry, uint64(w), uint32(attempt+1))
				}
				h.lat.Inject(h.latv().MCASService << attempt)
			}
		}
		h.fallbacks.Add(1)
		if telemetry.Enabled() {
			telemetry.Emit(tid, telemetry.EvMCASFallback, uint64(w), 0)
		}
		h.lat.Inject(h.latv().FlushCost)
		h.lat.Inject(h.latv().CASRTT)
		if h.dev.HWccCAS(w, old, new) {
			return old, true
		}
		return h.dev.HWccLoad(w), false
	case ModeSWFlush:
		h.lat.Inject(h.latv().FlushCost)
		h.lat.Inject(h.latv().CASRTT)
	case ModeHWcc:
		h.lat.Inject(h.latv().CASRTT)
	default:
		h.lat.Inject(h.latv().CASRTT)
	}
	if h.dev.HWccCAS(w, old, new) {
		return old, true
	}
	return h.dev.HWccLoad(w), false
}

// Stats returns a snapshot of the degraded-mode counters.
func (h *HW) Stats() telemetry.HWStats {
	return telemetry.HWStats{
		MCASFaults:     h.mcasFaults.Load(),
		MCASRetries:    h.mcasRetries.Load(),
		HWCASFallbacks: h.fallbacks.Load(),
	}
}

// latv returns the latency model, or a shared disabled model when none
// was configured, so call sites can read fields unconditionally.
func (h *HW) latv() *memsim.Latency {
	if h.lat == nil {
		return disabledLatency
	}
	return h.lat
}

var disabledLatency = memsim.LatencyOff()
