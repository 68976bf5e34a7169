package core

import (
	"cxlalloc/internal/atomicx"
	"cxlalloc/internal/telemetry"
)

// Footprint is the memory-accounting view the evaluation reports:
// total consumption (the PSS analogue) split by region, with HWcc bytes
// broken out because minimizing them is a headline claim (§3.2: 2 B of
// information — 8 B with detectable CAS — per slab, plus constants).
type Footprint struct {
	// HWccBytes is HWcc metadata in active use: the fixed words (heap
	// lengths, free-list heads, reservation array, help array) plus one
	// word per mapped slab.
	HWccBytes uint64
	// MetaBytes is SWcc metadata in active use: descriptors of mapped
	// slabs, per-thread state, huge descriptors, recovery records.
	MetaBytes uint64
	// DataBytes is data-region memory backing mapped slabs and live huge
	// allocations.
	DataBytes uint64
}

// Total returns the full footprint in bytes.
func (f Footprint) Total() uint64 { return f.HWccBytes + f.MetaBytes + f.DataBytes }

// HWccFraction returns HWccBytes / Total (the paper reports cxlalloc at
// ~0.02% on macrobenchmarks).
func (f Footprint) HWccFraction() float64 {
	t := f.Total()
	if t == 0 {
		return 0
	}
	return float64(f.HWccBytes) / float64(t)
}

// Footprint computes the heap's current footprint as seen by thread tid.
func (h *Heap) Footprint(tid int) Footprint {
	ts := h.ts(tid)
	smallLen := uint64(h.small.length(tid))
	largeLen := uint64(h.large.length(tid))

	var f Footprint
	// Fixed words: lengths + free heads (4), reservation array, then the
	// per-thread help array, clock word, lease table, and claim words of
	// the liveness plane.
	fixedHW := uint64(4 + h.cfg.NumReservations + 1 + 3*h.cfg.NumThreads)
	f.HWccBytes = 8 * (fixedHW + smallLen + largeLen)

	f.MetaBytes = 8 * (smallLen*uint64(h.lay.SmallDescStride) +
		largeLen*uint64(h.lay.LargeDescStride) +
		uint64(h.cfg.NumThreads)*uint64(h.lay.SmallLocalStride+h.lay.LargeLocalStride+h.lay.HugeLocalStride+lineWords))

	f.DataBytes = smallLen*uint64(SmallSlabSize) + largeLen*uint64(LargeSlabSize)

	// Live huge allocations and their descriptors.
	for t := 0; t < h.cfg.NumThreads; t++ {
		for slot := 0; slot < h.cfg.DescsPerThread; slot++ {
			id := t*h.cfg.DescsPerThread + slot
			if h.hugeLoad(ts, h.descW(id, hdNext))&hdInUseBit != 0 {
				f.DataBytes += h.hugeLoad(ts, h.descW(id, hdSize))
				f.MetaBytes += 8 * uint64(h.lay.HugeDescStride)
			}
		}
	}
	return f
}

// HeapLengths returns the current small and large heap lengths in slabs
// (for tests and the harness).
func (h *Heap) HeapLengths(tid int) (small, large uint32) {
	return h.small.length(tid), h.large.length(tid)
}

// CacheStatsFor returns thread tid's exact SWcc cache counters. The
// thread must be quiesced (it reads the owner-side counters); for a
// view that is safe against running mutators use Snapshot, which reads
// the published mirrors instead. Dead or detached slots return zeros.
func (h *Heap) CacheStatsFor(tid int) (loads, hits, flushes, fences uint64) {
	if tid < 0 || tid >= len(h.threads) {
		return 0, 0, 0, 0
	}
	h.recMu[tid].Lock()
	c := h.threads[tid].cache
	h.recMu[tid].Unlock()
	if c == nil {
		return 0, 0, 0, 0
	}
	st := c.Stats()
	return st.Loads, st.Hits, st.Flushes, st.Fences
}

// remoteCount returns the remote-free countdown of a slab (tests only).
func (s *slabHeap) remoteCount(tid, idx int) uint32 {
	return atomicx.Payload(s.h.dcas.Load(tid, s.hwBase+idx))
}

// PublishStats force-refreshes every thread slot's published counter
// mirrors (SWcc cache stats and the allocator op ledger) from the
// owner-side counters. Every mutator thread must be quiesced — the
// harness calls it after a workload joins, so the following Snapshot is
// exact rather than mirror-lagged.
func (h *Heap) PublishStats() {
	for tid := range h.threads {
		h.recMu[tid].Lock()
		c := h.threads[tid].cache
		h.recMu[tid].Unlock()
		if c != nil {
			c.Stats() // Stats republishes the shared mirror
		}
		h.ops[tid].publish()
	}
}

// Snapshot assembles the allocator's portion of the unified telemetry
// snapshot. Unlike the exact per-thread accessors it is safe to call
// concurrently with running mutators: every field comes from an atomic
// counter, a mutex-guarded structure, or a published mirror that lags
// its owner by a bounded number of operations. cxlalloc.(*Pod).Snapshot
// adds the liveness watchdogs' counters.
func (h *Heap) Snapshot() telemetry.Snapshot {
	var s telemetry.Snapshot
	for tid := range h.threads {
		h.recMu[tid].Lock()
		c := h.threads[tid].cache
		h.recMu[tid].Unlock()
		if c != nil {
			s.Cache = telemetry.Add(s.Cache, c.SharedStats())
		}
		// Frees before allocs — the mirror image of threadOps.publish,
		// which stores each class's allocs before its frees. A publish
		// landing between the two groups of loads can then only add allocs
		// to frees already read, so per thread a snapshot never shows more
		// frees than allocs. Across threads it still can: a block freed by
		// another thread than allocated it may be published by the freer
		// first, so summed frees lead summed allocs by at most opsPubEvery
		// per thread.
		to := &h.ops[tid]
		s.Alloc.SmallFrees += to.pub[ocSmallFree].Load()
		s.Alloc.LargeFrees += to.pub[ocLargeFree].Load()
		s.Alloc.HugeFrees += to.pub[ocHugeFree].Load()
		s.Alloc.SmallAllocs += to.pub[ocSmallAlloc].Load()
		s.Alloc.LargeAllocs += to.pub[ocLargeAlloc].Load()
		s.Alloc.HugeAllocs += to.pub[ocHugeAlloc].Load()
	}
	s.HW = h.hw.Stats()
	if h.unit != nil {
		s.NMP = h.unit.Stats()
	}
	if h.cfg.Crash != nil {
		s.Chaos.CrashPointsInstrumented = uint64(len(h.cfg.Crash.PointNames()))
		s.Chaos.CrashPointsFired = h.cfg.Crash.FiredTotal()
	}
	s.Chaos.CrashesMarked = h.crashesMarked.Load()
	s.Chaos.Recoveries = h.recoveries.Load()
	s.Chaos.RecoveriesFenced = h.recoveriesFenced.Load()
	s.Chaos.CrashDiscards = h.crashDiscards.Load()
	s.Chaos.LinesDroppedAtCrash = h.linesDropped.Load()
	s.Liveness.Renews = h.leaseRenews.Load()
	s.Liveness.Claims = h.claimsWon.Load()
	s.FillTrace()
	return s
}
