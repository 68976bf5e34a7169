package core

import (
	"fmt"
	"math/bits"
)

// Runtime invariant checks (§5.1): "SWccDesc.owner is null when popping
// a slab from the global free list, all slabs in thread-local sized free
// lists are non-full, all free lists are acyclic," and more. The
// correctness tests and (optionally) the benchmarks run with these
// enabled.

// CheckThread verifies every invariant over thread tid's own structures.
// It is safe to call while other threads run, because it only reads
// state tid owns.
func (h *Heap) CheckThread(tid int) error {
	ts := h.ts(tid)
	if err := h.small.checkLocal(ts, tid); err != nil {
		return err
	}
	if err := h.large.checkLocal(ts, tid); err != nil {
		return err
	}
	return h.checkHugeLocal(ts, tid)
}

// CheckAll verifies thread-local invariants for every attached thread
// plus the global free lists. It requires quiescence (no concurrent
// allocator activity); tests call it at barriers.
func (h *Heap) CheckAll(tid int) error {
	for t := 0; t < h.cfg.NumThreads; t++ {
		if h.threads[t].attached && h.threads[t].alive {
			if err := h.CheckThread(t); err != nil {
				return err
			}
		}
	}
	ts := h.ts(tid)
	if err := h.small.checkGlobal(ts, tid); err != nil {
		return err
	}
	return h.large.checkGlobal(ts, tid)
}

// maybeCheck runs CheckThread when the config enables per-operation
// checking, failing loudly on violation.
func (h *Heap) maybeCheck(tid int) {
	if !h.cfg.CheckInvariants {
		return
	}
	if err := h.CheckThread(tid); err != nil {
		h.fail("invariant violation: %v", err)
	}
}

func (s *slabHeap) checkLocal(ts *threadState, tid int) error {
	me := uint16(tid + 1)
	seen := make(map[int]bool)

	// Unsized list: owned, classless, acyclic, within the spill bound.
	n := 0
	cur := ts.cache.Load(s.localW(tid, 0))
	for cur != 0 {
		idx := int(cur - 1)
		if seen[idx] {
			return fmt.Errorf("%s: unsized list of thread %d has a cycle at slab %d", s.name, tid, idx)
		}
		seen[idx] = true
		w0 := s.loadW0(ts, idx)
		if w0Owner(w0) != me {
			return fmt.Errorf("%s: slab %d on thread %d's unsized list has owner %d", s.name, idx, tid, w0Owner(w0))
		}
		if w0Class(w0) != 0 {
			return fmt.Errorf("%s: slab %d on thread %d's unsized list has class %d", s.name, idx, tid, w0Class(w0))
		}
		n++
		if n > s.maxSlabs {
			return fmt.Errorf("%s: unsized list of thread %d exceeds heap size", s.name, tid)
		}
		cur = uint64(w0Next(w0))
	}
	if n > s.h.cfg.UnsizedThreshold {
		return fmt.Errorf("%s: thread %d's unsized list has %d slabs, spill threshold is %d",
			s.name, tid, n, s.h.cfg.UnsizedThreshold)
	}

	// Sized lists: owned, correctly classed, non-full, consistent counts.
	for c := 1; c < len(s.classes); c++ {
		total := s.blocksPer(c)
		cur := ts.cache.Load(s.localW(tid, c))
		steps := 0
		for cur != 0 {
			idx := int(cur - 1)
			if seen[idx] {
				return fmt.Errorf("%s: slab %d linked twice in thread %d's lists", s.name, idx, tid)
			}
			seen[idx] = true
			w0 := s.loadW0(ts, idx)
			if w0Owner(w0) != me {
				return fmt.Errorf("%s: slab %d on sized list %d has owner %d, want thread %d", s.name, idx, c, w0Owner(w0), tid)
			}
			if w0Class(w0) != c {
				return fmt.Errorf("%s: slab %d on sized list %d has class %d", s.name, idx, c, w0Class(w0))
			}
			fc := s.getFreeCount(ts, idx)
			if fc == 0 {
				return fmt.Errorf("%s: full slab %d on thread %d's sized list %d", s.name, idx, tid, c)
			}
			if pc := s.popcount(ts, idx, total); pc != fc {
				return fmt.Errorf("%s: slab %d free count %d != bitset popcount %d", s.name, idx, fc, pc)
			}
			steps++
			if steps > s.maxSlabs {
				return fmt.Errorf("%s: sized list %d of thread %d exceeds heap size", s.name, c, tid)
			}
			cur = uint64(w0Next(w0))
		}
	}

	// Magazines: every live mirror must reference a slab on this thread's
	// sized list of the right class, its mask disjoint from the shared
	// bitset, and the durable magazine line in sync with the mirror.
	if mags := ts.mags[s.magIdx]; mags != nil {
		for c := 1; c < len(s.classes); c++ {
			m := &mags[c]
			if m.mask == 0 {
				continue
			}
			idx := int(m.slab) - 1
			if idx < 0 || !seen[idx] {
				return fmt.Errorf("%s: class-%d magazine of thread %d references slab %d, not on any local list",
					s.name, c, tid, idx)
			}
			w0 := s.loadW0(ts, idx)
			if w0Owner(w0) != me || w0Class(w0) != c {
				return fmt.Errorf("%s: class-%d magazine of thread %d references slab %d (owner %d, class %d)",
					s.name, c, tid, idx, w0Owner(w0), w0Class(w0))
			}
			if bw := ts.cache.Load(s.bitsetW(idx) + int(m.word)); bw&m.mask != 0 {
				return fmt.Errorf("%s: magazine mask overlaps bitset of slab %d (word %d: %#x & %#x)",
					s.name, idx, m.word, bw, m.mask)
			}
			mw := s.magW(tid, c)
			if meta := ts.cache.Load(mw); meta != packMagMeta(idx, int(m.word), c) {
				return fmt.Errorf("%s: magazine line of thread %d class %d out of sync (meta %#x, mirror slab %d word %d)",
					s.name, tid, c, meta, idx, m.word)
			}
			if dm := ts.cache.Load(mw + 1); dm != m.mask {
				return fmt.Errorf("%s: magazine line of thread %d class %d out of sync (mask %#x, mirror %#x)",
					s.name, tid, c, dm, m.mask)
			}
		}
	}
	return nil
}

func (s *slabHeap) checkGlobal(ts *threadState, tid int) error {
	seen := make(map[int]bool)
	cur := uint64(payloadOf(s.h.dcas.Load(tid, s.freeW)))
	for cur != 0 {
		idx := int(cur - 1)
		if seen[idx] {
			return fmt.Errorf("%s: global free list has a cycle at slab %d", s.name, idx)
		}
		seen[idx] = true
		if len(seen) > s.maxSlabs {
			return fmt.Errorf("%s: global free list exceeds heap size", s.name)
		}
		w0 := ts.cache.LoadFresh(s.descW0(idx))
		if w0Owner(w0) != 0 {
			return fmt.Errorf("%s: slab %d on global free list has owner %d", s.name, idx, w0Owner(w0))
		}
		if w0Class(w0) != 0 {
			return fmt.Errorf("%s: slab %d on global free list has class %d", s.name, idx, w0Class(w0))
		}
		cur = uint64(w0Next(w0))
	}
	return nil
}

func (h *Heap) checkHugeLocal(ts *threadState, tid int) error {
	// Descriptor list: acyclic, every linked descriptor in use, ranges
	// within regions this thread owns.
	seen := make(map[int]bool)
	cur := h.hugeLoad(ts, h.hugeHeadW(tid))
	for uint32(cur) != 0 {
		id := int(uint32(cur)) - 1
		if seen[id] {
			return fmt.Errorf("huge: descriptor list of thread %d has a cycle at %d", tid, id)
		}
		seen[id] = true
		if len(seen) > h.cfg.DescsPerThread {
			return fmt.Errorf("huge: descriptor list of thread %d exceeds pool size", tid)
		}
		w0 := h.hugeLoad(ts, h.descW(id, hdNext))
		if w0&hdInUseBit == 0 {
			return fmt.Errorf("huge: linked descriptor %d of thread %d is not in use", id, tid)
		}
		off := h.hugeLoad(ts, h.descW(id, hdOffset))
		size := h.hugeLoad(ts, h.descW(id, hdSize))
		if off < h.lay.HugeDataOff || off+size > h.lay.DataBytes || size == 0 {
			return fmt.Errorf("huge: descriptor %d has bad range [%#x, %#x)", id, off, off+size)
		}
		if off%uint64(PageSize) != 0 || size%uint64(PageSize) != 0 {
			return fmt.Errorf("huge: descriptor %d range not page aligned", id)
		}
		cur = w0
	}
	// The free interval set must not overlap any live allocation of this
	// thread: every live range must be AllocAt-able from a fresh copy of
	// the owned-region space minus the free set... equivalently, the
	// free set must not contain any live range's start.
	var bad error
	for slot := 0; slot < h.cfg.DescsPerThread && bad == nil; slot++ {
		id := tid*h.cfg.DescsPerThread + slot
		if h.hugeLoad(ts, h.descW(id, hdNext))&hdInUseBit == 0 {
			continue
		}
		off := h.hugeLoad(ts, h.descW(id, hdOffset))
		if ts.hugeFree.Contains(off, 1) {
			bad = fmt.Errorf("huge: live allocation at %#x overlaps thread %d's free set", off, tid)
		}
	}
	// Hazards must be page-aligned offsets within the huge area (or 0).
	for i := 0; i < h.cfg.NumHazards; i++ {
		v := h.hugeLoad(ts, h.hazardW(tid, i))
		if v == 0 {
			continue
		}
		if v < h.lay.HugeDataOff || v >= h.lay.DataBytes || v%uint64(PageSize) != 0 {
			return fmt.Errorf("huge: thread %d hazard slot %d holds invalid offset %#x", tid, i, v)
		}
	}
	return bad
}

// AuditEmpty verifies ledger consistency after a workload has freed
// every allocation it made (the persist harness drains before calling
// this): no slab may still hold an allocated block, and no huge
// descriptor may be in use. A crash that silently loses a free — or
// replays an alloc without handing the block to anyone — shows up here
// as a leaked block, which heap-shape invariants (CheckAll) cannot see.
// Requires quiescence; tid is the auditing thread.
func (h *Heap) AuditEmpty(tid int) error {
	ts := h.ts(tid)
	if err := h.small.auditEmpty(ts, tid); err != nil {
		return err
	}
	if err := h.large.auditEmpty(ts, tid); err != nil {
		return err
	}
	for t := 0; t < h.cfg.NumThreads; t++ {
		for slot := 0; slot < h.cfg.DescsPerThread; slot++ {
			id := t*h.cfg.DescsPerThread + slot
			if h.hugeLoad(ts, h.descW(id, hdNext))&hdInUseBit != 0 {
				return fmt.Errorf("huge: descriptor %d of thread %d still in use after drain", id, t)
			}
		}
	}
	return nil
}

func (s *slabHeap) auditEmpty(ts *threadState, tid int) error {
	// Blocks privatized into a live magazine are free but absent from
	// their slab's bitset; fold each magazine window back in for the
	// ledger equation.
	extra := s.magUnionMasks(ts)
	n := int(s.length(tid))
	for idx := 0; idx < n; idx++ {
		// The auditor is usually not the slab's owner: invalidate any
		// stale cached descriptor lines before reading.
		s.flushDesc(ts, idx)
		w0 := s.loadW0(ts, idx)
		class := w0Class(w0)
		if class == 0 {
			continue // unsized: no blocks to leak
		}
		// Ledger equation. The bitset counts blocks never allocated or
		// locally freed; the HWcc countdown starts at total and loses one
		// per remote free, whose bit stays cleared until the final freer
		// steals the slab. With every allocation freed, each cleared bit
		// must therefore be matched by a remote free:
		//
		//	popcount(bitset) == countdown payload
		//
		// A leaked block (taken, never freed) clears a bit without
		// decrementing the countdown; a resurrected block sets a bit that
		// was already counted. Both break the equality.
		total := s.blocksPer(class)
		pc := s.popcount(ts, idx, total)
		if m, ok := extra[idx]; ok {
			if bw := ts.cache.Load(s.bitsetW(idx) + m.word); bw&m.mask != 0 {
				return fmt.Errorf("%s: slab %d magazine mask overlaps bitset (word %d: %#x & %#x)",
					s.name, idx, m.word, bw, m.mask)
			}
			pc += uint32(bits.OnesCount64(m.mask))
		}
		remote := s.remoteCount(tid, idx)
		if pc != remote {
			return fmt.Errorf("%s: slab %d (class %d) ledger broken after drain: bitset has %d of %d free, countdown expects %d",
				s.name, idx, class, pc, total, remote)
		}
	}
	return nil
}

// payloadOf aliases atomicx.Payload without importing it in every file.
func payloadOf(w uint64) uint32 { return uint32(w) }
