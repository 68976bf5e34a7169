package core

import "math/bits"

// Thread-local allocation magazines (DESIGN.md §7.2). A magazine is a
// per-thread, per-class cache of free blocks privatized from one owned
// slab: one bitset word's worth of blocks moves from the slab's shared
// bitset into a single-writer magazine line, after which allocation is
// a one-line mask update plus one fence — no descriptor, bitset, or
// free-count traffic. The shared slab protocol is touched only on
// refill (privatize a word) and drain (return the mask).
//
// The magazine line is a durable ownership record, exactly like the
// oplog: word 0 packs the source slab, bitset word, and class; word 1
// is the mask of privatized free blocks. Crash-time reclamation unions
// a dead thread's masks back into the slab bitsets during recovery
// (reclaimMagazines), and the drain-time ledger audit counts magazine
// blocks as free (magUnionMasks), so a privatized block is never lost.
//
// Safety invariants, each load-bearing for recovery:
//
//   - mask != 0 implies the source slab is owned by this thread, carries
//     the magazine's class, and sits on the sized list with free count
//     >= 1 (magRefill's leave-one rule). It therefore cannot be stolen
//     (stealing needs a zero remote countdown, which needs every block
//     remotely freed — impossible while the thread holds mask blocks),
//     detached, disowned, or pushed global while the magazine is live.
//   - mask and the slab bitset are disjoint: refill clears the bits it
//     privatizes under a two-phase record, and frees enter exactly one
//     of the two.
//   - The volatile mirror (threadState.mags) is invalidated whenever
//     the slab's state machine moves (full/empty transitions) — at
//     which point the mask is provably zero, or is drained first.
//
// Magazines run only on incoherent devices (the coherent pod has no
// flush/fence protocol cost to avoid, and keeping the DRAM baseline
// byte-identical keeps the hotpath comparison honest) and can be
// toggled at runtime (SetMagazines) so crash harnesses exercise both
// the magazine and the classic paths.

// magSlot is the volatile mirror of one magazine line.
type magSlot struct {
	slab int32 // source slab index + 1; 0 = empty
	word int16 // bitset word the mask covers
	mask uint64
}

// magW returns the SWcc word of thread tid's class-c magazine line.
func (s *slabHeap) magW(tid, class int) int {
	return s.magBase + (tid*(len(s.classes)-1)+(class-1))*lineWords
}

// Magazine meta word: [ slab+1 : 32 | bitset word : 16 | class : 8 ].
func packMagMeta(idx, word, class int) uint64 {
	return uint64(uint32(idx+1)) | uint64(uint16(word))<<32 | uint64(uint8(class))<<48
}

func magMetaSlab(w uint64) uint32 { return uint32(w) }
func magMetaWord(w uint64) int    { return int(uint16(w >> 32)) }
func magMetaClass(w uint64) int   { return int(uint8(w >> 48)) }

// magsEnabled gates the magazine fast path: incoherent device, the
// recovery protocol on, and the runtime toggle on. NonRecoverable turns
// magazines off because their entire value is amortizing durability
// traffic — with no oplog flushes or fences to coalesce, the classic path
// runs on cached stores alone and a magazine line's flush+fence would be
// pure added cost.
func (h *Heap) magsEnabled() bool {
	return !h.coherent && !h.cfg.NonRecoverable && !h.magsOff.Load()
}

// SetMagazines toggles the magazine fast path at runtime. Toggling off
// does not drain: privatized blocks stay in their (durable) magazine
// lines, invisible to the classic path, until DrainMagazines or a
// toggle back on; the ledger audit and crash reclamation account for
// them either way. Chaos harnesses flip this so both the magazine and
// the classic crash points fire under one workload.
func (h *Heap) SetMagazines(on bool) { h.magsOff.Store(!on) }

// MagazinesEnabled reports whether the magazine fast path is active.
func (h *Heap) MagazinesEnabled() bool { return h.magsEnabled() }

// magAt returns the mirror slot for class, or nil if this thread has
// never refilled a magazine on this heap.
func (s *slabHeap) magAt(ts *threadState, class int) *magSlot {
	mags := ts.mags[s.magIdx]
	if mags == nil {
		return nil
	}
	return &mags[class]
}

// magPop takes one block from the class magazine. The commit discipline
// is the tightest in the allocator: the handoff record (opMagAlloc) and
// the mask-clear are both plain SWcc stores with no crash point between
// them, so a single fence commits them atomically — writeOplogDeferred's
// legality conditions. Redo reads the durable mask: bit cleared means
// the pop committed (report the pending block for adoption), bit still
// set means it never happened (reclamation unions the block back).
func (s *slabHeap) magPop(ts *threadState, tid, class int) (Ptr, bool) {
	m := s.magAt(ts, class)
	if m == nil || m.mask == 0 {
		return 0, false
	}
	b := bits.TrailingZeros64(m.mask)
	idx := int(m.slab) - 1
	block := int(m.word)*64 + b
	s.h.writeOplogDeferred(tid, ts, s.opc(opMagAlloc), uint32(idx), uint16(block), uint16(class))
	m.mask &^= 1 << uint(b)
	mw := s.magW(tid, class)
	ts.cache.Store(mw+1, m.mask)
	ts.cache.FlushOpt(mw + 1)
	if !s.h.cfg.SkipCommitFence {
		ts.cache.Fence()
	}
	s.cp(tid, "magalloc.post-take")
	s.h.clearOplog(tid, ts)
	return s.ptrOf(idx, block, class), true
}

// magFree returns block into the class magazine if the magazine covers
// its slab and bitset word. No record is needed: the mask-set is a
// single store committed by its own fence, after which the free is
// durable (an older record still cached as cleared is committed by the
// same fence, so redo never resurrects a completed pop). On a window
// miss it tries to re-target the magazine at the freed block's word
// (magAdopt) before falling back to the classic local free.
//
// A slab whose last allocated blocks return through the mask stays on
// the sized list with fc < total — deliberate retention, bounded at one
// bitset word per (thread, class): the next same-class alloc reuses the
// window without a protocol round, and DrainMagazines returns the
// blocks for callers that need the slab to complete its empty
// transition (harness drains, exact-footprint audits).
func (s *slabHeap) magFree(ts *threadState, tid, idx, class, block int) bool {
	m := s.magAt(ts, class)
	if m == nil || int(m.slab) != idx+1 || int(m.word) != block/64 {
		return s.magAdopt(ts, m, tid, idx, class, block)
	}
	bit := uint64(1) << (uint(block) % 64)
	if m.mask&bit != 0 {
		s.h.fail("%s heap: double free into magazine (slab %d block %d)", s.name, idx, block)
	}
	if s.blockBit(ts, idx, block) {
		s.h.fail("%s heap: double free of slab %d block %d (free in bitset, freed into magazine)",
			s.name, idx, block)
	}
	m.mask |= bit
	mw := s.magW(tid, class)
	ts.cache.Store(mw+1, m.mask)
	ts.cache.FlushOpt(mw + 1)
	ts.cache.Fence()
	s.cp(tid, "magfree.post-put")
	return true
}

// magAdopt re-targets the class magazine at the freed block's bitset
// word, so a burst of frees into a word the magazine no longer covers
// (threadtest's batch boundary: the mirror points at the most recently
// refilled word) becomes one window switch plus single-line magFrees
// instead of a classic protocol round per free.
//
// Policy: an empty magazine adopts any owned slab's word outright; a
// live window on the SAME slab is drained first (the common ping-pong
// between two words of the sized-list head); a live window on another
// slab stays put — cross-slab churn would thrash the window for no
// locality gain. The drain's record carries the in-flight free's block
// as pending (ver = block+1), exactly like the alloc-nested drain: the
// block is in neither the mask nor the bitset while the drain runs, so
// a crash anywhere inside it makes redo report the block for adoption
// and the harness's "a requested free is irrevocable" contract holds —
// the application re-owns the pointer and frees it again.
//
// The adoption itself needs no record: meta and mask share one SWcc
// line, stored and committed under one fence before the free returns,
// so the acked free is durable and the adversary persists the new
// window atomically or not at all — the only crash point sits after
// the fence, where nothing of this op is still in play.
func (s *slabHeap) magAdopt(ts *threadState, m *magSlot, tid, idx, class, block int) bool {
	if m != nil && m.mask != 0 {
		if int(m.slab) != idx+1 {
			return false
		}
		s.magDrain(ts, tid, class, block)
	}
	if s.getFreeCount(ts, idx) == 0 {
		// Full (detached) slab: the classic path's rescue reattaches it.
		// Adopting here would break mask != 0 => free count >= 1, the
		// invariant that keeps magazine-backed slabs unstealable.
		return false
	}
	if s.blockBit(ts, idx, block) {
		s.h.fail("%s heap: double free of slab %d block %d (free in bitset, adopted into magazine)",
			s.name, idx, block)
	}
	mw := s.magW(tid, class)
	if v := ts.cache.Load(mw + 1); v != 0 {
		// Mirror empty but the durable line holds blocks: a prior
		// incarnation's magazine was never reclaimed (reattach without
		// recovery). Overwriting it would leak every masked block.
		s.h.fail("%s heap: adopt over a live magazine line for thread %d class %d (mask %#x)",
			s.name, tid, class, v)
	}
	word := block / 64
	bit := uint64(1) << (uint(block) % 64)
	ts.cache.Store(mw, packMagMeta(idx, word, class))
	ts.cache.Store(mw+1, bit)
	ts.cache.FlushOpt(mw)
	ts.cache.Fence()
	s.cp(tid, "magfree.post-adopt")
	mags := ts.mags[s.magIdx]
	if mags == nil {
		mags = make([]magSlot, len(s.classes))
		ts.mags[s.magIdx] = mags
	}
	mags[class] = magSlot{slab: int32(idx + 1), word: int16(word), mask: bit}
	return true
}

// magRefill privatizes one bitset word of the sized-list head slab into
// the class magazine. Two-phase (DESIGN.md §7.2): phase 1 makes the
// record and the filled magazine line durable under one fence, phase 2
// clears the privatized bits from the shared bitset and commits at a
// second fence. A crash between the phases leaves the blocks in both
// the mask and the bitset; reclamation's idempotent union resolves the
// overlap. The leave-one rule keeps the slab's free count >= 1, so a
// magazine-backed slab never reaches the full transition while its
// mask is live.
//
// Returns false (caller falls back to the classic path) when the sized
// list is empty or the word would leave nothing behind.
func (s *slabHeap) magRefill(ts *threadState, tid, class int) bool {
	head := ts.cache.Load(s.localW(tid, class))
	if head == 0 {
		return false
	}
	idx := int(head - 1)
	total := s.blocksPer(class)
	base := s.bitsetW(idx)
	words := (total + 63) / 64
	word := -1
	var take uint64
	for w := 0; w < words; w++ {
		if v := ts.cache.Load(base + w); v != 0 {
			word, take = w, v
			break
		}
	}
	if word < 0 {
		s.h.fail("%s heap: full slab %d on sized list %d", s.name, idx, class)
	}
	fc := s.getFreeCount(ts, idx)
	n := uint32(bits.OnesCount64(take))
	if n == fc {
		// The word holds the slab's last free blocks: leave the lowest
		// one to the classic path so the free count stays positive.
		take &= take - 1
		n--
		if take == 0 {
			return false
		}
	}
	mw := s.magW(tid, class)
	if v := ts.cache.Load(mw + 1); v != 0 {
		// The mirror said empty but the durable line holds blocks: a prior
		// incarnation's magazine was never reclaimed (reattach without
		// recovery). Overwriting it would leak every masked block.
		s.h.fail("%s heap: refill over a live magazine line for thread %d class %d (mask %#x)",
			s.name, tid, class, v)
	}
	s.h.writeOplog(tid, ts, s.opc(opMagRefill), uint32(idx), uint16(class)<<8|uint16(word), 0)
	ts.cache.Store(mw, packMagMeta(idx, word, class))
	ts.cache.Store(mw+1, take)
	ts.cache.FlushOpt(mw)
	ts.cache.Fence()
	s.cp(tid, "magrefill.post-oplog")
	// Phase 2: the magazine line is durable; remove the privatized
	// blocks from the shared ledger. These two lines are the open crash
	// window the persist sweep attacks at magrefill.pre-commit — any
	// dropped subset is repaired by reclamation's union.
	ts.cache.Store(base+word, ts.cache.Load(base+word)&^take)
	s.setFreeCount(ts, idx, fc-n)
	s.cp(tid, "magrefill.pre-commit")
	ts.cache.Fence()
	s.h.clearOplog(tid, ts)
	mags := ts.mags[s.magIdx]
	if mags == nil {
		mags = make([]magSlot, len(s.classes))
		ts.mags[s.magIdx] = mags
	}
	mags[class] = magSlot{slab: int32(idx + 1), word: int16(word), mask: take}
	return true
}

// magDrain returns the class magazine's blocks to their slab. pending
// is the block the caller holds mid-operation — the classic take when
// the drain runs nested inside alloc's full transition (the magazine
// was toggled off and classic allocs emptied the slab around a live
// mask), or the block being freed when magAdopt retires a stale window
// — or -1 for a standalone drain. Its record carries pending+1 in ver
// so the in-flight pointer stays recoverable, exactly like opDetach.
func (s *slabHeap) magDrain(ts *threadState, tid, class, pending int) {
	m := s.magAt(ts, class)
	idx := int(m.slab) - 1
	word := int(m.word)
	ver := uint16(0)
	if pending >= 0 {
		ver = uint16(pending + 1)
	}
	s.h.writeOplog(tid, ts, s.opc(opMagDrain), uint32(idx), uint16(class)<<8|uint16(word), ver)
	s.cp(tid, "magdrain.post-oplog")
	wi := s.bitsetW(idx) + word
	ts.cache.Store(wi, ts.cache.Load(wi)|m.mask)
	fc := s.getFreeCount(ts, idx) + uint32(bits.OnesCount64(m.mask))
	s.setFreeCount(ts, idx, fc)
	s.cp(tid, "magdrain.pre-commit")
	ts.cache.Fence()
	// The union is durable; now retire the magazine line. Its clear
	// commits at the next fence — until then a crash re-unions the same
	// bits, which are already set (idempotent).
	mw := s.magW(tid, class)
	ts.cache.Store(mw, 0)
	ts.cache.Store(mw+1, 0)
	ts.cache.FlushOpt(mw)
	s.cp(tid, "magdrain.post-clear")
	*m = magSlot{}
	// A standalone drain can complete the slab (every block outside the
	// magazine was already free); hand it back through the normal
	// transition. Nested drains cannot get here: the pending block is
	// still allocated, so fc < total.
	if int(fc) == s.blocksPer(class) {
		s.emptyTransition(ts, tid, idx, class)
	}
	s.h.clearOplog(tid, ts)
}

// drainAll drains every live magazine of this heap for tid.
func (s *slabHeap) drainAll(ts *threadState, tid int) {
	mags := ts.mags[s.magIdx]
	if mags == nil {
		return
	}
	for class := 1; class < len(s.classes); class++ {
		if mags[class].mask != 0 {
			s.magDrain(ts, tid, class, -1)
		} else {
			mags[class] = magSlot{}
		}
	}
}

// DrainMagazines returns every block thread tid privatized back to its
// slabs. Callers that want a minimal shared-state footprint (harness
// drains, graceful detach) use it; the hot path never does — the
// drain-time ledger audit and crash reclamation account for live
// magazines instead.
func (h *Heap) DrainMagazines(tid int) {
	ts := h.ts(tid)
	h.small.drainAll(ts, tid)
	h.large.drainAll(ts, tid)
}

// reclaimMagazines, recovery only: union every nonzero magazine mask of
// the crashed thread back into its slab's bitset, then retire the line.
// mask != 0 proves the slab was owned by the dead thread at the crash
// (see the invariants above), so the bitset write is single-writer. The
// union is idempotent with every crash window the protocol can leave:
// refill's pre-commit overlap re-sets bits that were never cleared, a
// completed drain's bits are re-set in place, and a committed pop's
// block is in neither set — which is exactly the pending allocation the
// opMagAlloc redo reports.
func (s *slabHeap) reclaimMagazines(ts *threadState, tid int) {
	for class := 1; class < len(s.classes); class++ {
		mw := s.magW(tid, class)
		mask := ts.cache.LoadFresh(mw + 1)
		if mask == 0 {
			continue
		}
		meta := ts.cache.LoadFresh(mw)
		idx := int(magMetaSlab(meta)) - 1
		word := magMetaWord(meta)
		if idx < 0 || magMetaClass(meta) != class {
			s.h.fail("%s heap: corrupt magazine line for thread %d class %d (meta %#x)",
				s.name, tid, class, meta)
		}
		if w0Owner(s.loadW0(ts, idx)) != uint16(tid+1) {
			s.h.fail("%s heap: magazine of thread %d class %d references slab %d it does not own",
				s.name, tid, class, idx)
		}
		wi := s.bitsetW(idx) + word
		ts.cache.Store(wi, ts.cache.Load(wi)|mask)
		ts.cache.Store(mw, 0)
		ts.cache.Store(mw+1, 0)
		ts.cache.FlushOpt(mw)
		ts.cache.Fence()
	}
}

// magExtra is one slab's live magazine window, as seen by the audit.
type magExtra struct {
	word int
	mask uint64
}

// magUnionMasks scans every thread's magazine lines fresh and returns
// slab -> privatized window. At most one magazine can reference a slab
// (a slab has one owner and one class), so a plain map suffices. Audit
// only; requires quiescence.
func (s *slabHeap) magUnionMasks(ts *threadState) map[int]magExtra {
	out := make(map[int]magExtra)
	for t := 0; t < s.h.cfg.NumThreads; t++ {
		for class := 1; class < len(s.classes); class++ {
			mw := s.magW(t, class)
			mask := ts.cache.LoadFresh(mw + 1)
			if mask == 0 {
				continue
			}
			meta := ts.cache.LoadFresh(mw)
			idx := int(magMetaSlab(meta)) - 1
			if prev, dup := out[idx]; dup {
				s.h.fail("%s heap: two magazines reference slab %d (masks %#x, %#x)",
					s.name, idx, prev.mask, mask)
			}
			out[idx] = magExtra{word: magMetaWord(meta), mask: mask}
		}
	}
	return out
}
