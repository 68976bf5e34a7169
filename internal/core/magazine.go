package core

import "math/bits"

// Thread-local allocation magazines (DESIGN.md §7.2). A magazine is a
// per-thread, per-class cache of free blocks privatized from one owned
// slab: one bitset word's worth of blocks moves from the slab's shared
// bitset into a single-writer magazine line, after which allocation is
// a one-line mask update plus one fence — no descriptor, bitset, or
// free-count traffic. The shared slab protocol is touched only on
// refill (privatize a word) and drain (return the mask). A refill takes
// from whichever slab on the class's sized list offers the most blocks,
// not from the head the classic path allocates from: a local free
// reattaches a full slab at the head with only a few blocks free.
//
// The magazine line is a durable ownership record, exactly like the
// oplog: word 0 packs the source slab, bitset word, class, and the
// in-flight pop's handoff record; word 1 is the mask of privatized free
// blocks. Crash-time reclamation unions a dead thread's masks back into
// the slab bitsets during recovery (reclaimMagazines), and the
// drain-time ledger audit counts magazine blocks as free
// (magUnionMasks), so a privatized block is never lost.
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
// flush/fence protocol cost to avoid, and keeping the DRAM path
// byte-identical keeps fig12's DRAM baseline honest) and can be
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

// Magazine meta word: [ slab+1 : 32 | bitset word : 16 | class : 8 |
// record : 8 ]. The record byte is the pop handoff record: bit+1 of the
// block magPop is taking, 0 when no pop is in flight.
func packMagMeta(idx, word, class int) uint64 {
	return uint64(uint32(idx+1)) | uint64(uint16(word))<<32 | uint64(uint8(class))<<48
}

func magRecord(bit int) uint64 { return uint64(bit+1) << 56 }

func magMetaSlab(w uint64) uint32 { return uint32(w) }
func magMetaWord(w uint64) int    { return int(uint16(w >> 32)) }
func magMetaClass(w uint64) int   { return int(uint8(w >> 48)) }
func magMetaRecord(w uint64) int  { return int(w >> 56) }

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

// magPop takes one block from the class magazine in one line: the
// handoff record (the taken bit, in the meta word's record byte) and the
// mask-clear are stored together, so one flush and one fence commit
// them, and the adversary persists both or neither. Reclamation reads
// the durable line: a record whose mask bit is cleared means the pop
// committed (report the pending block for adoption); a bit still set
// means it never happened. The record is cleared lazily, like
// clearOplog: the line's next flush carries the clear, and the next
// fence drains it, so a later crash never reports this block again. A
// remote free that writes no oplog line owes that fence before its
// first crash point (fenceOwed, fenceLazyClears).
func (s *slabHeap) magPop(ts *threadState, tid, class int) (Ptr, bool) {
	m := s.magAt(ts, class)
	if m == nil || m.mask == 0 {
		return 0, false
	}
	b := bits.TrailingZeros64(m.mask)
	idx := int(m.slab) - 1
	block := int(m.word)*64 + b
	meta := packMagMeta(idx, int(m.word), class)
	m.mask &^= 1 << uint(b)
	mw := s.magW(tid, class)
	late := s.h.cfg.LateHandoffRecord
	if !late {
		ts.cache.Store(mw, meta|magRecord(b))
	}
	ts.cache.Store(mw+1, m.mask)
	ts.cache.FlushOpt(mw)
	ts.cache.Fence()
	if late {
		ts.cache.Store(mw, meta|magRecord(b))
	}
	s.cp(tid, "magalloc.post-take")
	ts.cache.Store(mw, meta)
	ts.fenceOwed = true
	return s.ptrOf(idx, block, class), true
}

// magFree returns the blocks mask names in bitset word word of slab idx
// to the class magazine if the magazine covers that word: the whole run
// is one mask update, one store committed by its own fence, after which
// the free is durable. No record is needed (a completed pop's lazily
// cleared record shares the line, so this flush and fence commit the
// clear and reclamation never resurrects that pop). On a window miss it
// tries to re-target the magazine at the run's word (magAdopt) before
// falling back to the classic local free.
//
// A slab whose last allocated blocks return through the mask stays on
// the sized list with fc < total — deliberate retention, bounded at one
// bitset word per (thread, class): the next same-class alloc reuses the
// window without a protocol round, and DrainMagazines returns the
// blocks for callers that need the slab to complete its empty
// transition (harness drains, exact-footprint audits).
func (s *slabHeap) magFree(ts *threadState, tid, idx, class, word int, mask uint64) bool {
	m := s.magAt(ts, class)
	if m == nil || int(m.slab) != idx+1 || int(m.word) != word {
		return s.magAdopt(ts, m, tid, idx, class, word, mask)
	}
	if dup := m.mask & mask; dup != 0 {
		s.h.fail("%s heap: double free into magazine (slab %d block %d)", s.name, idx, firstBlock(word, dup))
	}
	if dup := ts.cache.Load(s.bitsetW(idx)+word) & mask; dup != 0 {
		s.h.fail("%s heap: double free of slab %d block %d (free in bitset, freed into magazine)",
			s.name, idx, firstBlock(word, dup))
	}
	m.mask |= mask
	mw := s.magW(tid, class)
	ts.cache.Store(mw+1, m.mask)
	ts.cache.FlushOpt(mw + 1)
	ts.cache.Fence()
	ts.fenceOwed = false
	s.cp(tid, "magfree.post-put")
	return true
}

// magAdopt re-targets the class magazine at the run's bitset word, so a
// burst of frees into a word the magazine no longer covers (threadtest's
// batch boundary: the mirror points at the most recently refilled word)
// becomes one window switch plus single-line magFrees instead of a
// classic protocol round per free.
//
// Policy: an empty magazine adopts any owned slab's word outright; a
// live window on the SAME slab is drained first when the run is one
// block (the common ping-pong between two words of one slab); a live
// window on another slab, or on the same slab under a run of several
// blocks, stays put. Cross-slab churn would thrash the window for no
// locality gain, and a drain's record names one pending block, not a
// run. The drain's record carries the in-flight free's block as
// pending (ver = block+1), exactly like the alloc-nested drain: the
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
func (s *slabHeap) magAdopt(ts *threadState, m *magSlot, tid, idx, class, word int, mask uint64) bool {
	if m != nil && m.mask != 0 {
		if int(m.slab) != idx+1 || mask&(mask-1) != 0 {
			return false
		}
		s.magDrain(ts, tid, class, firstBlock(word, mask))
	}
	if s.getFreeCount(ts, idx) == 0 {
		// Full (detached) slab: the classic path's rescue reattaches it.
		// Adopting here would break mask != 0 => free count >= 1, the
		// invariant that keeps magazine-backed slabs unstealable.
		return false
	}
	if dup := ts.cache.Load(s.bitsetW(idx)+word) & mask; dup != 0 {
		s.h.fail("%s heap: double free of slab %d block %d (free in bitset, adopted into magazine)",
			s.name, idx, firstBlock(word, dup))
	}
	mw := s.magW(tid, class)
	if v := ts.cache.Load(mw + 1); v != 0 {
		// Mirror empty but the durable line holds blocks: a prior
		// incarnation's magazine was never reclaimed (reattach without
		// recovery). Overwriting it would leak every masked block.
		s.h.fail("%s heap: adopt over a live magazine line for thread %d class %d (mask %#x)",
			s.name, tid, class, v)
	}
	ts.cache.Store(mw, packMagMeta(idx, word, class))
	ts.cache.Store(mw+1, mask)
	ts.cache.FlushOpt(mw)
	ts.cache.Fence()
	s.cp(tid, "magfree.post-adopt")
	mags := ts.mags[s.magIdx]
	if mags == nil {
		mags = make([]magSlot, len(s.classes))
		ts.mags[s.magIdx] = mags
	}
	mags[class] = magSlot{slab: int32(idx + 1), word: int16(word), mask: mask}
	return true
}

// magRefill privatizes one bitset word into the class magazine, from
// the owned slab that offers the most blocks (refillSource). Two-phase
// (DESIGN.md §7.2): phase 1 makes the record and the filled magazine
// line durable under one fence, phase 2 clears the privatized bits from
// the shared bitset and commits at a second fence. A crash between the
// phases leaves the blocks in both the mask and the bitset;
// reclamation's idempotent union resolves the overlap. The leave-one
// rule keeps the slab's free count >= 1, so a magazine-backed slab never
// reaches the full transition while its mask is live.
//
// Returns false (caller falls back to the classic path) when the sized
// list is empty or no slab on it can give a block beyond its last.
func (s *slabHeap) magRefill(ts *threadState, tid, class int) bool {
	idx, word, take := s.refillSource(ts, tid, class)
	if take == 0 {
		return false
	}
	base := s.bitsetW(idx)
	fc := s.getFreeCount(ts, idx)
	n := uint32(bits.OnesCount64(take))
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

// refillSource picks the slab magRefill privatizes from: of the slabs
// on tid's class sized list, the one whose first non-zero bitset word
// offers the largest take, where a word holding all of its slab's free
// blocks gives up its lowest one (the leave-one rule). Only each slab's
// first word is weighed, not its best: frees return to the word a
// window last covered, and moving the window off it costs more refills
// and drains than a fuller word saves (DESIGN.md §7.2). The walk reads
// lines the owner already holds; it stops at the first whole word it
// sees. take is 0 when no slab can give a block.
func (s *slabHeap) refillSource(ts *threadState, tid, class int) (idx, word int, take uint64) {
	total := s.blocksPer(class)
	words, whole := (total+63)/64, min(64, total-1)
	cur := ts.cache.Load(s.localW(tid, class))
	for steps := 0; cur != 0; steps++ {
		if steps > s.maxSlabs {
			s.h.fail("%s heap: sized list %d cycles", s.name, class)
		}
		i := int(cur - 1)
		base := s.bitsetW(i)
		w, v := -1, uint64(0)
		for j := 0; j < words; j++ {
			if v = ts.cache.Load(base + j); v != 0 {
				w = j
				break
			}
		}
		if w < 0 {
			s.h.fail("%s heap: full slab %d on sized list %d", s.name, i, class)
		}
		if uint32(bits.OnesCount64(v)) == s.getFreeCount(ts, i) {
			v &= v - 1
		}
		if n := bits.OnesCount64(v); n > bits.OnesCount64(take) {
			idx, word, take = i, w, v
			if n == whole {
				break
			}
		}
		cur = uint64(w0Next(s.loadW0(ts, i)))
	}
	return idx, word, take
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
// the crashed thread back into its slab's bitset, report an in-flight
// pop's block, then retire the line. A live line proves the slab was
// owned by the dead thread at the crash (see the invariants above), so
// the bitset write is single-writer. The union is idempotent with every
// crash window the protocol can leave: refill's pre-commit overlap
// re-sets bits that were never cleared, a completed drain's bits are
// re-set in place, and a committed pop's block is in neither set — its
// record, still durable with the mask bit cleared, names it as the
// pending allocation. The meta word is read even when the mask is 0:
// the pop that took the last block leaves exactly that line.
//
// A pending pop's record is the only durable name of its block, so it
// outlives this pass: only the mask is retired, and recovery clears the
// record at its commit point (retireMagRecords). A crash later in
// recovery re-runs this pass on a line with mask 0 and the record set,
// and reports the same block again. A record whose bit is still in the
// mask names no pending block, and is retired with the rest of the line.
func (s *slabHeap) reclaimMagazines(ts *threadState, tid int, report *RecoveryReport) {
	for class := 1; class < len(s.classes); class++ {
		mw := s.magW(tid, class)
		meta := ts.cache.LoadFresh(mw)
		mask := ts.cache.Load(mw + 1)
		rec := magMetaRecord(meta)
		if mask == 0 && rec == 0 {
			continue
		}
		idx := int(magMetaSlab(meta)) - 1
		word := magMetaWord(meta)
		if idx < 0 || magMetaClass(meta) != class || rec > 64 {
			s.h.fail("%s heap: corrupt magazine line for thread %d class %d (meta %#x)",
				s.name, tid, class, meta)
		}
		if w0Owner(s.loadW0(ts, idx)) != uint16(tid+1) {
			s.h.fail("%s heap: magazine of thread %d class %d references slab %d it does not own",
				s.name, tid, class, idx)
		}
		pending := rec != 0 && mask&(1<<uint(rec-1)) == 0
		if pending {
			s.pend(report, idx, word*64+rec-1, class)
		} else {
			ts.cache.Store(mw, 0)
		}
		wi := s.bitsetW(idx) + word
		ts.cache.Store(wi, ts.cache.Load(wi)|mask)
		ts.cache.Store(mw+1, 0)
		ts.cache.FlushOpt(mw)
		ts.cache.Fence()
	}
}

// retireMagRecords, recovery's commit point only: clear the pending
// pop's record that reclaimMagazines left in place. The caller's commit
// fence makes the clear durable together with the oplog clear, so the
// block, adopted once recovery returns, is never reported again.
func (s *slabHeap) retireMagRecords(ts *threadState, tid int) {
	for class := 1; class < len(s.classes); class++ {
		mw := s.magW(tid, class)
		if magMetaRecord(ts.cache.Load(mw)) != 0 {
			ts.cache.Store(mw, 0)
			ts.cache.FlushOpt(mw)
		}
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
