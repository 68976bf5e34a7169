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
// reattaches a full slab at the head with only a few blocks free. A
// window opens only when allocating: a refill opens it, from a fresh
// slab too when the sized list is empty (slabHeap.alloc), and a Free
// outside it takes the classic local free.
//
// The magazine line is a durable ownership record, exactly like the
// oplog: word 0 packs the source slab, bitset word, class, and the
// in-flight pop's handoff record; word 1 is the mask of privatized free
// blocks; words 2..7 hold up to three runs of the thread's own blocks
// that the pop frees with it (carry), or that a local free commits in
// the line of its first run's class (Heap.localFree), and are zero
// between operations: they are the only record of those frees.
// Crash-time reclamation redoes the runs and unions a dead thread's
// masks back into the slab bitsets during recovery (reclaimMagazines),
// and the drain-time ledger audit counts magazine blocks as free
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
//     which point the mask is provably zero; both transitions fail on
//     a live one.
//
// Magazines run exactly on an incoherent, recoverable heap, fixed when
// NewHeap builds it (the coherent pod has no flush/fence protocol cost
// to avoid, and keeping the DRAM path byte-identical keeps fig12's DRAM
// baseline honest). There the classic take runs only when no window
// can give a block: a slab's last block (the leave-one rule) or a class
// of one block per slab.

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

// magsEnabled gates the magazine fast path: an incoherent device with
// the recovery protocol on (Heap.mags). NonRecoverable turns magazines
// off because their entire value is amortizing durability traffic —
// with no oplog flushes or fences to coalesce, the classic path runs on
// cached stores alone and a magazine line's flush+fence would be pure
// added cost.
func (h *Heap) magsEnabled() bool { return h.mags }

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
// means it never happened. (A pop that a refill folded into its own
// line is pending only once its block is also clear in the durable
// bitset: magRefill, reclaimMagazines.) The record is cleared lazily,
// like clearOplog: the line's next flush carries the clear, and the
// next fence drains it, so a later crash never reports this block
// again. A remote free that writes no oplog line owes that fence before
// its first crash point (fenceOwed, fenceLazyClears).
//
// The line carries up to maxLocalGroup of ps's runs of tid's own
// blocks, freed under the same flush and fence (carry); ps is nil for
// an allocation that carries nothing.
func (s *slabHeap) magPop(ts *threadState, tid, class int, ps *[]Ptr) (Ptr, bool) {
	m := s.magAt(ts, class)
	if m == nil || m.mask == 0 {
		return 0, false
	}
	nr := s.h.carry(ts, tid, ps)
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
	if nr > 0 {
		storeRuns(ts, mw+2, ts.carried[:nr])
	}
	ts.cache.FlushOpt(mw)
	ts.cache.Fence()
	if late {
		ts.cache.Store(mw, meta|magRecord(b))
	}
	s.cp(tid, "magalloc.post-take")
	if nr > 0 {
		s.h.settleCarried(ts, tid, mw, ts.carried[:nr], ps)
	}
	ts.cache.Store(mw, meta)
	ts.fenceOwed = true
	return s.ptrOf(idx, block, class), true
}

// carry takes up to maxLocalGroup runs of tid's own blocks off the tail
// of *ps, which is sorted, for the magazine line an allocation is about
// to write (Heap.AllocFreeing): each run is the blocks of one bitset
// word of a slab tid owns, in either heap. It stops at the first pointer
// that is huge or in a slab tid does not own, which a FreeBatch frees
// later, and at the first that breaks the order: a list a crash left
// half-rotated is carried only as far as it is still sorted, so no two
// runs share a word. Each run is checked as localFree checks it, then
// every run is cut out of *ps before the line is stored, as freeGroup
// cuts a group before its record; the cut pointers stay just past *ps's
// new length, the last run first. It returns how many runs it put in
// ts.carried.
func (h *Heap) carry(ts *threadState, tid int, ps *[]Ptr) int {
	if ps == nil || len(*ps) == 0 {
		return 0
	}
	return h.carryRuns(ts, tid, ps)
}

// carryRuns is carry's body, apart so that carry inlines into every pop
// and one that carries nothing pays no call.
func (h *Heap) carryRuns(ts *threadState, tid int, ps *[]Ptr) int {
	runs := &ts.carried
	v := *ps
	n, top := 0, len(v)
	for n < maxLocalGroup && top > 0 {
		p := v[top-1]
		s := h.slabHeapOf(p)
		if s == nil || top < len(v) && p >= v[top] {
			break
		}
		idx := s.slabOf(p)
		w0 := s.routeW0(ts, idx)
		class := w0Class(w0)
		if w0Owner(w0) != uint16(tid+1) || class == 0 {
			break
		}
		base := s.ptrOf(idx, s.blockOf(p, idx, class)&^63, class)
		k := 1
		for k < top && v[top-1-k] >= base && v[top-1-k] <= v[top-k] {
			k++
		}
		runs[n] = s.runOf(idx, w0, v[top-k:top])
		n, top = n+1, top-k
	}
	h.checkRuns(ts, runs[:n])
	*ps = v[:top]
	return n
}

// storeRuns stores runs in a magazine line from its SWcc word w, the
// line's word 2, on, two words each: packOp(heap's opLocalFree, slab,
// bitset word, 0), then the mask. A pop or refill stores the runs it
// carries (carry), a local free its group (Heap.localFree).
func storeRuns(ts *threadState, w int, runs []classicRun) {
	for i, r := range runs {
		ts.cache.Store(w+2*i, packOp(r.s.opc(opLocalFree), uint32(r.idx), uint16(r.word), 0))
		ts.cache.Store(w+1+2*i, r.mask)
	}
}

// settleRuns completes the runs magazine line mw committed, after the
// line's fence and the point that follows it (a pop's or refill's
// magalloc.post-take, localFree's local-free.post-oplog): each run's
// bitset word and free count land, detached slabs reattach, and then
// the empty transitions run. The run words are cleared before the
// first empty transition, with no crash point between: its record's
// fence makes the clear durable before the slab can leave tid, so a
// stale run is never redone into a slab another thread owns
// (redoCarried fails on one). Otherwise the clear is lazy, and it owes
// the publish guard's fence (fenceOwed): a remote free that writes no
// oplog line fences nothing, so a crash in it could persist the
// cleared run words but drop the bitset words they committed, and the
// free would be lost. mw is -1 when no run words were stored
// (NonRecoverable).
func (h *Heap) settleRuns(ts *threadState, tid, mw int, runs []classicRun) {
	h.landRuns(ts, tid, runs)
	h.reattachRuns(ts, tid, runs)
	if mw >= 0 {
		for i := range runs {
			ts.cache.Store(mw+2+2*i, 0)
			ts.cache.Store(mw+3+2*i, 0)
		}
		ts.fenceOwed = true
	}
	if h.emptyRuns(ts, tid, runs) {
		h.clearOplog(tid, ts)
	}
}

// settleCarried settles the runs a pop or refill carried in line mw,
// then counts their pointers, which are just past *ps's length (carry).
// The pop's record is cleared after this, as lazily as the runs: until
// then a crash reports the popped block, whatever transition it
// interrupts.
func (h *Heap) settleCarried(ts *threadState, tid, mw int, runs []classicRun, ps *[]Ptr) {
	h.settleRuns(ts, tid, mw, runs)
	cut := (*ps)[len(*ps):cap(*ps)]
	for i := len(runs) - 1; i >= 0; i-- {
		h.countRun(tid, runs[i], cut[:runs[i].n])
		cut = cut[runs[i].n:]
	}
}

// magFree returns Free's block, r, to the class magazine if the
// magazine covers its bitset word: one mask update, one store committed
// by its own fence, after which the free is durable. It checks r as
// every free of tid's own blocks is checked (checkRuns), so a double
// free fails with one message whichever path freed the block first.
// No record is
// needed (a completed pop's lazily cleared record shares the line, so
// this flush and fence commit the clear and reclamation never
// resurrects that pop). On a window miss it reports false and the
// caller takes the classic local free: a window opens only when
// allocating (magRefill). Only Free comes here: a FreeBatch run joins a
// group of up to maxLocalGroup runs that one magazine line's words 2..7
// commit (Heap.localFree), where each would pay a line of its own here
// (DESIGN.md §7.3), and leaves the window's mask as it is. A Free
// outside the window writes the same class line, as a one-run group.
//
// A slab whose last allocated blocks return through the mask stays on
// the sized list with fc < total — deliberate retention, bounded at one
// bitset word per (thread, class): the next same-class alloc reuses the
// window without a protocol round, and DrainMagazines returns the
// blocks for callers that need the slab to complete its empty
// transition (harness drains, exact-footprint audits). Blocks a batch
// frees land in the bitset, so only Free's frees are retained this way.
func (s *slabHeap) magFree(ts *threadState, tid int, r classicRun) bool {
	idx, class, word, mask := r.idx, r.class, r.word, r.mask
	m := s.magAt(ts, class)
	if m == nil || int(m.slab) != idx+1 || int(m.word) != word {
		return false
	}
	s.h.checkRuns(ts, []classicRun{r})
	m.mask |= mask
	mw := s.magW(tid, class)
	ts.cache.Store(mw+1, m.mask)
	ts.cache.FlushOpt(mw + 1)
	ts.cache.Fence()
	ts.fenceOwed = false
	s.cp(tid, "magfree.post-put")
	return true
}

// magRefill privatizes one bitset word into the class magazine, from
// the owned slab that offers the most blocks (refillSource), and pops
// the lowest of them for the alloc it was made for. Two-phase
// (DESIGN.md §7.2): phase 1 makes the filled magazine line durable
// under one fence, phase 2 clears the privatized bits from the shared
// bitset and commits at a second fence. The magazine line is phase 1's
// record, so the oplog is not written, and it carries the pop too: its
// mask is the taken blocks minus the popped one, and its record byte
// names the popped block, exactly as magPop's line would. So one flush
// and one fence commit both the refill and the pop.
//
// A crash before phase 1's fence leaves nothing of the refill durable
// but bitset and count stores the rebuild scan recomputes. After it,
// reclamation's idempotent union resolves the overlap of mask and
// bitset, and the record names a pending block only once its bit is
// clear in the durable bitset (reclaimMagazines): while phase 2 has not
// landed, the popped block is still free there and Alloc never
// returned. Phase 1's fence also opens the op for the publish guard
// (oplog.go). The leave-one rule keeps the slab's free count >= 1, so a
// magazine-backed slab never reaches the full transition while its mask
// is live.
//
// Like a pop's line, phase 1's carries up to maxLocalGroup of ps's
// runs (carry), which land after phase 2.
//
// ok is false (the caller falls back to the classic path) when the
// sized list is empty or no slab on it can give a block beyond its last.
func (s *slabHeap) magRefill(ts *threadState, tid, class int, ps *[]Ptr) (Ptr, bool) {
	idx, word, take := s.refillSource(ts, tid, class)
	if take == 0 {
		return 0, false
	}
	nr := s.h.carry(ts, tid, ps)
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
	b := bits.TrailingZeros64(take)
	mask := take &^ (1 << uint(b))
	meta := packMagMeta(idx, word, class)
	rec, late := magRecord(b), s.h.cfg.LateHandoffRecord
	if late {
		rec = 0
	}
	ts.cache.Store(mw, meta|rec)
	ts.cache.Store(mw+1, mask)
	if nr > 0 {
		storeRuns(ts, mw+2, ts.carried[:nr])
	}
	ts.cache.FlushOpt(mw)
	ts.cache.Fence()
	ts.fenceOwed = false
	s.cp(tid, "magrefill.post-oplog")
	// Phase 2: the magazine line is durable; remove the privatized
	// blocks, the popped one included, from the shared ledger. These two
	// lines are the open crash window the persist sweep attacks at
	// magrefill.pre-commit — any dropped subset is repaired by
	// reclamation's union, and the record is pending only if the bitset
	// line landed.
	ts.cache.Store(base+word, ts.cache.Load(base+word)&^take)
	s.setFreeCount(ts, idx, fc-n)
	s.cp(tid, "magrefill.pre-commit")
	ts.cache.Fence()
	if late {
		// The mutant stores the record after the pop's last fence, as
		// magPop's does.
		ts.cache.Store(mw, meta|magRecord(b))
	}
	s.cp(tid, "magalloc.post-take")
	mags := ts.mags[s.magIdx]
	if mags == nil {
		mags = make([]magSlot, len(s.classes))
		ts.mags[s.magIdx] = mags
	}
	mags[class] = magSlot{slab: int32(idx + 1), word: int16(word), mask: mask}
	if nr > 0 {
		s.h.settleCarried(ts, tid, mw, ts.carried[:nr], ps)
	}
	ts.cache.Store(mw, meta)
	ts.fenceOwed = true
	return s.ptrOf(idx, word*64+b, class), true
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

// magDrain returns the class magazine's blocks to their slab. No block
// is in flight, so its record carries no pending block.
func (s *slabHeap) magDrain(ts *threadState, tid, class int) {
	m := s.magAt(ts, class)
	idx := int(m.slab) - 1
	word := int(m.word)
	s.h.writeOplog(tid, ts, s.opc(opMagDrain), uint32(idx), uint16(class), 0)
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
	// The drain can complete the slab (every block outside the magazine
	// was already free); hand it back through the normal transition.
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
			s.magDrain(ts, tid, class)
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
// A record names a pending block only if that block is clear in the
// durable bitset too. A refill writes its first pop's record with its
// own phase 1 (magRefill), before phase 2 takes the block out of the
// bitset; a crash between the two leaves the block free there, and
// Alloc never returned, so the block stays free and is not reported.
// The check never changes an ordinary pop's outcome: its block was in
// the mask, so it is clear in the bitset until a later free of it, and
// that free's fence drains the pop's lazily cleared record first.
//
// A pending pop's record is the only durable name of its block, so it
// outlives this pass: only the mask is retired, and recovery clears the
// record at its commit point (retireMagRecords). A crash later in
// recovery re-runs this pass on a line with mask 0 and the record set,
// and reports the same block again. A record whose bit is still in the
// mask names no pending block, and is retired with the rest of the line.
//
// A durable line's runs, carried by a pop or refill or committed by a
// local free, are redone first: this is the one place recovery redoes
// a thread's own local frees. Each run's mask is ORed into its bitset
// word, which is idempotent, and the run words are retired with the
// mask. Counts and lists are the rebuild scan's to repair.
func (s *slabHeap) reclaimMagazines(ts *threadState, tid int, report *RecoveryReport) {
	for class := 1; class < len(s.classes); class++ {
		mw := s.magW(tid, class)
		meta := ts.cache.LoadFresh(mw)
		mask := ts.cache.Load(mw + 1)
		rec := magMetaRecord(meta)
		if s.h.redoCarried(ts, tid, mw) && mask == 0 && rec == 0 {
			ts.cache.FlushOpt(mw)
			ts.cache.Fence()
			continue
		}
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
		pending := rec != 0 && mask&(1<<uint(rec-1)) == 0 && !s.blockBit(ts, idx, word*64+rec-1)
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

// redoCarried, recovery only: OR the mask of every run durable in tid's
// magazine line mw into its bitset word, then clear the run's words,
// unflushed; it reports whether the line held any run. A durable run's
// slab is one tid owns, with a class: settleRuns clears the run before
// the slab can leave tid, so a run naming any other slab is stale, and
// redoing it would free blocks of a slab that is not tid's.
func (h *Heap) redoCarried(ts *threadState, tid, mw int) bool {
	found := false
	for i := 0; i < maxLocalGroup; i++ {
		w := mw + 2 + 2*i
		op, a, b, _ := unpackOp(ts.cache.Load(w))
		if op == opNone {
			continue
		}
		s := h.small
		if op&opLargeBit != 0 {
			s = h.large
		}
		idx, word := int(a), int(b)
		if op&^opLargeBit != opLocalFree || idx >= s.maxSlabs {
			h.fail("recovery: run %d of thread %d's magazine line names op %d, slab %d", i, tid, op, idx)
		}
		if w0 := s.loadW0(ts, idx); w0Owner(w0) != uint16(tid+1) || w0Class(w0) == 0 {
			h.fail("%s heap: thread %d's magazine line carries a run of slab %d, which it does not hold (owner %d, class %d)",
				s.name, tid, idx, int(w0Owner(w0))-1, w0Class(w0))
		}
		wi := s.bitsetW(idx) + word
		ts.cache.Store(wi, ts.cache.Load(wi)|ts.cache.Load(w+1))
		ts.cache.Store(w, 0)
		ts.cache.Store(w+1, 0)
		found = true
	}
	return found
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
