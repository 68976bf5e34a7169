package core

import (
	"errors"
	"fmt"

	"cxlalloc/internal/atomicx"
	"cxlalloc/internal/interval"
	"cxlalloc/internal/telemetry"
	"cxlalloc/internal/vas"
)

// ErrNotCrashed is returned by RecoverThread when the slot is alive —
// either it never crashed or an earlier Recover already brought it back.
// Callers distinguish "nothing to recover" from real recovery failures
// with errors.Is.
var ErrNotCrashed = errors.New("core: thread not crashed")

// RecoveryCrashPoints are the crash points instrumented inside
// RecoverThread itself, in execution order. A crash at any of them leaves
// the slot dead with its oplog record intact, and a second RecoverThread
// call converges (§3.4.2: every redo handler is idempotent and the record
// is only cleared after all rebuilds complete).
var RecoveryCrashPoints = []string{
	"recover.pre-redo",
	"recover.post-redo",
	"recover.post-rebuild-small",
	"recover.post-rebuild-large",
	"recover.post-rebuild-huge",
}

// Non-blocking recovery (§3.4.2). A crashed thread's slot is recovered
// by (in order):
//
//  1. Reading the thread's 8-byte recovery record and redoing the
//     in-flight operation idempotently, using detectable CAS to learn
//     whether its lock-free update became visible.
//  2. Rebuilding the thread's volatile and single-writer state from the
//     durable metadata: thread-local free lists are relinked from a
//     descriptor scan (repairing any transient inconsistency the crash
//     left, §3.4.1), free counts are recomputed from bitsets, the huge
//     interval set is reconstructed from the reservation array and the
//     descriptor list, and the descriptor pool from in-use bits.
//
// No other thread blocks at any point: every shared structure the
// crashed thread touched is lock-free and transitions atomically between
// consistent states, and recovery only writes to state it exclusively
// owns (plus idempotent completions of its own in-flight CAS).

// RecoveryReport describes what recovery found and did.
type RecoveryReport struct {
	TID int
	// Op is the in-flight operation's name ("none" for a clean crash).
	Op string
	// PendingAlloc is nonzero if the thread crashed between taking a
	// block (or linking a huge descriptor) and handing the pointer to
	// the application. The application decides whether to adopt or free
	// it — the paper's "App" recovery strategy (Table 1).
	PendingAlloc Ptr
	// PendingSize is the usable size of PendingAlloc.
	PendingSize int
}

// RecoverThread recovers crashed thread slot tid, rebinding it to space
// (the same process if it survived, or a restarted process's fresh
// space). It returns a report of what was in flight.
func (h *Heap) RecoverThread(tid int, space *vas.Space) (RecoveryReport, error) {
	return h.recoverThread(tid, space, ClaimToken{})
}

// RecoverThreadFenced is RecoverThread under a recovery claim: the
// repair only commits while tok still holds victim tid's claim word. If
// the claim was superseded — this claimant's own lease expired and
// another survivor took over — the attempt returns ErrFenced, leaves the
// slot dead, and writes nothing the winner's re-run does not rewrite.
func (h *Heap) RecoverThreadFenced(tid int, space *vas.Space, tok ClaimToken) (RecoveryReport, error) {
	if tok.zero() {
		return RecoveryReport{}, fmt.Errorf("core: RecoverThreadFenced needs a claim token")
	}
	return h.recoverThread(tid, space, tok)
}

// recoverThread serializes per-slot through recMu: a fenced loser and
// the superseding winner never interleave their recovery writes. This is
// Go-level serialization standing in for what real hardware gets from
// the fence check executing under the claim word's coherence point; the
// safety argument (DESIGN.md §6.2) is that a loser's writes are all
// idempotent redo derived from durable state, and the winner re-runs the
// same redo behind the lock.
func (h *Heap) recoverThread(tid int, space *vas.Space, tok ClaimToken) (RecoveryReport, error) {
	if tid < 0 || tid >= h.cfg.NumThreads {
		return RecoveryReport{}, fmt.Errorf("core: thread ID %d out of range", tid)
	}
	h.recMu[tid].Lock()
	defer h.recMu[tid].Unlock()
	old := &h.threads[tid]
	if !old.attached {
		return RecoveryReport{}, fmt.Errorf("core: thread %d was never attached", tid)
	}
	if old.alive {
		return RecoveryReport{}, fmt.Errorf("core: thread %d is alive: %w", tid, ErrNotCrashed)
	}
	// Trace the repair as a span on the recoverer's track (the claimant
	// for fenced recovery, the victim's own slot for direct Recover
	// calls); Event.A carries the victim.
	rtid := tid
	if !tok.zero() {
		rtid = tok.Claimant
	}
	if telemetry.Enabled() {
		telemetry.Emit(rtid, telemetry.EvRecoveryEnter, uint64(tid), 0)
	}
	if !tok.zero() && !h.ClaimHeldBy(tid, tok) {
		h.recoveriesFenced.Add(1)
		if telemetry.Enabled() {
			telemetry.Emit(rtid, telemetry.EvRecoveryExit, uint64(tid), telemetry.RecoveryFenced)
		}
		return RecoveryReport{}, ErrFenced
	}
	// Start cold: a fresh cache so recovery cannot observe the crashed
	// incarnation's stale lines, and continue the version sequence from
	// the flushed record so in-flight detectability is preserved. The
	// slot stays dead (alive=false) until recovery completes, so a crash
	// inside recovery leaves a slot that RecoverThread accepts again and
	// invariant checks skip.
	ts := &h.threads[tid]
	*ts = threadState{
		attached: true,
		cache:    h.dev.NewCache(),
		space:    space,
	}
	ts.cache.SetOwner(tid)
	rec := h.readOplog(tid, ts)
	op, a, b, ver := unpackOp(rec)
	if opCASBearing(op) {
		ts.ver = ver
	}
	h.crashPoint(tid, "recover.pre-redo")

	report := RecoveryReport{TID: tid, Op: opName(op)}
	h.redo(ts, tid, op, a, b, ver, &report)
	h.crashPoint(tid, "recover.post-redo")

	// Reclaim the dead incarnation's magazines before the list rebuild,
	// so the returned blocks are in the bitsets the rebuild scans
	// (magazine.go). Must follow redo: the opMagAlloc handler reads the
	// pre-reclaim mask to classify the in-flight pop.
	h.small.reclaimMagazines(ts, tid)
	h.large.reclaimMagazines(ts, tid)
	// The volatile mirrors died with the thread; anything they claimed is
	// back in the bitsets now, so a stale mirror surviving an in-process
	// recovery must not resurrect those masks.
	ts.mags = [2][]magSlot{}

	// Rebuild single-writer and volatile state.
	h.small.rebuildLocal(ts, tid)
	h.crashPoint(tid, "recover.post-rebuild-small")
	h.large.rebuildLocal(ts, tid)
	h.crashPoint(tid, "recover.post-rebuild-large")
	h.rebuildHuge(ts, tid)
	h.crashPoint(tid, "recover.post-rebuild-huge")
	if h.testHookPreCommit != nil {
		h.testHookPreCommit(tid)
	}

	// Fence check at the commit point: if the claim moved while we were
	// repairing, a superseding claimant owns this slot now. Drain this
	// attempt's cache — exactly what MarkCrashed would do — and leave the
	// slot dead; the winner re-runs the same idempotent recovery behind
	// recMu.
	if !tok.zero() && !h.ClaimHeldBy(tid, tok) {
		ts.cache.WritebackAll()
		h.recoveriesFenced.Add(1)
		if telemetry.Enabled() {
			telemetry.Emit(rtid, telemetry.EvRecoveryExit, uint64(tid), telemetry.RecoveryFenced)
		}
		return report, ErrFenced
	}

	// Mark the slot clean, then alive. The record is cleared only after
	// every redo and rebuild finished: re-running recovery up to this
	// point redoes the same idempotent work from the same record.
	ts.cache.Store(h.lay.oplogW(tid), packOp(opNone, 0, 0, 0))
	ts.cache.FlushOpt(h.lay.oplogW(tid))
	ts.cache.Fence()
	ts.alive = true
	h.recoveries.Add(1)
	if telemetry.Enabled() {
		telemetry.Emit(rtid, telemetry.EvRecoveryExit, uint64(tid), telemetry.RecoveryOK)
	}
	return report, nil
}

// redo idempotently completes (or safely abandons) the in-flight op.
func (h *Heap) redo(ts *threadState, tid, op int, a uint32, b uint16, ver uint16, report *RecoveryReport) {
	s := h.small
	if op&opLargeBit != 0 {
		s = h.large
	}
	switch op &^ opLargeBit {
	case opNone:

	case opExtend:
		if h.dcas.Succeeded(tid, ver, s.lenW) {
			idx := int(a)
			// The slab is ours and private; adopt it so the list rebuild
			// links it. (If adoption already happened, this rewrite is
			// equivalent.)
			s.storeW0(ts, idx, packW0(0, uint16(tid+1), 0))
			ts.space.Install(s.slabData(idx), uint64(s.slabSize))
		}

	case opPopGlobal:
		if h.dcas.Succeeded(tid, ver, s.freeW) {
			idx := int(a)
			if w0Owner(s.loadW0(ts, idx)) != uint16(tid+1) {
				// Popped but never adopted: claim it now.
				s.storeW0(ts, idx, packW0(0, uint16(tid+1), 0))
			}
		}

	case opPushGlobal:
		if !h.dcas.Succeeded(tid, ver, s.freeW) {
			// The slab is unlinked with ownership already cleared;
			// complete the push so it is not leaked.
			idx := int(a)
			h.dcas.Begin(tid, ver)
			for {
				headWord := h.dcas.Load(tid, s.freeW)
				s.setNext(ts, idx, atomicx.Payload(headWord))
				s.flushDesc(ts, idx)
				if h.dcas.CAS(tid, ver, s.freeW, headWord, uint32(idx+1)) {
					break
				}
			}
		}

	case opInit:
		// Initialization is private to the owner and no block can have
		// been handed out yet; rerun it wholesale.
		idx, class := int(a), int(b)
		total := s.blocksPer(class)
		s.storeW0(ts, idx, packW0(0, uint16(tid+1), uint8(class)))
		s.setFreeCount(ts, idx, uint32(total))
		s.fillBitset(ts, idx, total)
		h.dcas.Store(tid, s.hwBase+idx, uint32(total))

	case opDetach, opDisown:
		// List membership and ownership are repaired by the scan: it
		// classifies a full slab as detached (unlinked) whether or not
		// the transition finished, and a crash before the disown's
		// ownership clear safely degrades to a detach (§3.2.1's
		// semantics are preserved; the slab is still reclaimed by the
		// owner's future local frees). But the transition ran nested
		// inside alloc and its record overwrote the opAllocBlock
		// handoff record — ver carries the pending block as block+1.
		// If its bit is durably cleared, the block was taken but the
		// pointer never reached the application: report it for
		// adoption, exactly as the opAllocBlock redo would have. (The
		// slab cannot have been stolen meanwhile — stealing needs a
		// zero countdown, which needs every block remotely freed,
		// including this one that no application thread holds.) If the
		// bit instead reverted to free, the take never became durable
		// and the rebuild scan rolls the allocation back.
		if ver != 0 {
			idx, block, class := int(a), int(ver-1), int(b)
			if !s.blockBit(ts, idx, block) {
				report.PendingAlloc = s.ptrOf(idx, block, class)
				report.PendingSize = s.classes[class]
			}
		}

	case opAllocBlock:
		idx, block := int(a), int(b)
		w0 := s.loadW0(ts, idx)
		class := w0Class(w0)
		if class != 0 && w0Owner(w0) == uint16(tid+1) && !s.blockBit(ts, idx, block) {
			// The block was taken but the pointer never reached the
			// application: report it for app-level adoption.
			report.PendingAlloc = s.ptrOf(idx, block, class)
			report.PendingSize = s.classes[class]
		}

	case opLocalFree:
		idx, block := int(a), int(b)
		if !s.blockBit(ts, idx, block) {
			s.setBlockBit(ts, idx, block, true)
		}
		// Counts and list membership are repaired by the scan.

	case opEmpty:
		// List membership and class are repaired by the scan.

	case opRemoteFree:
		// b blocks were freed as one decrement (slabHeap.remoteFree).
		idx, n := int(a), uint32(b)
		cw := h.dcas.Load(tid, s.hwBase+idx)
		if h.dcas.Succeeded(tid, ver, s.hwBase+idx) {
			if atomicx.Payload(cw) == 0 {
				h.redoSteal(ts, tid, s, idx)
			}
		} else {
			// The free never landed; complete it (the application has
			// already logically freed these blocks).
			for {
				cnt := atomicx.Payload(cw)
				if cnt < n {
					h.fail("%s heap: recovery remote free of %d blocks into slab %d with countdown %d",
						s.name, n, idx, cnt)
				}
				h.dcas.Begin(tid, ver)
				if h.dcas.CAS(tid, ver, s.hwBase+idx, cw, cnt-n) {
					if cnt == n {
						h.redoSteal(ts, tid, s, idx)
					}
					break
				}
				cw = h.dcas.Load(tid, s.hwBase+idx)
			}
		}

	case opSteal:
		h.redoSteal(ts, tid, s, int(a))

	case opMagRefill:
		// Either phase may have committed. Nothing to redo in place:
		// reclaimMagazines unions whatever mask became durable back into
		// the bitset (idempotent against the pre-commit overlap window),
		// and the rebuild scan recomputes the free count.

	case opMagAlloc:
		// The pop's record and mask-clear commit under one fence. If the
		// durable mask still has the block's bit, the pop never happened
		// (reclamation returns it); if the bit is cleared, the block was
		// taken but the pointer never reached the application — report it
		// for adoption, like opAllocBlock.
		idx, block, class := int(a), int(b), int(ver)
		maskW := s.magW(tid, class) + 1
		mask := ts.cache.LoadFresh(maskW)
		if mask&(1<<(uint(block)%64)) == 0 {
			report.PendingAlloc = s.ptrOf(idx, block, class)
			report.PendingSize = s.classes[class]
		}

	case opMagDrain:
		// The union itself is repaired by reclamation (bits still in the
		// durable mask re-union; a committed drain's cleared mask is a
		// no-op). Like opDetach, a nested drain's record carries the
		// in-flight block as ver = block+1 — the classic alloc's take when
		// the drain ran inside a full transition, or the block being freed
		// when it ran inside magFree's window re-target. Either way the
		// crash left the block's pointer with the application: report it
		// for adoption unless it is durably free — in the bitset, or
		// re-unionable because the durable magazine window still covers
		// its word and holds its bit. The word check matters: testing the
		// bit position alone against a mask covering a different word
		// would spuriously suppress the report on positional collisions.
		if ver != 0 {
			idx, block := int(a), int(ver-1)
			class := int(b >> 8)
			mw := s.magW(tid, class)
			meta := ts.cache.LoadFresh(mw)
			mask := ts.cache.LoadFresh(mw + 1)
			covered := int(magMetaSlab(meta))-1 == idx &&
				magMetaWord(meta) == block/64 &&
				mask&(1<<(uint(block)%64)) != 0
			if !s.blockBit(ts, idx, block) && !covered {
				report.PendingAlloc = s.ptrOf(idx, block, class)
				report.PendingSize = s.classes[class]
			}
		}

	case opReserve:
		// Region ownership is rebuilt from the reservation array scan.

	case opHugeAlloc:
		h.redoHugeAlloc(ts, tid, int(b), report)

	case opHugeFree:
		h.redoHugeFree(ts, tid, int(b), uint64(a)*uint64(PageSize), ver)

	case opHugeUnmap:
		h.redoHugeUnmap(ts, tid, int(b), uint64(a)*uint64(PageSize))

	case opHugeReclaim:
		h.redoHugeReclaim(ts, tid, int(b), uint64(a)*uint64(PageSize))

	case opClaim:
		// The thread died between claiming victim a's recovery and
		// releasing the claim. If the claim word still carries our
		// (claimant, generation) pair, release it so another survivor can
		// take over — recovery of the recoverer. If it was superseded or
		// already released, the exact-payload check makes this a no-op.
		victim := int(a)
		w := h.claimW(victim)
		cur := h.dcas.Load(tid, w)
		if atomicx.Payload(cur) == packClaim(tid, b) {
			h.dcas.Begin(tid, ver)
			h.dcas.CAS(tid, ver, w, cur, packClaim(-1, b))
		}

	default:
		h.fail("recovery: unknown op %d in thread %d's record", op, tid)
	}
}

// redoSteal ensures a fully remotely freed slab ends up owned by tid.
// Only the thread whose decrement reached zero ever steals, so this
// write is exclusive.
func (h *Heap) redoSteal(ts *threadState, tid int, s *slabHeap, idx int) {
	s.flushDesc(ts, idx)
	if w0Owner(s.loadW0(ts, idx)) != uint16(tid+1) {
		s.storeW0(ts, idx, packW0(0, uint16(tid+1), 0))
	} else {
		// Already adopted pre-crash; normalize to unsized (the scan
		// links owner==tid, class==0 slabs into the unsized list).
		s.setOwnerClass(ts, idx, uint16(tid+1), 0)
	}
	// Overwrite the old owner's detach-published w0 on the device, as
	// steal itself does — a crash between the countdown decrement and
	// steal's durable clear must not leave owner==old-owner fetchable.
	s.flushDesc(ts, idx)
	// steal hands the slab to pushUnsized, which spills past the
	// threshold. The rebuild scan links every owned classless slab and
	// spills nothing, so spill here as that push would have.
	if s.ownedUnsized(ts, tid, idx) >= h.cfg.UnsizedThreshold {
		s.pushGlobal(ts, tid, idx)
	}
}

// ownedUnsized counts tid's classless slabs other than idx: what the
// rebuild scan will link into tid's unsized list.
func (s *slabHeap) ownedUnsized(ts *threadState, tid, idx int) (n int) {
	me := uint16(tid + 1)
	for j := 0; j < int(s.length(tid)); j++ {
		if w0 := s.loadW0(ts, j); j != idx && w0Owner(w0) == me && w0Class(w0) == 0 {
			n++
		}
	}
	return n
}

func (h *Heap) redoHugeAlloc(ts *threadState, tid, id int, report *RecoveryReport) {
	w0 := h.hugeLoad(ts, h.descW(id, hdNext))
	if w0&hdInUseBit == 0 {
		return // never published; the pool rebuild reclaims the slot
	}
	// In use: linked or not?
	off := h.hugeLoad(ts, h.descW(id, hdOffset))
	if _, found := h.findDesc(ts, tid, off); found {
		// Fully allocated but the pointer may not have reached the
		// application; report for adoption.
		report.PendingAlloc = off
		report.PendingSize = int(h.hugeLoad(ts, h.descW(id, hdSize)))
		return
	}
	// Initialized but never linked: roll back (the application never saw
	// the pointer, and unlinked descriptors are invisible to others).
	// The hazard may have been published between the descriptor write
	// and the link; retire it too.
	h.removeHazard(ts, tid, off)
	h.hugeStore(ts, h.descW(id, hdNext), hdGenField(hdGen(w0)))
}

// redoHugeFree completes an interrupted free, but only against the same
// descriptor incarnation the free targeted: a freeing thread holds no
// hazard for offsets it never mapped, so once the free bit landed the
// owner may reclaim AND reuse the descriptor while this slot is dead.
// The recorded generation detects that — on mismatch the free already
// completed and the redo must leave the new allocation alone.
func (h *Heap) redoHugeFree(ts *threadState, tid, id int, off uint64, gen uint16) {
	w0 := h.hugeLoad(ts, h.descW(id, hdNext))
	if w0&hdInUseBit != 0 && hdGen(w0) == gen && h.hugeLoad(ts, h.descW(id, hdOffset)) == off {
		size := h.hugeLoad(ts, h.descW(id, hdSize))
		if h.hugeLoad(ts, h.descW(id, hdFree)) == 0 {
			h.hugeStore(ts, h.descW(id, hdFree), 1)
		}
		ts.space.Unmap(off, size)
	}
	// Whether or not the descriptor was already reclaimed (and possibly
	// reused), our own hazard for the freed offset must go; reclamation
	// cannot have happened while it was published, so this is safe.
	h.removeHazard(ts, tid, off)
}

func (h *Heap) redoHugeUnmap(ts *threadState, tid, id int, off uint64) {
	w0 := h.hugeLoad(ts, h.descW(id, hdNext))
	if w0&hdInUseBit != 0 && h.hugeLoad(ts, h.descW(id, hdOffset)) == off {
		ts.space.Unmap(off, h.hugeLoad(ts, h.descW(id, hdSize)))
	}
	h.removeHazard(ts, tid, off)
}

func (h *Heap) redoHugeReclaim(ts *threadState, tid, id int, off uint64) {
	w0 := h.hugeLoad(ts, h.descW(id, hdNext))
	if w0&hdInUseBit == 0 {
		return // reclamation completed
	}
	if h.hugeLoad(ts, h.descW(id, hdOffset)) != off ||
		h.hugeLoad(ts, h.descW(id, hdFree)) == 0 {
		return // descriptor already reused for a new allocation
	}
	// Complete: unlink if still linked, then clear the in-use bit
	// (keeping the generation). The interval rebuild will see the slot
	// as free space.
	h.hugeUnlink(ts, tid, id)
	h.hugeStore(ts, h.descW(id, hdNext), hdGenField(hdGen(w0)))
}

// hugeUnlink removes descriptor id from tid's list if present.
func (h *Heap) hugeUnlink(ts *threadState, tid, id int) {
	prevW := h.hugeHeadW(tid)
	cur := h.hugeLoad(ts, prevW)
	for steps := 0; uint32(cur) != 0 && steps <= h.cfg.DescsPerThread; steps++ {
		curID := int(uint32(cur)) - 1
		next := h.hugeLoad(ts, h.descW(curID, hdNext))
		if curID == id {
			prev := h.hugeLoad(ts, prevW)
			h.hugeStore(ts, prevW, prev&^uint64(1<<32-1)|uint64(uint32(next)))
			return
		}
		prevW = h.descW(curID, hdNext)
		cur = next
	}
}

// rebuildLocal relinks thread tid's free lists from a descriptor scan,
// recomputing free counts from bitsets. It repairs every transient
// inconsistency a crash can leave in single-writer state (§3.4.1):
//
//   - owner == tid, class == 0           -> unsized list
//   - owner == tid, class != 0, free > 0 -> sized[class] list
//   - owner == tid, class != 0, free == 0 -> detached (stays unlinked)
//
// A slab being concurrently stolen is excluded automatically: a thief
// only takes fully remotely freed slabs, whose bitsets show zero free
// blocks in memory, which classifies them as detached here.
func (s *slabHeap) rebuildLocal(ts *threadState, tid int) {
	for c := 0; c < len(s.classes); c++ {
		ts.cache.Store(s.localW(tid, c), 0)
	}
	length := int(s.length(tid))
	me := uint16(tid + 1)
	for idx := 0; idx < length; idx++ {
		w0 := s.loadW0(ts, idx)
		if w0Owner(w0) != me {
			// Not ours. Evict the line the classification just fetched:
			// keeping it resident would pin a copy that goes stale when
			// the slab changes hands, and §3.2.2's stale-read analysis
			// only tolerates stale *remote* routing — a pinned copy from
			// a past incarnation with owner==me would misroute a future
			// free of the new incarnation down the local path.
			s.flushDesc(ts, idx)
			continue
		}
		class := w0Class(w0)
		if class == 0 {
			s.tlPush(ts, s.localW(tid, 0), idx)
			continue
		}
		total := s.blocksPer(class)
		fc := s.popcount(ts, idx, total)
		s.setFreeCount(ts, idx, fc)
		if fc == 0 {
			// Detached: stays unlinked. Re-establish detach's eviction
			// discipline — publish the recomputed count and drop our
			// copy, so a thief's durable owner-clear is re-fetched by
			// our next read instead of shadowed by this resident line.
			s.flushDesc(ts, idx)
			continue
		}
		s.tlPush(ts, s.localW(tid, class), idx)
	}
}

// rebuildHuge reconstructs tid's volatile huge state deterministically
// from the reservation array and descriptor pool (§3.4.2): owned regions
// form the free set, live descriptors carve out their ranges, unreachable
// live descriptors are relinked (minimal mutation: concurrent readers of
// the list never observe a broken chain), and the pool free list is the
// complement of the in-use bits.
func (h *Heap) rebuildHuge(ts *threadState, tid int) {
	ts.hugeFree = interval.Set{}
	for r := 0; r < h.cfg.NumReservations; r++ {
		if atomicx.Payload(h.dcas.Load(tid, h.reservW(r))) == uint32(tid+1) {
			ts.hugeFree.Add(h.regionOff(r), h.cfg.HugeRegionSize)
		}
	}
	// Mark list-reachable descriptors.
	reachable := make(map[int]bool)
	cur := h.hugeLoad(ts, h.hugeHeadW(tid))
	for steps := 0; uint32(cur) != 0 && steps <= h.cfg.DescsPerThread; steps++ {
		id := int(uint32(cur)) - 1
		reachable[id] = true
		cur = h.hugeLoad(ts, h.descW(id, hdNext))
	}
	for slot := 0; slot < h.cfg.DescsPerThread; slot++ {
		id := tid*h.cfg.DescsPerThread + slot
		w0 := h.hugeLoad(ts, h.descW(id, hdNext))
		if w0&hdInUseBit == 0 {
			continue
		}
		off := h.hugeLoad(ts, h.descW(id, hdOffset))
		size := h.hugeLoad(ts, h.descW(id, hdSize))
		if !ts.hugeFree.AllocAt(off, size) {
			h.fail("huge heap: recovery found overlapping descriptors at %#x", off)
		}
		if !reachable[id] {
			// Relink at the head; a single head store keeps the list
			// well-formed for concurrent walkers. Keep the generation.
			head := h.hugeLoad(ts, h.hugeHeadW(tid))
			h.hugeStore(ts, h.descW(id, hdNext),
				uint64(uint32(head))|hdInUseBit|hdGenField(hdGen(w0)))
			h.hugeStore(ts, h.hugeHeadW(tid), uint64(id+1))
			reachable[id] = true
		}
	}
	h.rebuildDescPool(ts, tid)
}
