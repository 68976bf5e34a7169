package core

import (
	"fmt"

	"cxlalloc/internal/atomicx"
)

// slabHeap implements the paper's small heap (§3.1.1, Figures 3 and 4);
// the large heap is the same machine with different geometry.
//
// The data region is divided into fixed-size slabs. Each slab has two
// descriptors: an SWcc descriptor (next link, owner, class, free bitset,
// free count) written only by the slab's owner under the §3.2.2 flush
// discipline, and a single HWcc word holding the remote-free countdown
// (2 B of information, stored in an 8 B tagged word to support
// detectable CAS — exactly the 2 B → 8 B growth the paper reports).
//
// Slab states (Figure 4) are represented implicitly:
//
//	unmapped:   index >= heap length
//	global:     linked from the global free-list head (owner 0)
//	TL unsized: linked from the owner's unsized head (owner set, class 0)
//	TL sized:   linked from the owner's sized[class] head (non-full)
//	detached:   full, owner set, unlinked
//	disowned:   full, owner 0, unlinked
type slabHeap struct {
	h        *Heap
	name     string
	slabSize int
	classes  []int // class -> block size; class 0 reserved
	maxSlabs int

	lenW, freeW, hwBase int // HWcc words

	localBase, localStride            int // SWcc per-thread list heads
	descBase, descStride, bitsetWords int // SWcc descriptors
	dataOff                           uint64
	opBit                             int // opLargeBit for the large heap

	magBase int // SWcc magazine lines (magazine.go)
	magIdx  int // threadState.mags index for this heap
}

// --- geometry helpers ---

func (s *slabHeap) localW(tid, class int) int {
	return s.localBase + tid*s.localStride + class
}

func (s *slabHeap) descW0(idx int) int  { return s.descBase + idx*s.descStride }
func (s *slabHeap) descW1(idx int) int  { return s.descW0(idx) + 1 }
func (s *slabHeap) bitsetW(idx int) int { return s.descW0(idx) + 2 }

func (s *slabHeap) blocksPer(class int) int { return s.slabSize / s.classes[class] }

func (s *slabHeap) slabOf(p Ptr) int {
	return int((p - s.dataOff) / uint64(s.slabSize))
}

func (s *slabHeap) slabData(idx int) uint64 {
	return s.dataOff + uint64(idx)*uint64(s.slabSize)
}

func (s *slabHeap) ptrOf(idx, block, class int) Ptr {
	return s.slabData(idx) + uint64(block)*uint64(s.classes[class])
}

func (s *slabHeap) blockOf(p Ptr, idx, class int) int {
	return int((p - s.slabData(idx)) / uint64(s.classes[class]))
}

func (s *slabHeap) opc(op int) int { return op | s.opBit }

// cp fires a crash point named "<heap>.<suffix>". The injector check
// comes first so the hot path never pays for the name concatenation.
func (s *slabHeap) cp(tid int, suffix string) {
	if s.h.cfg.Crash == nil {
		return
	}
	s.h.cfg.Crash.Point(tid, s.name+"."+suffix)
}

// --- descriptor word 0: [ next+1 : 32 | owner+1 : 16 | class : 8 | - : 8 ]

func packW0(next uint32, owner uint16, class uint8) uint64 {
	return uint64(next) | uint64(owner)<<32 | uint64(class)<<48
}

func w0Next(w uint64) uint32  { return uint32(w) }
func w0Owner(w uint64) uint16 { return uint16(w >> 32) }
func w0Class(w uint64) int    { return int(uint8(w >> 48)) }

func (s *slabHeap) loadW0(ts *threadState, idx int) uint64 {
	return ts.cache.Load(s.descW0(idx))
}

func (s *slabHeap) storeW0(ts *threadState, idx int, w uint64) {
	ts.cache.Store(s.descW0(idx), w)
}

func (s *slabHeap) setNext(ts *threadState, idx int, next uint32) {
	w := s.loadW0(ts, idx)
	s.storeW0(ts, idx, packW0(next, w0Owner(w), uint8(w0Class(w))))
}

func (s *slabHeap) setOwnerClass(ts *threadState, idx int, owner uint16, class uint8) {
	w := s.loadW0(ts, idx)
	s.storeW0(ts, idx, packW0(w0Next(w), owner, class))
}

// flushDesc publishes every line of slab idx's SWcc descriptor and
// fences: the publication half of the §3.2.2 discipline, for sites that
// hand the slab (or fresh descriptor contents) to other threads.
func (s *slabHeap) flushDesc(ts *threadState, idx int) {
	ts.cache.FlushRange(s.descW0(idx), s.descStride)
	ts.cache.Fence()
}

// invalidateDesc drops the thread's cached copy of slab idx's descriptor
// WITHOUT a fence. Legal only when every cached descriptor line is clean
// — the caller merely read — so there is nothing to publish; eviction
// alone restores the re-fetch guarantee. This is the fence-coalescing
// split (DESIGN.md §7.1): pure invalidations stop paying a drain fence,
// while every dirty or ownership-transferring site keeps flushDesc.
func (s *slabHeap) invalidateDesc(ts *threadState, idx int) {
	ts.cache.FlushRange(s.descW0(idx), s.descStride)
}

// --- free bitset and count (owner-only access) ---

func (s *slabHeap) getFreeCount(ts *threadState, idx int) uint32 {
	return uint32(ts.cache.Load(s.descW1(idx)))
}

func (s *slabHeap) setFreeCount(ts *threadState, idx int, v uint32) {
	ts.cache.Store(s.descW1(idx), uint64(v))
}

func (s *slabHeap) blockBit(ts *threadState, idx, block int) bool {
	w := ts.cache.Load(s.bitsetW(idx) + block/64)
	return w&(1<<(uint(block)%64)) != 0
}

func (s *slabHeap) setBlockBit(ts *threadState, idx, block int, free bool) {
	wi := s.bitsetW(idx) + block/64
	w := ts.cache.Load(wi)
	if free {
		w |= 1 << (uint(block) % 64)
	} else {
		w &^= 1 << (uint(block) % 64)
	}
	ts.cache.Store(wi, w)
}

// fillBitset marks the first total blocks free and the rest absent.
func (s *slabHeap) fillBitset(ts *threadState, idx, total int) {
	base := s.bitsetW(idx)
	for w := 0; w < s.bitsetWords; w++ {
		var v uint64
		lo := w * 64
		switch {
		case total >= lo+64:
			v = ^uint64(0)
		case total > lo:
			v = (uint64(1) << uint(total-lo)) - 1
		}
		ts.cache.Store(base+w, v)
	}
}

// firstFree returns the lowest free block of slab idx, or -1.
func (s *slabHeap) firstFree(ts *threadState, idx, total int) int {
	base := s.bitsetW(idx)
	words := (total + 63) / 64
	for w := 0; w < words; w++ {
		v := ts.cache.Load(base + w)
		if v != 0 {
			b := w * 64
			for v&1 == 0 {
				v >>= 1
				b++
			}
			if b >= total {
				return -1
			}
			return b
		}
	}
	return -1
}

// popcount recomputes the free count from the bitset (recovery repair).
func (s *slabHeap) popcount(ts *threadState, idx, total int) uint32 {
	base := s.bitsetW(idx)
	words := (total + 63) / 64
	var c uint32
	for w := 0; w < words; w++ {
		v := ts.cache.Load(base + w)
		for v != 0 {
			v &= v - 1
			c++
		}
	}
	return c
}

// --- thread-local intrusive lists (no flushing: §3.2.2) ---

func (s *slabHeap) tlPush(ts *threadState, listW, idx int) {
	head := ts.cache.Load(listW)
	s.setNext(ts, idx, uint32(head))
	ts.cache.Store(listW, uint64(idx+1))
}

func (s *slabHeap) tlPop(ts *threadState, listW int) (int, bool) {
	head := ts.cache.Load(listW)
	if head == 0 {
		return 0, false
	}
	idx := int(head - 1)
	ts.cache.Store(listW, uint64(w0Next(s.loadW0(ts, idx))))
	return idx, true
}

// tlUnlink removes idx from the list, walking to find its predecessor.
func (s *slabHeap) tlUnlink(ts *threadState, listW, idx int) {
	head := ts.cache.Load(listW)
	if head == uint64(idx+1) {
		ts.cache.Store(listW, uint64(w0Next(s.loadW0(ts, idx))))
		return
	}
	prev := int(head - 1)
	for steps := 0; steps <= s.maxSlabs; steps++ {
		next := w0Next(s.loadW0(ts, prev))
		if next == 0 {
			s.h.fail("%s heap: slab %d not on its free list", s.name, idx)
		}
		if int(next-1) == idx {
			s.setNext(ts, prev, w0Next(s.loadW0(ts, idx)))
			return
		}
		prev = int(next - 1)
	}
	s.h.fail("%s heap: free list cycle while unlinking %d", s.name, idx)
}

// tlLen returns the list length, bounded by limit.
func (s *slabHeap) tlLen(ts *threadState, listW, limit int) int {
	n := 0
	cur := ts.cache.Load(listW)
	for cur != 0 && n <= limit {
		n++
		cur = uint64(w0Next(s.loadW0(ts, int(cur-1))))
	}
	return n
}

// --- allocation (§3.1.1) ---

func (s *slabHeap) alloc(ts *threadState, tid, class int) (Ptr, error) {
	if s.h.magsEnabled() {
		if p, ok := s.magPop(ts, tid, class); ok {
			return p, nil
		}
		if s.magRefill(ts, tid, class) {
			p, ok := s.magPop(ts, tid, class)
			if !ok {
				s.h.fail("%s heap: refilled magazine for class %d is empty", s.name, class)
			}
			return p, nil
		}
		// No refillable slab (sized list empty, or down to its last free
		// block): the classic path below initializes or drains one — and
		// keeps the classic crash points reachable under magazines, since
		// every fresh slab's first block is allocated here.
	}
	sizedW := s.localW(tid, class)
	total := s.blocksPer(class)
	for {
		head := ts.cache.Load(sizedW)
		if head == 0 {
			if err := s.refill(ts, tid, class); err != nil {
				return 0, err
			}
			continue
		}
		idx := int(head - 1)
		block := s.firstFree(ts, idx, total)
		if block < 0 {
			s.h.fail("%s heap: full slab %d on sized list %d", s.name, idx, class)
		}
		// Record the application handoff (§3.4.2): if we crash after
		// taking the block but before the caller stores the pointer,
		// recovery reports it as a pending allocation instead of
		// leaking it.
		s.h.writeOplog(tid, ts, s.opc(opAllocBlock), uint32(idx), uint16(block), 0)
		s.cp(tid, "alloc.post-oplog")
		s.setBlockBit(ts, idx, block, false)
		fc := s.getFreeCount(ts, idx) - 1
		s.setFreeCount(ts, idx, fc)
		s.cp(tid, "alloc.post-take")
		if fc == 0 {
			s.fullTransition(ts, tid, idx, class, total, block)
		}
		s.h.clearOplog(tid, ts)
		return s.ptrOf(idx, block, class), nil
	}
}

// fullTransition unlinks a newly full slab from the sized list,
// detaching (no remote frees yet: keep ownership) or disowning (remote
// frees seen: give up ownership so the slab can be wholly reclaimed once
// every block is remotely freed) — §3.2.1 and Figure 4.
// The transition runs nested inside alloc, before the taken block's
// pointer reaches the application, and its record overwrites the
// opAllocBlock handoff record. To keep the handoff recoverable the
// transition record carries the pending block in its (otherwise unused)
// ver field as block+1 — redo reports it for adoption just as the
// opAllocBlock redo would have.
func (s *slabHeap) fullTransition(ts *threadState, tid, idx, class, total, block int) {
	if m := s.magAt(ts, class); m != nil && int(m.slab) == idx+1 {
		if m.mask != 0 {
			// Classic allocs emptied the bitset around a live magazine
			// (only reachable with the runtime toggle off). Drain it —
			// the slab is no longer full, so no transition happens; the
			// drain record carries the in-flight block like opDetach.
			s.magDrain(ts, tid, class, block)
			return
		}
		// Stale empty mirror: invalidate before the slab changes state.
		m.slab = 0
	}
	remote := atomicx.Payload(s.h.dcas.Load(tid, s.hwBase+idx))
	if remote == uint32(total) || s.h.cfg.NoDisown {
		s.h.writeOplog(tid, ts, s.opc(opDetach), uint32(idx), uint16(class), uint16(block+1))
		s.cp(tid, "detach.post-oplog")
		// Unlink first, flush last. The unlink walk reads this slab's
		// next pointer, so flushing before it would leave the line
		// resident again — and once the slab is stolen and reinitialized
		// that copy goes stale with owner==me still set, misrouting a
		// future free of the new incarnation down the local path. The
		// final flush both publishes the descriptor for the eventual
		// stealer (§3.2.2) and evicts our copy, so every later read
		// re-fetches the device word the stealer durably overwrites.
		s.tlUnlink(ts, s.localW(tid, class), idx)
		s.cp(tid, "detach.post-unlink")
		s.flushDesc(ts, idx)
		s.cp(tid, "detach.post-flush")
	} else {
		s.h.writeOplog(tid, ts, s.opc(opDisown), uint32(idx), uint16(class), uint16(block+1))
		s.cp(tid, "disown.post-oplog")
		s.setOwnerClass(ts, idx, 0, uint8(class))
		s.flushDesc(ts, idx)
		s.cp(tid, "disown.post-flush")
		s.tlUnlink(ts, s.localW(tid, class), idx)
		s.cp(tid, "disown.post-unlink")
	}
}

// refill guarantees the sized list for class is non-empty, transferring
// a slab from (in order) the unsized list, the global free list, or the
// heap length (§3.1.1 "Allocation").
func (s *slabHeap) refill(ts *threadState, tid, class int) error {
	unsizedW := s.localW(tid, 0)
	if ts.cache.Load(unsizedW) == 0 {
		if !s.popGlobal(ts, tid) && !s.extend(ts, tid) {
			return ErrOutOfMemory
		}
	}
	s.initSlab(ts, tid, class)
	return nil
}

// initSlab transfers one slab from the unsized list to the sized list
// for class, initializing its descriptor and remote-free word.
func (s *slabHeap) initSlab(ts *threadState, tid, class int) {
	idx, ok := s.tlPop(ts, s.localW(tid, 0))
	if !ok {
		s.h.fail("%s heap: initSlab with empty unsized list", s.name)
	}
	total := s.blocksPer(class)
	s.h.writeOplog(tid, ts, s.opc(opInit), uint32(idx), uint16(class), 0)
	s.cp(tid, "init.post-oplog")
	s.storeW0(ts, idx, packW0(0, uint16(tid+1), uint8(class)))
	s.setFreeCount(ts, idx, uint32(total))
	s.fillBitset(ts, idx, total)
	s.cp(tid, "init.post-desc")
	// Exclusive access: a plain store resets the countdown (§3.2.1).
	s.h.dcas.Store(tid, s.hwBase+idx, uint32(total))
	s.cp(tid, "init.post-counter")
	s.tlPush(ts, s.localW(tid, class), idx)
	s.cp(tid, "init.post-push")
}

// pushUnsized adopts slab idx into tid's unsized list (owner set, no
// class) and spills excess slabs to the global free list.
func (s *slabHeap) pushUnsized(ts *threadState, tid, idx int) {
	unsizedW := s.localW(tid, 0)
	head := ts.cache.Load(unsizedW)
	s.storeW0(ts, idx, packW0(uint32(head), uint16(tid+1), 0))
	ts.cache.Store(unsizedW, uint64(idx+1))
	limit := s.h.cfg.UnsizedThreshold
	for s.tlLen(ts, unsizedW, limit+1) > limit {
		spill, _ := s.tlPop(ts, unsizedW)
		s.pushGlobal(ts, tid, spill)
	}
}

// popGlobal pops one slab from the global free list into tid's unsized
// list, returning false if the list is empty.
func (s *slabHeap) popGlobal(ts *threadState, tid int) bool {
	for {
		headWord := s.h.dcas.Load(tid, s.freeW)
		head := atomicx.Payload(headWord)
		if head == 0 {
			return false
		}
		idx := int(head - 1)
		// Global-list reads flush and fence before loading (§3.2.2); a
		// stale next is caught by the tagged CAS on the head.
		next := w0Next(ts.cache.LoadFresh(s.descW0(idx)))
		ver := ts.nextVer()
		s.h.writeOplog(tid, ts, s.opc(opPopGlobal), uint32(idx), 0, ver)
		s.h.dcas.Begin(tid, ver)
		s.cp(tid, "pop-global.pre-cas")
		if s.h.dcas.CAS(tid, ver, s.freeW, headWord, next) {
			s.cp(tid, "pop-global.post-cas")
			// Drop any stale cached lines; nothing is dirty yet, so no
			// fence is owed (invalidateDesc vs flushDesc).
			s.invalidateDesc(ts, idx)
			s.pushUnsized(ts, tid, idx)
			s.cp(tid, "pop-global.post-push")
			return true
		}
	}
}

// pushGlobal transfers slab idx (already unlinked, owned by tid) to the
// global free list, clearing ownership.
func (s *slabHeap) pushGlobal(ts *threadState, tid, idx int) {
	s.setOwnerClass(ts, idx, 0, 0)
	for {
		headWord := s.h.dcas.Load(tid, s.freeW)
		s.setNext(ts, idx, atomicx.Payload(headWord))
		// Publish next and owner before the head CAS makes the slab
		// reachable by other threads (§3.2.2).
		s.flushDesc(ts, idx)
		ver := ts.nextVer()
		s.h.writeOplog(tid, ts, s.opc(opPushGlobal), uint32(idx), 0, ver)
		s.h.dcas.Begin(tid, ver)
		s.cp(tid, "push-global.pre-cas")
		if s.h.dcas.CAS(tid, ver, s.freeW, headWord, uint32(idx+1)) {
			s.cp(tid, "push-global.post-cas")
			return
		}
	}
}

// extend grows the heap by one slab (§3.3.1): an atomic increment of the
// heap length claims the next slab index, whose descriptor and data are
// zeroed (unmapped slabs have never been touched) and whose mappings
// other processes install lazily via their fault handlers.
func (s *slabHeap) extend(ts *threadState, tid int) bool {
	for {
		lenWord := s.h.dcas.Load(tid, s.lenW)
		length := atomicx.Payload(lenWord)
		if int(length) >= s.maxSlabs {
			return false
		}
		ver := ts.nextVer()
		s.h.writeOplog(tid, ts, s.opc(opExtend), length, 0, ver)
		s.h.dcas.Begin(tid, ver)
		s.cp(tid, "extend.pre-cas")
		if s.h.dcas.CAS(tid, ver, s.lenW, lenWord, length+1) {
			idx := int(length)
			s.cp(tid, "extend.post-cas")
			ts.space.Install(s.slabData(idx), uint64(s.slabSize))
			s.pushUnsized(ts, tid, idx)
			s.cp(tid, "extend.post-push")
			return true
		}
	}
}

// length returns the heap's current slab count.
func (s *slabHeap) length(tid int) uint32 {
	return atomicx.Payload(s.h.dcas.Load(tid, s.lenW))
}

// --- deallocation (§3.1.1) ---

// free releases p and reports the slab's size class as read from the
// descriptor word it already loads — exact on the local path, best
// effort (possibly stale) on the remote path. Callers use it only for
// trace labeling, never for correctness.
func (s *slabHeap) free(ts *threadState, tid int, p Ptr) int {
	idx := s.slabOf(p)
	w0 := s.routeW0(ts, idx)
	if w0Owner(w0) == uint16(tid+1) {
		s.freeOwned(ts, tid, idx, p, w0)
	} else {
		s.remoteFree(ts, tid, idx, 1)
	}
	return w0Class(w0)
}

// routeW0 loads the descriptor word a free of a block in slab idx is
// routed by.
func (s *slabHeap) routeW0(ts *threadState, idx int) uint64 {
	if s.h.cfg.AlwaysFreshOwner {
		return ts.cache.LoadFresh(s.descW0(idx)) // ablation: no owner caching
	}
	// §3.2.2: the owner field may be read from a (possibly stale) cached
	// line; the case analysis shows every stale outcome is safe because
	// the remote path depends only on the HWcc word.
	return s.loadW0(ts, idx)
}

// freeOwned frees p into slab idx, which tid owns by w0.
func (s *slabHeap) freeOwned(ts *threadState, tid, idx int, p Ptr, w0 uint64) {
	// A free landing inside the live magazine's window goes straight
	// into the mask — one line, one fence, no descriptor traffic — and a
	// window miss may re-target the magazine at the freed block's word
	// (magAdopt). Routing here is safe against stale w0 reads by the same
	// §3.2.2 argument localFree relies on: only this thread relinquishes
	// its own ownership, and its own stores are never stale in its own
	// cache.
	if class := w0Class(w0); class != 0 && s.h.magsEnabled() &&
		s.magFree(ts, tid, idx, class, s.blockOf(p, idx, class)) {
		return
	}
	s.localFree(ts, tid, idx, p, w0)
}

func (s *slabHeap) localFree(ts *threadState, tid, idx int, p Ptr, w0 uint64) {
	class := w0Class(w0)
	if class == 0 {
		s.h.fail("%s heap: local free %#x into unsized slab %d", s.name, p, idx)
	}
	total := s.blocksPer(class)
	block := s.blockOf(p, idx, class)
	if s.blockBit(ts, idx, block) {
		s.h.fail("%s heap: double free of %#x (slab %d block %d)", s.name, p, idx, block)
	}
	s.h.writeOplog(tid, ts, s.opc(opLocalFree), uint32(idx), uint16(block), 0)
	s.cp(tid, "local-free.post-oplog")
	wasFull := s.getFreeCount(ts, idx) == 0
	s.setBlockBit(ts, idx, block, true)
	fc := s.getFreeCount(ts, idx) + 1
	s.setFreeCount(ts, idx, fc)
	s.cp(tid, "local-free.post-put")
	if wasFull {
		// The slab was detached; reattach it (Figure 4).
		s.tlPush(ts, s.localW(tid, class), idx)
		s.cp(tid, "local-free.post-reattach")
	}
	if int(fc) == total {
		s.emptyTransition(ts, tid, idx, class)
	}
	s.h.clearOplog(tid, ts)
}

// emptyTransition moves a fully free slab from the sized list to the
// unsized list (clearing its class), possibly spilling to global.
func (s *slabHeap) emptyTransition(ts *threadState, tid, idx, class int) {
	if m := s.magAt(ts, class); m != nil && int(m.slab) == idx+1 {
		// fc == total requires every block free in the bitset, and the
		// mask is disjoint from the bitset — so the mask is empty here.
		// Invalidate the mirror before the slab leaves the sized list.
		if m.mask != 0 {
			s.h.fail("%s heap: empty transition of slab %d with live magazine mask %#x",
				s.name, idx, m.mask)
		}
		m.slab = 0
	}
	s.h.writeOplog(tid, ts, s.opc(opEmpty), uint32(idx), uint16(class), 0)
	s.cp(tid, "empty.post-oplog")
	s.tlUnlink(ts, s.localW(tid, class), idx)
	s.cp(tid, "empty.post-unlink")
	s.pushUnsized(ts, tid, idx)
	s.cp(tid, "empty.post-push")
}

// remoteFree releases n blocks of slab idx, which tid does not own, as
// one decrement of its countdown by n (§3.1.1 "Deallocation"): one
// detectable CAS under one opRemoteFree record carrying n in b. A
// countdown below n means some block was already freed. The decrement
// that reaches zero steals the slab.
func (s *slabHeap) remoteFree(ts *threadState, tid, idx, n int) {
	cw := s.h.dcas.Load(tid, s.hwBase+idx)
	for {
		cnt := atomicx.Payload(cw)
		if cnt < uint32(n) {
			s.h.fail("%s heap: remote free of %d blocks into slab %d with countdown %d (double free?)",
				s.name, n, idx, cnt)
		}
		ver := ts.nextVer()
		s.h.writeOplog(tid, ts, s.opc(opRemoteFree), uint32(idx), uint16(n), ver)
		s.h.dcas.Begin(tid, ver)
		s.cp(tid, "remote-free.pre-cas")
		if s.h.dcas.CAS(tid, ver, s.hwBase+idx, cw, cnt-uint32(n)) {
			s.cp(tid, "remote-free.post-cas")
			if cnt == uint32(n) {
				s.steal(ts, tid, idx)
			}
			s.h.clearOplog(tid, ts)
			return
		}
		cw = s.h.dcas.Load(tid, s.hwBase+idx)
	}
}

// steal claims a fully remotely freed slab (§3.1.1 "Deallocation"):
// safe because a detached or disowned slab is unlinked, and a zero
// countdown means no further allocation or deallocation can touch it.
func (s *slabHeap) steal(ts *threadState, tid, idx int) {
	s.h.writeOplog(tid, ts, s.opc(opSteal), uint32(idx), 0, 0)
	s.cp(tid, "steal.post-oplog")
	// Drop stale cached lines before adopting: a pure invalidation (our
	// copies are clean), so no fence — the dirty owner-clear below goes
	// through flushDesc, which fences.
	s.invalidateDesc(ts, idx)
	// The device still holds the w0 the old owner published at detach
	// (owner = old owner). Durably clear it before the slab can be
	// reinitialized: otherwise the old owner's next miss on this line
	// re-fetches owner==me and misroutes a free of the NEW incarnation
	// down the local path — the one stale outcome the §3.2.2 case
	// analysis cannot tolerate. pushGlobal and disown already publish
	// a cleared owner for the same reason.
	s.setOwnerClass(ts, idx, 0, 0)
	s.flushDesc(ts, idx)
	s.cp(tid, "steal.post-clear")
	s.pushUnsized(ts, tid, idx)
	s.cp(tid, "steal.post-push")
}

// usableSize returns the block size of p's slab class (fresh read: the
// caller may not own the slab).
func (s *slabHeap) usableSize(ts *threadState, p Ptr) int {
	idx := s.slabOf(p)
	class := w0Class(ts.cache.LoadFresh(s.descW0(idx)))
	// Evict the freshly fetched line: keeping it resident would pin a
	// copy that turns stale if this slab is later stolen and
	// reinitialized — if we are its detached owner, that stale copy
	// would misroute a future free of the new incarnation. Clean lines,
	// so no fence is owed.
	s.invalidateDesc(ts, idx)
	if class == 0 {
		s.h.fail("%s heap: UsableSize(%#x) on unsized slab %d", s.name, p, idx)
	}
	return s.classes[class]
}

// fail reports an unrecoverable heap corruption.
func (h *Heap) fail(format string, args ...any) {
	panic(fmt.Sprintf("cxlalloc: "+format, args...))
}
