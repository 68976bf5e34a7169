package core

import (
	"fmt"
	"math/bits"

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

	localBase, localStride int // SWcc per-thread list heads
	descBase, descStride   int // SWcc descriptors
	dataOff                uint64
	opBit                  int // opLargeBit for the large heap

	// lines[class] is how many descriptor lines the class uses: word 0,
	// the free count and ⌈blocksPer/64⌉ bitset words; 1 for class 0.
	// descLines is the whole descriptor, for readers that are not the
	// slab's owner.
	lines     []int
	descLines int

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

// classLines returns the lines table of a heap of slabSize-byte slabs.
func classLines(slabSize int, classes []int) []int {
	lines := make([]int, len(classes))
	lines[0] = 1
	for c := 1; c < len(classes); c++ {
		words := 2 + (slabSize/classes[c]+63)/64
		lines[c] = (words + lineWords - 1) / lineWords
	}
	return lines
}

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

// --- descriptor word 0: [ next+1 : 32 | owner+1 : 16 | class : 8 | ext : 8 ]
//
// ext is the owner's dirty extent: how many descriptor lines the owner
// may hold dirty in its cache. initSlab raises it to the new class's
// lines and nothing but an acquisition lowers it (extend, popGlobal and
// steal store 0: an acquirer holds no dirty line of the slab), so a slab
// emptied as 16 B (5 lines) and re-initialized as 1 KiB (1 line) still
// publishes all 5 at its next release. Without it the owner's cache
// would keep the 16 B bitset lines dirty, to be written back over the
// next owner's bitset at a crash or a later flush.

func packW0(next uint32, owner uint16, class uint8, ext int) uint64 {
	return uint64(next) | uint64(owner)<<32 | uint64(class)<<48 | uint64(uint8(ext))<<56
}

func w0Next(w uint64) uint32  { return uint32(w) }
func w0Owner(w uint64) uint16 { return uint16(w >> 32) }
func w0Class(w uint64) int    { return int(uint8(w >> 48)) }
func w0Ext(w uint64) int      { return int(w >> 56) }

func (s *slabHeap) loadW0(ts *threadState, idx int) uint64 {
	return ts.cache.Load(s.descW0(idx))
}

func (s *slabHeap) storeW0(ts *threadState, idx int, w uint64) {
	ts.cache.Store(s.descW0(idx), w)
}

func (s *slabHeap) setNext(ts *threadState, idx int, next uint32) {
	w := s.loadW0(ts, idx)
	s.storeW0(ts, idx, packW0(next, w0Owner(w), uint8(w0Class(w)), w0Ext(w)))
}

func (s *slabHeap) setOwnerClass(ts *threadState, idx int, owner uint16, class uint8) {
	w := s.loadW0(ts, idx)
	s.storeW0(ts, idx, packW0(w0Next(w), owner, class, w0Ext(w)))
}

// extent returns how many descriptor lines of slab idx its owner must
// publish on release: every line its class uses and every line its
// dirty extent records.
func (s *slabHeap) extent(ts *threadState, idx int) int {
	w := s.loadW0(ts, idx)
	return max(w0Ext(w), s.lines[w0Class(w)])
}

// flushDesc publishes the first n lines of slab idx's SWcc descriptor
// and fences: the publication half of the §3.2.2 discipline. The owner
// handing the slab (or fresh descriptor contents) to other threads
// passes s.extent; a reader that is not the owner, and may hold any
// line of any past incarnation, passes s.descLines.
func (s *slabHeap) flushDesc(ts *threadState, idx, n int) {
	ts.cache.FlushRange(s.descW0(idx), n*lineWords)
	ts.cache.Fence()
}

// invalidateDesc drops the thread's cached copy of slab idx's descriptor
// line 0 WITHOUT a fence. Legal only when the line is clean — the caller
// merely read — so there is nothing to publish; eviction alone restores
// the re-fetch guarantee. This is the fence-coalescing split (DESIGN.md
// §7.1): pure invalidations stop paying a drain fence, while every dirty
// or ownership-transferring site keeps flushDesc.
//
// Line 0 is enough: every caller reads only word 0, and the caller's
// clean copies of higher lines are harmless. They are never written back
// (a write-back carries dirty words only); initSlab's fillBitset stores
// every bitset word of the new class before anything reads one; and no
// reader looks past ⌈total/64⌉ bitset words (firstFree, popcount,
// magRefill, the invariants and the ledger audit).
func (s *slabHeap) invalidateDesc(ts *threadState, idx int) {
	ts.cache.Flush(s.descW0(idx))
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

func (s *slabHeap) clearBlockBit(ts *threadState, idx, block int) {
	wi := s.bitsetW(idx) + block/64
	ts.cache.Store(wi, ts.cache.Load(wi)&^(1<<(uint(block)%64)))
}

// fillBitset marks the first total blocks free and the rest of the last
// word absent. Words past ⌈total/64⌉ are not the class's and are left
// alone: no reader looks at them (invalidateDesc).
func (s *slabHeap) fillBitset(ts *threadState, idx, total int) {
	base := s.bitsetW(idx)
	for w := 0; w < (total+63)/64; w++ {
		v := ^uint64(0)
		if rest := total - w*64; rest < 64 {
			v = uint64(1)<<uint(rest) - 1
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

// alloc takes one class block for tid. A magazine pop or refill carries
// up to maxLocalGroup runs off ps's tail (carry); the classic take
// carries nothing.
func (s *slabHeap) alloc(ts *threadState, tid, class int, ps *[]Ptr) (Ptr, error) {
	if s.h.magsEnabled() {
		if p, ok := s.magPop(ts, tid, class, ps); ok {
			return p, nil
		}
		if p, ok := s.magRefill(ts, tid, class, ps); ok {
			return p, nil
		}
		if ts.cache.Load(s.localW(tid, class)) == 0 && ps != nil && len(*ps) > 0 {
			// Free what tid owes before taking a fresh slab: an owed
			// block may reattach a slab of this class, or empty one the
			// fresh slab then comes from, so owing never makes the heap
			// map a slab it would not have mapped.
			s.h.FreeBatch(tid, ps)
			if p, ok := s.magRefill(ts, tid, class, nil); ok {
				return p, nil
			}
		}
		if ts.cache.Load(s.localW(tid, class)) == 0 {
			// A fresh slab opens the window. A refill writes no oplog
			// record, so nothing else overwrites initSlab's: clear it
			// before the refill's first fence, which makes the clear
			// durable, or a later crash re-inits a slab whose blocks are
			// handed out.
			if err := s.refill(ts, tid, class); err != nil {
				return 0, err
			}
			s.h.clearOplog(tid, ts)
			if p, ok := s.magRefill(ts, tid, class, ps); ok {
				return p, nil
			}
		}
		// No refillable slab (each left with its last free block, or a
		// class of one block per slab): the classic path takes one.
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
		s.clearBlockBit(ts, idx, block)
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
		// The classic take runs only once magPop found the class's mask
		// empty, so the mirror is stale: invalidate it before the slab
		// changes state.
		if m.mask != 0 {
			s.h.fail("%s heap: full transition of slab %d with live magazine mask %#x",
				s.name, idx, m.mask)
		}
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
		s.flushDesc(ts, idx, s.extent(ts, idx))
		s.cp(tid, "detach.post-flush")
	} else {
		s.h.writeOplog(tid, ts, s.opc(opDisown), uint32(idx), uint16(class), uint16(block+1))
		s.cp(tid, "disown.post-oplog")
		s.setOwnerClass(ts, idx, 0, uint8(class))
		s.flushDesc(ts, idx, s.extent(ts, idx))
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
	s.h.writeOplog(tid, ts, s.opc(opInit), uint32(idx), uint16(class), 0)
	s.cp(tid, "init.post-oplog")
	s.initDesc(ts, tid, idx, class)
	s.cp(tid, "init.post-desc")
	// Exclusive access: a plain store resets the countdown (§3.2.1).
	s.h.dcas.Store(tid, s.hwBase+idx, uint32(s.blocksPer(class)))
	s.cp(tid, "init.post-counter")
	s.tlPush(ts, s.localW(tid, class), idx)
	s.cp(tid, "init.post-push")
}

// initDesc writes slab idx's descriptor as a class slab owned by tid
// with every block free, raising the dirty extent to the class's lines.
func (s *slabHeap) initDesc(ts *threadState, tid, idx, class int) {
	total := s.blocksPer(class)
	ext := max(w0Ext(s.loadW0(ts, idx)), s.lines[class])
	s.storeW0(ts, idx, packW0(0, uint16(tid+1), uint8(class), ext))
	s.setFreeCount(ts, idx, uint32(total))
	s.fillBitset(ts, idx, total)
}

// pushUnsized adopts slab idx into tid's unsized list (owner set, no
// class, dirty extent ext) and spills excess slabs to the global free
// list.
func (s *slabHeap) pushUnsized(ts *threadState, tid, idx, ext int) {
	unsizedW := s.localW(tid, 0)
	head := ts.cache.Load(unsizedW)
	s.storeW0(ts, idx, packW0(uint32(head), uint16(tid+1), 0, ext))
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
			// Drop the line read above; nothing is dirty yet, so no
			// fence is owed (invalidateDesc vs flushDesc).
			s.invalidateDesc(ts, idx)
			s.pushUnsized(ts, tid, idx, 0)
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
		// Publish next and owner, and every line the owner may still
		// hold dirty, before the head CAS makes the slab reachable by
		// other threads (§3.2.2).
		s.flushDesc(ts, idx, s.extent(ts, idx))
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
			s.pushUnsized(ts, tid, idx, 0)
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
	if w0Owner(w0) != uint16(tid+1) {
		s.remoteFree(ts, tid, idx, 1)
	} else if r := s.runOf(idx, w0, []Ptr{p}); !s.h.magsEnabled() || !s.magFree(ts, tid, r) {
		s.h.localFree(ts, tid, []classicRun{r})
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

// ownedRun returns how many pointers at the tail of the sorted batch v
// form one run with its last pointer: blocks of the same bitset word of
// slab idx, whose descriptor word is w0. An unsized slab has no blocks,
// so its run is the one pointer runOf rejects.
func (s *slabHeap) ownedRun(v []Ptr, idx int, w0 uint64) int {
	class := w0Class(w0)
	if class == 0 {
		return 1
	}
	base := s.ptrOf(idx, s.blockOf(v[len(v)-1], idx, class)&^63, class)
	n := 1
	for n < len(v) && v[len(v)-1-n] >= base {
		n++
	}
	return n
}

// classicRun is a run of a thread's own blocks bound for the classic
// local free (or, for Free's one block, the magazine): the blocks mask
// names in bitset word word of slab idx of heap s. n is how many
// pointers of the batch it covers; fc0 and fc are the slab's free count
// before and after the run lands.
type classicRun struct {
	s                   *slabHeap
	idx, class, word, n int
	mask                uint64
	fc0, fc             uint32
}

// maxLocalGroup is how many runs one magazine line commits: each takes
// two of words 2..7 of the line (storeRuns).
const maxLocalGroup = 3

// runOf returns run, blocks of one bitset word of slab idx, which the
// freeing thread owns by w0, as a classicRun for the classic local free,
// which commits up to maxLocalGroup runs in one magazine line
// (Heap.localFree, DESIGN.md §7.3 "Grouped local frees"). It writes
// nothing. Routing here is safe against stale w0 reads by the same
// §3.2.2 argument localFree relies on: only this thread relinquishes
// its own ownership, and its own stores are never stale in its own
// cache.
func (s *slabHeap) runOf(idx int, w0 uint64, run []Ptr) classicRun {
	class := w0Class(w0)
	if class == 0 {
		s.h.fail("%s heap: local free %#x into unsized slab %d", s.name, run[0], idx)
	}
	word := s.blockOf(run[0], idx, class) / 64
	var mask uint64
	for _, p := range run {
		bit := uint64(1) << (uint(s.blockOf(p, idx, class)) % 64)
		if mask&bit != 0 {
			s.doubleFree(idx, s.blockOf(p, idx, class), class)
		}
		mask |= bit
	}
	return classicRun{s: s, idx: idx, class: class, word: word, n: len(run), mask: mask}
}

// firstBlock names the lowest block of mask in bitset word word, for
// corruption reports.
func firstBlock(word int, mask uint64) int { return word*64 + bits.TrailingZeros64(mask) }

// localFree is the classic local free of runs, at most maxLocalGroup of
// them, in distinct (heap, slab, bitset word)s: the runs are stored in
// words 2..7 of the first run's class magazine line and committed by
// that line's one flush and fence, as a magazine pop commits the runs
// it carries (slabHeap.carry); then settleRuns lands them. The line is
// their only record, whether or not a window is open in it: its meta
// and mask words are already durable, and a completed pop's lazily
// cleared record there is written out with it. A run inside the class
// magazine's window leaves the mask as it is: its blocks were
// allocated, so they are in neither the mask nor the bitset, and they
// land in the bitset. NonRecoverable stores no run words, and a
// coherent pod's stores are durable without a flush.
func (h *Heap) localFree(ts *threadState, tid int, runs []classicRun) {
	h.checkRuns(ts, runs)
	mw := -1
	if !h.cfg.NonRecoverable {
		mw = runs[0].s.magW(tid, runs[0].class)
		storeRuns(ts, mw+2, runs)
		if h.flushesOplog() {
			ts.cache.FlushOpt(mw)
			ts.cache.Fence()
		}
	}
	runs[0].s.cp(tid, "local-free.post-oplog")
	h.settleRuns(ts, tid, mw, runs)
}

// checkRuns fails on a block of runs that is already free: in its
// slab's bitset, or in the mask of the class magazine whose window
// covers its word.
func (h *Heap) checkRuns(ts *threadState, runs []classicRun) {
	for _, r := range runs {
		dup := ts.cache.Load(r.s.bitsetW(r.idx)+r.word) & r.mask
		if m := r.s.magAt(ts, r.class); m != nil && int(m.slab) == r.idx+1 && int(m.word) == r.word {
			dup |= m.mask & r.mask
		}
		if dup != 0 {
			r.s.doubleFree(r.idx, firstBlock(r.word, dup), r.class)
		}
	}
}

// doubleFree reports block of slab idx freed while already free.
func (s *slabHeap) doubleFree(idx, block, class int) {
	s.h.fail("%s heap: double free of %#x (slab %d block %d)", s.name, s.ptrOf(idx, block, class), idx, block)
}

// landRuns stores each committed run's bitset word and free count.
func (h *Heap) landRuns(ts *threadState, tid int, runs []classicRun) {
	for i := range runs {
		r := &runs[i]
		wi := r.s.bitsetW(r.idx) + r.word
		ts.cache.Store(wi, ts.cache.Load(wi)|r.mask)
		r.fc0 = r.s.getFreeCount(ts, r.idx)
		r.fc = r.fc0 + uint32(bits.OnesCount64(r.mask))
		r.s.setFreeCount(ts, r.idx, r.fc)
		r.s.cp(tid, "local-free.post-put")
	}
}

// reattachRuns links every slab a landed run found detached back onto
// its sized list (Figure 4).
func (h *Heap) reattachRuns(ts *threadState, tid int, runs []classicRun) {
	for _, r := range runs {
		if r.fc0 == 0 {
			r.s.tlPush(ts, r.s.localW(tid, r.class), r.idx)
			r.s.cp(tid, "local-free.post-reattach")
		}
	}
}

// emptyRuns hands every slab a landed run completed to the empty
// transition, and reports whether any was.
func (h *Heap) emptyRuns(ts *threadState, tid int, runs []classicRun) bool {
	emptied := false
	for _, r := range runs {
		if int(r.fc) == r.s.blocksPer(r.class) {
			r.s.emptyTransition(ts, tid, r.idx, r.class)
			emptied = true
		}
	}
	return emptied
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
	// Keep the dirty extent: the bitset lines of the class just left stay
	// dirty in this cache until the slab's next release publishes them.
	s.pushUnsized(ts, tid, idx, w0Ext(s.loadW0(ts, idx)))
	s.cp(tid, "empty.post-push")
}

// remoteFree releases n blocks of slab idx, which tid does not own, as
// one decrement of its countdown by n (§3.1.1 "Deallocation"): one
// detectable CAS under one opRemoteFree record carrying n in b. A
// countdown below n means some block was already freed. The decrement
// that reaches zero steals the slab, and its oplog record says so. Any
// other decrement keeps its record in the help word its Begin stores
// (oplog.go), so it writes no oplog line.
func (s *slabHeap) remoteFree(ts *threadState, tid, idx, n int) {
	cw := s.h.dcas.Load(tid, s.hwBase+idx)
	for {
		cnt := atomicx.Payload(cw)
		if cnt < uint32(n) {
			s.h.fail("%s heap: remote free of %d blocks into slab %d with countdown %d (double free?)",
				s.name, n, idx, cnt)
		}
		zero := cnt == uint32(n)
		ver := ts.nextVer()
		if zero {
			s.h.writeOplog(tid, ts, s.opc(opRemoteFree), uint32(idx), uint16(n)|remoteZero, ver)
			s.h.dcas.Begin(tid, ver)
		} else {
			s.h.fenceLazyClears(tid, ts)
			s.h.dcas.BeginRecord(tid, ver, packOp(s.opc(opRemoteFree), uint32(idx), uint16(n), 0))
		}
		s.cp(tid, "remote-free.pre-cas")
		if s.h.dcas.CAS(tid, ver, s.hwBase+idx, cw, cnt-uint32(n)) {
			s.cp(tid, "remote-free.post-cas")
			if zero {
				s.steal(ts, tid, idx)
				s.h.clearOplog(tid, ts)
			}
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
	// Drop a stale cached line 0 before adopting: a pure invalidation
	// (our copies are clean), so no fence — the dirty owner-clear below
	// goes through flushDesc, which fences.
	s.invalidateDesc(ts, idx)
	// The device still holds the w0 the old owner published at detach
	// (owner = old owner). Durably clear it before the slab can be
	// reinitialized: otherwise the old owner's next miss on this line
	// re-fetches owner==me and misroutes a free of the NEW incarnation
	// down the local path — the one stale outcome the §3.2.2 case
	// analysis cannot tolerate. pushGlobal and disown already publish
	// a cleared owner for the same reason. The clear zeroes the dirty
	// extent too: the old owner published its lines at detach or disown,
	// and we hold none dirty but this one.
	s.storeW0(ts, idx, packW0(0, 0, 0, 0))
	s.flushDesc(ts, idx, s.extent(ts, idx))
	s.cp(tid, "steal.post-clear")
	s.pushUnsized(ts, tid, idx, 0)
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
