package core

import (
	"math/bits"

	"cxlalloc/internal/atomicx"
)

// Huge heap (§3.1.2, Figure 5): allocations above 512 KiB are backed by
// individual memory mappings. A reservation array in HWcc memory grants
// threads exclusive permission to install mappings in coarse regions;
// each thread tracks its owned, free virtual address ranges in a
// volatile interval set (deterministically reconstructible on recovery);
// every allocation gets a huge descriptor linked into the owner's
// descriptor list; and a hazard-offset protocol decides when a freed
// mapping's resources are safe to reclaim (§3.3.2).
//
// SWcc access discipline: the paper treats all huge-heap SWcc data as
// uncachable, because huge operations are rare and the data is
// single-writer. hugeStore stores, flushes and fences; hugeLoad flushes
// the word's line and fetches it fresh, with no fence. A hazard scan
// reads a thread's first line fresh for its occupancy mask, then only
// the lines that hold published hazards (scanHazards); descriptor reads
// stay per word.

// hugeDesc word offsets within a descriptor.
const (
	hdNext   = 0 // next descriptor ID+1 (bits 0..31) | inUse (bit 32)
	hdOffset = 1 // allocation offset (bytes, data region)
	hdSize   = 2 // allocation size (bytes, page-rounded)
	hdFree   = 3 // free bit, written by the freeing thread
)

const hdInUseBit = uint64(1) << 32

// Bits 33..48 of hdNext hold a generation counter, bumped every time the
// descriptor is initialized for a new allocation and preserved by every
// other hdNext write. A free's oplog record carries the generation so
// recovery can distinguish "my free never marked the descriptor" from
// "my free completed and the descriptor was reclaimed and reused while
// my slot was dead" — without it, redoing the free would free the new
// owner's allocation (ABA across recovery). Traversals read the next
// link as uint32, so the extra bits are invisible to them.
const hdGenShift = 33

func hdGen(w0 uint64) uint16 { return uint16(w0 >> hdGenShift) }

func hdGenField(gen uint16) uint64 { return uint64(gen) << hdGenShift }

func (h *Heap) hugeLoad(ts *threadState, w int) uint64 {
	return ts.cache.LoadFresh(w)
}

func (h *Heap) hugeStore(ts *threadState, w int, v uint64) {
	ts.cache.Store(w, v)
	ts.cache.Flush(w)
	ts.cache.Fence()
}

// descID addressing: global descriptor ID = tid*DescsPerThread + slot.
func (h *Heap) descOwner(id int) int { return id / h.cfg.DescsPerThread }
func (h *Heap) descSlot(id int) int  { return id % h.cfg.DescsPerThread }

func (h *Heap) descW(id, word int) int {
	return h.lay.hugeDescW(&h.cfg, h.descOwner(id), h.descSlot(id)) + word
}

// hugeHeadW is thread tid's descriptor-list head word.
func (h *Heap) hugeHeadW(tid int) int { return h.lay.hugeLocalW(tid) }

// hazardMaskW is thread tid's hazard occupancy mask: bit i is set iff
// slot i holds a published hazard. It shares line 0 with the list head
// and slots 0–5.
func (h *Heap) hazardMaskW(tid int) int { return h.lay.hugeLocalW(tid) + 1 }

// hazardW is thread tid's hazard slot i.
func (h *Heap) hazardW(tid, i int) int { return h.lay.hugeLocalW(tid) + 2 + i }

func (h *Heap) reservW(region int) int { return h.lay.ReservBase + region }

func (h *Heap) regionOff(region int) uint64 {
	return h.lay.HugeDataOff + uint64(region)*h.cfg.HugeRegionSize
}

func (h *Heap) regionOf(p Ptr) int {
	return int((p - h.lay.HugeDataOff) / h.cfg.HugeRegionSize)
}

// roundPage rounds size up to the page size.
func (h *Heap) roundPage(n uint64) uint64 {
	ps := uint64(PageSize)
	return (n + ps - 1) / ps * ps
}

// allocDescSlot pops a free descriptor slot from tid's volatile pool.
func (h *Heap) allocDescSlot(ts *threadState, tid int) (int, bool) {
	if ts.descFree == nil {
		// First use (or post-recovery): every slot not in use is free.
		h.rebuildDescPool(ts, tid)
	}
	n := len(ts.descFree)
	if n == 0 {
		return 0, false
	}
	slot := ts.descFree[n-1]
	ts.descFree = ts.descFree[:n-1]
	return tid*h.cfg.DescsPerThread + slot, true
}

func (h *Heap) freeDescSlot(ts *threadState, id int) {
	ts.descFree = append(ts.descFree, h.descSlot(id))
}

// rebuildDescPool rescans tid's descriptor pool for free slots.
func (h *Heap) rebuildDescPool(ts *threadState, tid int) {
	ts.descFree = ts.descFree[:0]
	for slot := h.cfg.DescsPerThread - 1; slot >= 0; slot-- {
		id := tid*h.cfg.DescsPerThread + slot
		if h.hugeLoad(ts, h.descW(id, hdNext))&hdInUseBit == 0 {
			ts.descFree = append(ts.descFree, slot)
		}
	}
}

// hugeAlloc allocates size bytes from the huge heap (§3.1.2).
func (h *Heap) hugeAlloc(ts *threadState, tid int, size uint64) (Ptr, error) {
	size = h.roundPage(size)
	if size > uint64(h.cfg.NumReservations)*h.cfg.HugeRegionSize {
		return 0, ErrTooLarge
	}
	for {
		off, ok := ts.hugeFree.Alloc(size)
		if !ok {
			if !h.claimRegions(ts, tid, size) {
				return 0, ErrOutOfMemory
			}
			continue
		}
		id, ok := h.allocDescSlot(ts, tid)
		if !ok {
			ts.hugeFree.Add(off, size)
			return 0, ErrOutOfMemory
		}
		h.writeOplog(tid, ts, opHugeAlloc, 0, uint16(id), 0)
		h.crashPoint(tid, "huge.alloc.post-oplog")
		// Initialize the descriptor with the free bit unset and the next
		// generation; it stays invisible (unlinked) until the head store
		// below.
		head := h.hugeLoad(ts, h.hugeHeadW(tid))
		gen := hdGen(h.hugeLoad(ts, h.descW(id, hdNext))) + 1
		h.hugeStore(ts, h.descW(id, hdOffset), off)
		h.hugeStore(ts, h.descW(id, hdSize), size)
		h.hugeStore(ts, h.descW(id, hdFree), 0)
		h.hugeStore(ts, h.descW(id, hdNext), uint64(uint32(head))|hdInUseBit|hdGenField(gen))
		h.crashPoint(tid, "huge.alloc.post-desc")
		// Publish the hazard offset before installing the mapping
		// (hazard rule 1, §3.3.2). Done before linking so a full hazard
		// list can roll back without touching shared-visible state.
		if !h.tryPublishHazard(ts, tid, off) {
			h.hugeStore(ts, h.descW(id, hdNext), hdGenField(gen))
			h.clearOplog(tid, ts)
			h.freeDescSlot(ts, id)
			ts.hugeFree.Add(off, size)
			return 0, ErrOutOfMemory
		}
		h.crashPoint(tid, "huge.alloc.post-hazard")
		h.hugeStore(ts, h.hugeHeadW(tid), uint64(id+1))
		h.crashPoint(tid, "huge.alloc.post-link")
		ts.space.Install(off, size)
		h.clearOplog(tid, ts)
		return off, nil
	}
}

// claimRegions claims enough adjacent reservation-array entries to serve
// an allocation of size bytes, adding every claimed region to tid's
// interval set. Partially successful claims are kept: a claimed region
// is usable capacity, never a leak.
func (h *Heap) claimRegions(ts *threadState, tid int, size uint64) bool {
	k := int((size + h.cfg.HugeRegionSize - 1) / h.cfg.HugeRegionSize)
	nr := h.cfg.NumReservations
	for start := 0; start+k <= nr; start++ {
		run := true
		for i := 0; i < k && run; i++ {
			run = atomicx.Payload(h.dcas.Load(tid, h.reservW(start+i))) == 0
		}
		if !run {
			continue
		}
		claimed := 0
		for i := 0; i < k; i++ {
			if h.claimRegion(ts, tid, start+i) {
				claimed++
			} else {
				break
			}
		}
		if claimed == k {
			return true
		}
		// Lost a race mid-run; the claimed prefix stays ours. Rescan.
		if claimed > 0 {
			return true // let the caller retry Alloc; it may now fit
		}
	}
	return false
}

// claimRegion claims one reservation entry via detectable CAS.
func (h *Heap) claimRegion(ts *threadState, tid, region int) bool {
	old := h.dcas.Load(tid, h.reservW(region))
	if atomicx.Payload(old) != 0 {
		return false
	}
	ver := ts.nextVer()
	h.writeOplog(tid, ts, opReserve, uint32(region), 0, ver)
	h.dcas.Begin(tid, ver)
	h.crashPoint(tid, "huge.reserve.pre-cas")
	if !h.dcas.CAS(tid, ver, h.reservW(region), old, uint32(tid+1)) {
		return false
	}
	h.crashPoint(tid, "huge.reserve.post-cas")
	ts.hugeFree.Add(h.regionOff(region), h.cfg.HugeRegionSize)
	h.clearOplog(tid, ts)
	return true
}

// findDesc locates the in-use descriptor with exactly offset off by
// walking the region owner's descriptor list (§3.1.2 "Deallocation").
func (h *Heap) findDesc(ts *threadState, owner int, off uint64) (int, bool) {
	return h.walkDescs(ts, owner, func(_ int, o uint64) bool { return o == off })
}

// maxDescWalkRestarts bounds how often one descriptor-list walk starts
// over because the owner reclaimed a descriptor under it.
const maxDescWalkRestarts = 1 << 10

// walkDescs walks owner's descriptor list (§3.3.2) and returns the first
// in-use descriptor whose offset satisfies match. The owner may reclaim
// the descriptor a walker stands on, and a cleared descriptor reads
// next = 0, which would end the walk early and miss every live
// descriptor behind it. So a walk restarts from the owner's head when it
// lands on a descriptor whose inUse bit is clear, when a match's
// generation changed since its next word was read (reclaimed and reused
// under the walker), or when it runs past the list's length bound.
func (h *Heap) walkDescs(ts *threadState, owner int, match func(id int, off uint64) bool) (int, bool) {
	id := -1
	for restart := 0; restart <= maxDescWalkRestarts; restart++ {
		cur := h.hugeLoad(ts, h.hugeHeadW(owner))
		steps := 0
		for ; uint32(cur) != 0 && steps <= h.cfg.DescsPerThread; steps++ {
			id = int(uint32(cur)) - 1
			w0 := h.hugeLoad(ts, h.descW(id, hdNext))
			if w0&hdInUseBit == 0 {
				break
			}
			if match(id, h.hugeLoad(ts, h.descW(id, hdOffset))) {
				if w1 := h.hugeLoad(ts, h.descW(id, hdNext)); w1&hdInUseBit == 0 || hdGen(w1) != hdGen(w0) {
					break
				}
				return id, true
			}
			cur = w0
		}
		if uint32(cur) == 0 {
			return 0, false
		}
	}
	h.fail("huge heap: walk of thread %d's descriptor list restarted %d times, last at descriptor %d",
		owner, maxDescWalkRestarts, id)
	return 0, false
}

// hugeFreePtr frees the huge allocation at p from any thread in any
// process.
func (h *Heap) hugeFreePtr(ts *threadState, tid int, p Ptr) {
	region := h.regionOf(p)
	ownerWord := atomicx.Payload(h.dcas.Load(tid, h.reservW(region)))
	if ownerWord == 0 {
		h.fail("huge heap: free %#x in unreserved region %d", p, region)
	}
	owner := int(ownerWord) - 1
	id, ok := h.findDesc(ts, owner, p)
	if !ok {
		h.fail("huge heap: free %#x: no live descriptor (double free?)", p)
	}
	size := h.hugeLoad(ts, h.descW(id, hdSize))
	// The record carries the descriptor's generation: if the freeing
	// thread crashes mid-free and the descriptor is reclaimed and reused
	// before recovery runs, the redo must not touch the new incarnation.
	gen := hdGen(h.hugeLoad(ts, h.descW(id, hdNext)))
	h.writeOplog(tid, ts, opHugeFree, uint32(p/uint64(PageSize)), uint16(id), gen)
	h.crashPoint(tid, "huge.free.post-oplog")
	if h.hugeLoad(ts, h.descW(id, hdFree)) != 0 {
		h.fail("huge heap: double free of %#x", p)
	}
	// Setting the free bit needs no CAS: descriptors are never updated
	// concurrently in a correct program (§3.1.2).
	h.hugeStore(ts, h.descW(id, hdFree), 1)
	h.crashPoint(tid, "huge.free.post-bit")
	// Unmap our own process's mapping and retire our hazard (rule 2).
	ts.space.Unmap(p, size)
	h.removeHazard(ts, tid, p)
	h.crashPoint(tid, "huge.free.post-unmap")
	h.clearOplog(tid, ts)
	// Opportunistic cleanup; other processes clean up in Maintain.
	if owner == tid {
		h.hugeReclaim(ts, tid)
	}
}

// hugeUsableSize returns the page-rounded size of the allocation at p.
func (h *Heap) hugeUsableSize(ts *threadState, tid int, p Ptr) int {
	region := h.regionOf(p)
	ownerWord := atomicx.Payload(h.dcas.Load(tid, h.reservW(region)))
	if ownerWord == 0 {
		h.fail("huge heap: UsableSize(%#x) in unreserved region", p)
	}
	id, ok := h.findDesc(ts, int(ownerWord)-1, p)
	if !ok {
		h.fail("huge heap: UsableSize(%#x): no live descriptor", p)
	}
	return int(h.hugeLoad(ts, h.descW(id, hdSize)))
}

// --- hazard offsets (§3.3.2) ---

// scanHazards reads thread t's hazard list and calls fn(mask, i, v) for
// each published slot i, in slot order, with the mask it read and the
// slot's value, until fn returns true; it returns the mask, and that slot
// and true, or false if fn never did. The first line (list head, mask, slots 0–5) is
// read fresh once (LoadFreshLine), and each further line only if a set
// bit names a slot in it: a thread with no hazards costs one line.
//
// Why the mask is as safe as reading every slot: the mask and the slots
// have one writer, their thread (or that thread's recoverer while the
// slot is dead), and every write to them is fenced before the next. A
// line fetched after the scan began returns each word's device value
// from some instant after that start.
//   - A hazard is published once both of its fences are done: the
//     slot's, then its bit's (tryPublishHazard). If that happened before
//     the scan began, the fresh read of the first line sees the bit and
//     the fresh read of the slot's line sees the value.
//   - A slot whose bit is clear is never a hazard. Either it was removed,
//     and rule 2 unmaps before it removes; or its publication never
//     finished, and rule 1 maps only after publishing.
//   - A stale old value read under a bit set during the scan can only
//     hold a reclaim back, never let one through.
//
// The hazard that matters is fenced before the scan: in a correct
// program a process maps p (rule 1: publish, then map) before anyone
// frees p, and the owner reads the free bit before it scans (rule 3).
func (h *Heap) scanHazards(ts *threadState, t int, fn func(mask uint64, i int, v uint64) bool) (uint64, int, bool) {
	mw := h.hazardMaskW(t)
	line := ts.cache.LoadFreshLine(mw)
	cur := mw / lineWords
	mask := line[mw%lineWords]
	for m := mask; m != 0; m &= m - 1 {
		i := bits.TrailingZeros64(m)
		w := h.hazardW(t, i)
		if w/lineWords != cur {
			cur = w / lineWords
			line = ts.cache.LoadFreshLine(w)
		}
		if fn(mask, i, line[w%lineWords]) {
			return mask, i, true
		}
	}
	return mask, 0, false
}

// findHazard scans thread t's hazard list for off, returning the mask it
// read and off's slot if published.
func (h *Heap) findHazard(ts *threadState, t int, off uint64) (uint64, int, bool) {
	return h.scanHazards(ts, t, func(_ uint64, _ int, v uint64) bool { return v == off })
}

// tryPublishHazard records off in tid's hazard list (idempotently),
// keeping the mapping safe from reclamation while this process has it
// mapped. It reports false if the hazard list is full — the per-thread
// cap on concurrent huge mappings.
func (h *Heap) tryPublishHazard(ts *threadState, tid int, off uint64) bool {
	mask, _, ok := h.findHazard(ts, tid, off)
	if ok {
		return true // already published
	}
	// The first empty slot is the lowest clear bit; no slot is read.
	i := bits.TrailingZeros64(^mask)
	if i >= h.cfg.NumHazards {
		return false
	}
	// The slot before its bit, each fenced (see scanHazards): a set bit
	// always names a slot holding a valid offset, at every crash. The
	// slot's write-back keeps the line resident, so for slots 0–5 the
	// mask store lands in the line the scan fetched.
	w := h.hazardW(tid, i)
	ts.cache.Store(w, off)
	ts.cache.FlushOpt(w)
	ts.cache.Fence()
	h.crashPoint(tid, "huge.hazard.post-slot")
	h.hugeStore(ts, h.hazardMaskW(tid), mask|1<<uint(i))
	return true
}

// removeHazard clears off's bit in tid's hazard list if published. The
// slot keeps its old value, dead once its bit is clear.
func (h *Heap) removeHazard(ts *threadState, tid int, off uint64) {
	if mask, i, ok := h.findHazard(ts, tid, off); ok {
		h.hugeStore(ts, h.hazardMaskW(tid), mask&^(1<<uint(i)))
	}
}

// hazardPublished reports whether any thread holds a hazard for off
// (reclamation rule 3).
func (h *Heap) hazardPublished(ts *threadState, off uint64) bool {
	for t := 0; t < h.cfg.NumThreads; t++ {
		if _, _, ok := h.findHazard(ts, t, off); ok {
			return true
		}
	}
	return false
}

// Maintain performs the paper's asynchronous cleanup for thread tid:
// walk the hazard list retiring mappings whose allocation has been
// freed, then walk the descriptor list reclaiming freed descriptors with
// no published hazards. Benchmarks call it periodically; Free calls the
// reclaim half opportunistically.
func (h *Heap) Maintain(tid int) {
	ts := h.ts(tid)
	h.hazardSweep(ts, tid)
	h.hugeReclaim(ts, tid)
}

// hazardSweep retires tid's hazards whose allocations have been freed:
// unmap locally, then remove the hazard (rule 2's ordering).
func (h *Heap) hazardSweep(ts *threadState, tid int) {
	var retired uint64 // bits this sweep cleared; tid is the mask's one writer
	h.scanHazards(ts, tid, func(mask uint64, i int, off uint64) bool {
		region := h.regionOf(off)
		ownerWord := atomicx.Payload(h.dcas.Load(tid, h.reservW(region)))
		if ownerWord == 0 {
			return false
		}
		id, ok := h.findDesc(ts, int(ownerWord)-1, off)
		if !ok || h.hugeLoad(ts, h.descW(id, hdFree)) == 0 {
			return false
		}
		size := h.hugeLoad(ts, h.descW(id, hdSize))
		h.writeOplog(tid, ts, opHugeUnmap, uint32(off/uint64(PageSize)), uint16(id), 0)
		h.crashPoint(tid, "huge.unmap.post-oplog")
		ts.space.Unmap(off, size)
		h.crashPoint(tid, "huge.unmap.post-unmap")
		retired |= 1 << uint(i)
		h.hugeStore(ts, h.hazardMaskW(tid), mask&^retired)
		h.clearOplog(tid, ts)
		return false
	})
}

// hugeReclaim reclaims tid's freed descriptors whose offsets have no
// published hazard: unlink, release the address range, free the slot.
func (h *Heap) hugeReclaim(ts *threadState, tid int) {
	prevW := h.hugeHeadW(tid)
	cur := h.hugeLoad(ts, prevW)
	for steps := 0; uint32(cur) != 0 && steps <= h.cfg.DescsPerThread; steps++ {
		id := int(uint32(cur)) - 1
		w0 := h.hugeLoad(ts, h.descW(id, hdNext))
		next := uint64(uint32(w0))
		if h.hugeLoad(ts, h.descW(id, hdFree)) == 0 {
			prevW = h.descW(id, hdNext)
			cur = next
			continue
		}
		off := h.hugeLoad(ts, h.descW(id, hdOffset))
		size := h.hugeLoad(ts, h.descW(id, hdSize))
		if h.hazardPublished(ts, off) {
			prevW = h.descW(id, hdNext)
			cur = next
			continue
		}
		h.writeOplog(tid, ts, opHugeReclaim, uint32(off/uint64(PageSize)), uint16(id), 0)
		h.crashPoint(tid, "huge.reclaim.post-oplog")
		// Unlink: the predecessor is either the list head word or a
		// descriptor's next word; preserve the predecessor's inUse bit
		// and generation (both live above the 32-bit next link).
		prev := h.hugeLoad(ts, prevW)
		h.hugeStore(ts, prevW, prev&^uint64(1<<32-1)|next)
		h.crashPoint(tid, "huge.reclaim.post-unlink")
		h.hugeStore(ts, h.descW(id, hdNext), hdGenField(hdGen(w0))) // clear inUse, keep gen
		h.crashPoint(tid, "huge.reclaim.post-clear")
		ts.hugeFree.Add(off, size)
		h.freeDescSlot(ts, id)
		h.clearOplog(tid, ts)
		cur = next
	}
}

// HandleFault is the heap side of the paper's signal handler (§3.3):
// given a faulting page, decide whether it lies within the heap and
// should be backed, installing the mapping if so. The facade registers
// it as each Space's fault handler.
func (h *Heap) HandleFault(tid int, install func(off, n uint64), page uint64) bool {
	ts := h.ts(tid)
	pageOff := page * uint64(PageSize)
	switch {
	case pageOff >= h.lay.SmallDataOff && pageOff < h.lay.LargeDataOff:
		// §3.3.1: valid iff the containing slab is below the heap length.
		idx := h.small.slabOf(pageOff)
		if uint32(idx) >= h.small.length(tid) {
			return false
		}
		install(h.small.slabData(idx), uint64(h.small.slabSize))
		return true
	case pageOff >= h.lay.LargeDataOff && pageOff < h.lay.HugeDataOff:
		idx := h.large.slabOf(pageOff)
		if uint32(idx) >= h.large.length(tid) {
			return false
		}
		install(h.large.slabData(idx), uint64(h.large.slabSize))
		return true
	case pageOff >= h.lay.HugeDataOff && pageOff < h.lay.DataBytes:
		// §3.3.2: walk the region owner's descriptor list; a live
		// allocation covering the page is mapped after publishing a
		// hazard offset (publish-before-map, rule 1).
		region := h.regionOf(pageOff)
		ownerWord := atomicx.Payload(h.dcas.Load(tid, h.reservW(region)))
		if ownerWord == 0 {
			return false
		}
		var off, size uint64
		id, ok := h.walkDescs(ts, int(ownerWord)-1, func(id int, o uint64) bool {
			off, size = o, h.hugeLoad(ts, h.descW(id, hdSize))
			return pageOff >= off && pageOff < off+size
		})
		if !ok {
			return false
		}
		if h.hugeLoad(ts, h.descW(id, hdFree)) != 0 {
			return false // use after free: let it segfault
		}
		if !h.tryPublishHazard(ts, tid, off) {
			return false // hazard list full: cannot map safely
		}
		install(off, size)
		return true
	default:
		return false
	}
}
