package core

// The 8-byte recovery state of §3.4.2: "each thread atomically updates
// 8 bytes of state in place, which records which operation the thread is
// currently performing, and contains enough information to recover the
// operation in an idempotent manner."
//
// Encoding (one SWcc word per thread, line-isolated):
//
//	bits  0..5   op code (large-heap ops set opLargeBit)
//	bits  6..31  a — 26-bit operand (slab index, descriptor ID, region)
//	bits 32..47  b — 16-bit operand (class, block index)
//	bits 48..63  ver — detectable-CAS version for CAS-bearing ops
//
// Discipline: the record is written and flushed *before* the operation's
// first effect; it is overwritten with opNone after the operation
// completes (lazily flushed — the next record's flush carries it, and a
// crashed thread's cache drains under the partial-failure model). Redo
// handlers are idempotent, so recovering a record whose operation had
// already completed is harmless.

const (
	opNone       = iota
	opExtend     // a = slab index being created; ver on the length word
	opPopGlobal  // a = slab index being popped; ver on the free-list head
	opPushGlobal // a = slab index being pushed; ver on the free-list head
	opInit       // a = slab index, b = class (unsized -> sized transfer)
	opDetach     // a = slab index, b = class, ver = pending block+1
	opDisown     // a = slab index, b = class, ver = pending block+1
	opAllocBlock // a = slab index, b = block (application handoff record)
	opLocalFree  // a = slab index, b = block
	opEmpty      // a = slab index (sized -> unsized transfer)
	opRemoteFree // a = slab index, b = blocks freed; ver on the remote-free word
	opSteal      // a = slab index (remote count hit zero)
	opReserve    // a = region index; ver on the reservation word
	// Huge-heap ops record the allocation's page number in a (26 bits)
	// and the global descriptor ID in b (16 bits), so redo can verify
	// the descriptor still describes the same allocation before acting.
	opHugeAlloc   // a = 0, b = descriptor ID (descriptor not yet public)
	opHugeFree    // a = page, b = descriptor ID
	opHugeUnmap   // a = page, b = descriptor ID (hazard cleanup)
	opHugeReclaim // a = page, b = descriptor ID (owner reclamation)
	opClaim       // a = victim tid, b = claim generation; ver on the claim word
	// Magazine ops (thread-local allocation caches, DESIGN.md §7). The
	// magazine line itself is the durable record of which blocks a thread
	// privatized; these records cover the window where the magazine and
	// the slab bitset disagree.
	opMagRefill // a = slab index, b = class<<8 | bitset word (fill in flight)
	opMagAlloc  // a = slab index, b = block, ver = class (pop handoff record)
	opMagDrain  // a = slab index, b = class<<8 | word, ver = pending block+1

	// opLargeBit distinguishes large-heap slab operations from small.
	opLargeBit = 1 << 5
)

const opAMask = 1<<26 - 1

// opCASBearing reports whether the record's ver field holds a
// detectable-CAS version (and so must seed the recovered thread's
// version counter). Other ops reuse the field for their own payload —
// opHugeFree stores the descriptor generation there — and must not
// leak it into the CAS version sequence.
func opCASBearing(op int) bool {
	switch op &^ opLargeBit {
	case opExtend, opPopGlobal, opPushGlobal, opRemoteFree, opReserve, opClaim:
		return true
	}
	return false
}

// opName returns a human-readable op name (crash points reuse these).
func opName(op int) string {
	large := op&opLargeBit != 0
	base := op &^ opLargeBit
	names := []string{
		"none", "extend", "pop-global", "push-global", "init", "detach",
		"disown", "alloc-block", "local-free", "empty", "remote-free",
		"steal", "reserve", "huge-alloc", "huge-free", "huge-unmap",
		"huge-reclaim", "claim", "mag-refill", "mag-alloc", "mag-drain",
	}
	n := "invalid"
	if base < len(names) {
		n = names[base]
	}
	if large {
		return "large." + n
	}
	return n
}

func packOp(op int, a uint32, b uint16, ver uint16) uint64 {
	return uint64(op) | uint64(a&opAMask)<<6 | uint64(b)<<32 | uint64(ver)<<48
}

func unpackOp(w uint64) (op int, a uint32, b uint16, ver uint16) {
	return int(w & 63), uint32(w>>6) & opAMask, uint16(w >> 32), uint16(w >> 48)
}

// writeOplog records the operation tid is about to perform. The record
// is written back and fenced so it survives the thread regardless of
// cache state; this is the only fence the classic fast path ever
// performs (§5.2.1 measures its cost at ~0.3% on macrobenchmarks). The
// writeback is a FlushOpt, not a Flush: the thread rewrites its record
// every operation, so evicting the line would just churn it through a
// refetch — keeping it resident is the oplog half of the PR-8 fence
// coalescing (DESIGN.md §7.1).
func (h *Heap) writeOplog(tid int, ts *threadState, op int, a uint32, b uint16, ver uint16) {
	if h.cfg.NonRecoverable {
		return
	}
	w := h.lay.oplogW(tid)
	ts.cache.Store(w, packOp(op, a, b, ver))
	if !h.coherent && !h.cfg.SkipOplogFlush {
		ts.cache.FlushOpt(w)
		ts.cache.Fence()
	}
}

// writeOplogDeferred records the operation WITHOUT its own fence: the
// record is stored and written back, and the caller's single commit
// fence makes it durable together with the operation's effects. This is
// only legal when (a) every effect covered by the record is a SWcc
// store by this same thread (so record and effects commit atomically at
// the shared fence — the adversary cannot persist an effect without the
// record, or vice versa, because neither is durable until the fence),
// and (b) no crash point fires between this call and that fence. The
// magazine pop uses it (DESIGN.md §7.2); everything multi-step stays on
// the eager writeOplog.
func (h *Heap) writeOplogDeferred(tid int, ts *threadState, op int, a uint32, b uint16, ver uint16) {
	if h.cfg.NonRecoverable {
		return
	}
	w := h.lay.oplogW(tid)
	ts.cache.Store(w, packOp(op, a, b, ver))
	if !h.coherent && !h.cfg.SkipOplogFlush {
		ts.cache.FlushOpt(w)
	}
}

// clearOplog marks the operation complete. Not flushed: the next
// record's flush (or the crash-model writeback) carries it, and redo is
// idempotent either way.
func (h *Heap) clearOplog(tid int, ts *threadState) {
	if h.cfg.NonRecoverable {
		return
	}
	ts.cache.Store(h.lay.oplogW(tid), packOp(opNone, 0, 0, 0))
}

// readOplog returns tid's last flushed recovery record, bypassing any
// (lost) cached copy.
func (h *Heap) readOplog(tid int, ts *threadState) uint64 {
	return ts.cache.LoadFresh(h.lay.oplogW(tid))
}
