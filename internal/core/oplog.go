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
//	bits 32..47  b — 16-bit operand (class, block or bitset word index)
//	bits 48..63  ver — detectable-CAS version for CAS-bearing ops
//
// Discipline: the record is written and flushed *before* the operation's
// first effect; it is overwritten with opNone after the operation
// completes (lazily flushed — the next record's flush carries it, and a
// crashed thread's cache drains under the partial-failure model). Redo
// handlers are idempotent, so recovering a record whose operation had
// already completed is harmless.
//
// Two operations keep their record elsewhere, so neither touches this
// word on its common path:
//
//   - The magazine pop writes its handoff record into the magazine line
//     it already flushes (the meta word's record byte, magazine.go), so
//     a steady-state pop writes back one line, not two. A refill writes
//     no record here either: its magazine line is the record of its
//     first phase and carries its first pop's handoff record, and
//     reclamation's union and the rebuild scan repair either phase
//     (magRefill). That pop is pending only once its block is clear in
//     the durable bitset (reclaimMagazines). A thread's own local frees
//     have no op here at all: their runs live only in words 2..7 of a
//     magazine line (localFree, carry), and opLocalFree is the tag of
//     those run words, which an oplog word never holds.
//   - A remote free whose decrement does not reach zero writes its
//     record — this word's op and a/b fields, packOp(op, slab, n, 0) —
//     into the upper bits of the detectable-CAS help word its Begin
//     stores anyway (atomicx.DCAS.BeginRecord). That is sound because
//     its redo is a no-op once its CAS has landed, and Succeeded keeps
//     saying so until the thread's next Begin replaces the record
//     (DESIGN.md §7.3). A zero-reaching free owes a steal, whose redo is
//     not a no-op, so it keeps its record here.
//
// Publish guard (fenceLazyClears): every other operation opens with a
// fence, its record's or its magazine line's (a pop's, a Free's into
// the magazine, a local free's, or a refill's first phase), so a crash
// at one of its points never drops an earlier operation's writes. A
// remote free that writes no oplog line must fence first itself
// whenever an earlier operation left a lazily cleared record unfenced.
// Otherwise a crash in the free could drop the clear and bring the
// record back: a stale oplog record whose Succeeded turns false once
// the help word moves on, so recovery redoes an operation that finished
// long ago; or a magazine pop's record, so recovery reports a block the
// application already holds. Or it could keep a local free's cleared
// run words and drop the bitset stores they committed (settleRuns), and
// the free is lost. The oplog word is flushed as well as fenced, as the
// next record's flush would have carried its clear; a magazine line's
// clears need only the fence, as they did when the next operation's
// record supplied one.

const (
	opNone       = iota
	opExtend     // a = slab index being created; ver on the length word
	opPopGlobal  // a = slab index being popped; ver on the free-list head
	opPushGlobal // a = slab index being pushed; ver on the free-list head
	opInit       // a = slab index, b = class (unsized -> sized transfer)
	opDetach     // a = slab index, b = class, ver = pending block+1
	opDisown     // a = slab index, b = class, ver = pending block+1
	opAllocBlock // a = slab index, b = block (application handoff record)
	opLocalFree  // tag of a run word in a magazine line (storeRuns); never an oplog op
	opEmpty      // a = slab index (sized -> unsized transfer)
	opRemoteFree // a = slab index, b = blocks freed (| remoteZero); ver on the remote-free word
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
	// privatized, of the pop in flight and of a refill's first phase; this
	// record covers the drain's window, where the magazine and the slab
	// bitset disagree. No block is in flight.
	opMagDrain // a = slab index, b = class

	// opLargeBit distinguishes large-heap slab operations from small.
	opLargeBit = 1 << 5
)

const opAMask = 1<<26 - 1

// remoteZero flags an opRemoteFree record whose decrement takes the
// countdown to zero, so the freer owes the steal. Recovery cannot learn
// that from the countdown: once the slot is dead, survivors may free the
// slab's last blocks, steal it, and leave a zero that is not the
// freer's. Group sizes stay below the flag (maxRemoteGroup).
const remoteZero = 1 << 15

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
		"huge-reclaim", "claim", "mag-drain",
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
	if h.flushesOplog() {
		ts.cache.FlushOpt(w)
		ts.cache.Fence()
		ts.oplogDirty, ts.fenceOwed = false, false
	}
}

// clearOplog marks the operation complete. Not flushed: the next
// record's flush, the publish guard (fenceLazyClears) or the
// crash-model writeback carries it, and redo is idempotent either way.
func (h *Heap) clearOplog(tid int, ts *threadState) {
	if h.cfg.NonRecoverable {
		return
	}
	ts.cache.Store(h.lay.oplogW(tid), packOp(opNone, 0, 0, 0))
	ts.oplogDirty = true
}

// fenceLazyClears is the publish guard of a help-word record: it flushes a
// pending oplog clear and fences any lazy clear not yet fenced. So a
// remote free pays a line only after an operation that used the oplog,
// and a bare fence after a magazine pop or a local free.
func (h *Heap) fenceLazyClears(tid int, ts *threadState) {
	if h.flushesOplog() {
		if ts.oplogDirty {
			ts.cache.FlushOpt(h.lay.oplogW(tid))
		}
		if ts.oplogDirty || ts.fenceOwed {
			ts.cache.Fence()
		}
	}
	ts.oplogDirty, ts.fenceOwed = false, false
}

// flushesOplog reports whether oplog stores need a flush to be durable:
// not on a coherent pod, and not in the SkipOplogFlush mutant.
func (h *Heap) flushesOplog() bool { return !h.coherent && !h.cfg.SkipOplogFlush }

// readOplog returns tid's last flushed recovery record, bypassing any
// (lost) cached copy.
func (h *Heap) readOplog(tid int, ts *threadState) uint64 {
	return ts.cache.LoadFresh(h.lay.oplogW(tid))
}
