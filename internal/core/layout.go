package core

// Layout computes where every piece of heap metadata lives, mirroring
// the paper's Figure 2: HWcc metadata in its own contiguous region
// (so a pod with limited HWcc — or a device-biased mCAS region — only
// needs to cover that region), SWcc metadata in another, and data in a
// third whose offsets are identical in every process.
//
// HWcc and SWcc offsets are 64-bit *word* indices; data offsets are byte
// offsets. Every per-object stride in the SWcc region is a multiple of
// the cache line (8 words) where distinct writers could otherwise share
// a line.

import "cxlalloc/internal/memsim"

const lineWords = memsim.LineWords

// roundWords rounds n up to a multiple of the cache line.
func roundWords(n int) int {
	return (n + lineWords - 1) / lineWords * lineWords
}

// Layout is the computed address map for one Config.
type Layout struct {
	// HWcc region (word indices).
	SmallLenW   int // small heap length (tagged word)
	SmallFreeW  int // small global free-list head (tagged word)
	LargeLenW   int
	LargeFreeW  int
	ReservBase  int // huge reservation array, one tagged word per entry
	HelpBase    int // detectable-CAS help array, one word per thread
	ClockW      int // pod-wide logical clock (liveness ticks)
	LeaseBase   int // heartbeat leases, one word per thread (epoch|deadline)
	ClaimBase   int // recovery-claim words, one tagged word per thread
	SmallHWBase int // remote-free words, one per small slab
	LargeHWBase int
	HWccWords   int

	// SWcc region (word indices).
	SmallLocalBase   int // per-thread small free-list heads
	SmallLocalStride int
	LargeLocalBase   int
	LargeLocalStride int
	SmallDescBase    int // SWcc slab descriptors
	SmallDescStride  int
	SmallBitsetWords int
	LargeDescBase    int
	LargeDescStride  int
	LargeBitsetWords int
	HugeLocalBase    int // per-thread huge state: desc head + hazards
	HugeLocalStride  int
	HugeDescBase     int // per-thread huge descriptor pools
	HugeDescStride   int
	OplogBase        int // per-thread 8-byte recovery state, line-isolated
	SmallMagBase     int // per-thread per-class magazine lines (meta + mask)
	LargeMagBase     int
	SWccWords        int

	// Data region (byte offsets). Offset 0 is a guard page so that Ptr 0
	// is never a valid allocation.
	SmallDataOff uint64
	LargeDataOff uint64
	HugeDataOff  uint64
	DataBytes    uint64
}

func computeLayout(c *Config) Layout {
	var l Layout

	// --- HWcc region ---
	w := 0
	l.SmallLenW = w
	w++
	l.SmallFreeW = w
	w++
	l.LargeLenW = w
	w++
	l.LargeFreeW = w
	w++
	l.ReservBase = w
	w += c.NumReservations
	l.HelpBase = w
	w += c.NumThreads
	// Liveness plane (§6.2): the watchdog must stay serviceable when the
	// pod's SWcc protocol is wedged by a dead thread, so the clock, the
	// lease table, and the claim words all live in the HWcc region.
	l.ClockW = w
	w++
	l.LeaseBase = w
	w += c.NumThreads
	l.ClaimBase = w
	w += c.NumThreads
	l.SmallHWBase = w
	w += c.MaxSmallSlabs
	l.LargeHWBase = w
	w += c.MaxLargeSlabs
	l.HWccWords = w

	// --- SWcc region ---
	w = 0
	// Per-thread small free-list heads: word 0 is the unsized head,
	// words 1..numSmallClasses are the sized heads.
	l.SmallLocalBase = w
	l.SmallLocalStride = roundWords(1 + numSmallClasses)
	w += c.NumThreads * l.SmallLocalStride

	l.LargeLocalBase = w
	l.LargeLocalStride = roundWords(1 + numLargeClasses)
	w += c.NumThreads * l.LargeLocalStride

	// Slab descriptors: word 0 packs next/owner/class, word 1 is the
	// free count, words 2.. are the availability bitset.
	l.SmallBitsetWords = (SmallSlabSize/smallMin + 63) / 64
	l.SmallDescBase = w
	l.SmallDescStride = roundWords(2 + l.SmallBitsetWords)
	w += c.MaxSmallSlabs * l.SmallDescStride

	l.LargeBitsetWords = (LargeSlabSize/largeClassSizes[1] + 63) / 64
	l.LargeDescBase = w
	l.LargeDescStride = roundWords(2 + l.LargeBitsetWords)
	w += c.MaxLargeSlabs * l.LargeDescStride

	// Per-thread huge state: word 0 desc-list head, word 1 desc-pool
	// bump counter, words 2..2+NumHazards-1 hazard offsets.
	l.HugeLocalBase = w
	l.HugeLocalStride = roundWords(2 + c.NumHazards)
	w += c.NumThreads * l.HugeLocalStride

	// Huge descriptors: word 0 next+flags, word 1 offset, word 2 size,
	// word 3 free flag (its own word: it is written by the freeing
	// thread, which may differ from the owner writing word 0).
	l.HugeDescBase = w
	l.HugeDescStride = 4
	w += c.NumThreads * c.DescsPerThread * l.HugeDescStride
	w = roundWords(w)

	l.OplogBase = w
	w += c.NumThreads * lineWords

	// Magazine lines (DESIGN.md §7.2): one line per (thread, class) pair,
	// single-writer like the oplog. Word 0 packs the source slab and
	// bitset word, word 1 is the 64-bit mask of privatized blocks. Class
	// index 1..numClasses maps to line class-1 (class 0 is unsized and
	// never magazined).
	l.SmallMagBase = w
	w += c.NumThreads * numSmallClasses * lineWords
	l.LargeMagBase = w
	w += c.NumThreads * numLargeClasses * lineWords
	l.SWccWords = w

	// --- Data region ---
	off := uint64(PageSize) // guard page
	l.SmallDataOff = off
	off += uint64(c.MaxSmallSlabs) * uint64(SmallSlabSize)
	l.LargeDataOff = off
	off += uint64(c.MaxLargeSlabs) * uint64(LargeSlabSize)
	l.HugeDataOff = off
	off += uint64(c.NumReservations) * c.HugeRegionSize
	l.DataBytes = off

	return l
}

// smallLocalW returns the SWcc word of thread tid's small-heap list head
// for class c (c == 0 is the unsized list).
func (l *Layout) smallLocalW(tid, c int) int {
	return l.SmallLocalBase + tid*l.SmallLocalStride + c
}

func (l *Layout) largeLocalW(tid, c int) int {
	return l.LargeLocalBase + tid*l.LargeLocalStride + c
}

// hugeLocalW returns the base SWcc word of thread tid's huge state.
func (l *Layout) hugeLocalW(tid int) int {
	return l.HugeLocalBase + tid*l.HugeLocalStride
}

// hugeDescW returns the base SWcc word of descriptor slot (tid, i).
func (l *Layout) hugeDescW(c *Config, tid, i int) int {
	return l.HugeDescBase + (tid*c.DescsPerThread+i)*l.HugeDescStride
}

// oplogW returns the SWcc word of thread tid's recovery state.
func (l *Layout) oplogW(tid int) int {
	return l.OplogBase + tid*lineWords
}
