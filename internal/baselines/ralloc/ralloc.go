// Package ralloc reimplements the design of Ralloc (Cai et al.,
// "Understanding and optimizing persistent memory allocation",
// ISMM '20), the paper's lock-free persistent-memory baseline. The
// properties the evaluation attributes its results to:
//
//   - Lock-free allocation from superblocks whose metadata is separate
//     from data — the only baseline with that separation, which is why
//     the paper uses it as the reference point for HWcc accounting and
//     the mCAS comparison (§5.2.1, §5.4.2).
//   - Partially full superblocks are returned to global per-class
//     lists shared by all threads, so frees synchronize on shared
//     superblock free lists: cheap at low thread counts, contended at
//     high ones ("ralloc falls off at higher thread counts because it
//     returns partially full slabs to the global free list", §5.2.2) —
//     and fatal under mCAS, where every free also reads the block's
//     size class from uncachable memory (§5.4.2).
//   - Crash recovery by blocking garbage collection (Figure 7): after a
//     failure the application either runs Collect (a stop-the-world
//     mark-sweep over the heap) or leaks whatever the dead threads held.
//
// Table 1 row: Mem=PM, XP=no, mmap=no, Fail=NB, Rec=B, Str=GC.
package ralloc

import (
	"fmt"
	"sync/atomic"

	"cxlalloc/internal/alloc"
	"cxlalloc/internal/atomicx"
	"cxlalloc/internal/memsim"
	"cxlalloc/internal/nmp"
)

const (
	sbShift = 16
	sbBytes = 1 << sbShift // 64 KiB superblocks
)

var classSizes = []int{
	16, 32, 48, 64, 96, 128, 192, 256, 384, 512, 768, 1024,
	1536, 2048, 3072, 4096, 6144, 8192, 12288, 16384, 24576, 32768,
	49152, 65536, 98304, 131072, 196608, 262144, 393216, 524288,
}

func classOf(size int) int {
	for c, s := range classSizes {
		if s >= size {
			return c
		}
	}
	return -1
}

// Metadata word layout in the allocator's HWcc (or device-biased)
// region — one word per superblock for the free-list head, one for the
// class, one for the partial-list link, plus per-class partial heads.
// Packed words: heads are [ver:32 | idx+1:32]; partial links/heads are
// [ver:32 | sb+1:32].
type layout struct {
	sbCountW    int
	classHeadW  int // + class
	sbClassBase int
	sbHeadBase  int
	sbNextBase  int
	words       int
}

func computeLayout(maxSBs int) layout {
	var l layout
	w := 0
	l.sbCountW = w
	w++
	l.classHeadW = w
	w += len(classSizes)
	l.sbClassBase = w
	w += maxSBs
	l.sbHeadBase = w
	w += maxSBs
	l.sbNextBase = w
	w += maxSBs
	l.words = w
	return l
}

func pack(ver uint64, v uint32) uint64 { return ver<<32 | uint64(v) }
func verOf(w uint64) uint64            { return w >> 32 }
func valOf(w uint64) uint32            { return uint32(w) }

// Allocator is the ralloc-like allocator.
type Allocator struct {
	arena  *alloc.Arena
	dev    *memsim.Device
	hw     *atomicx.HW
	lay    layout
	maxSBs int

	// Block links: conceptually in the metadata region; kept as plain
	// atomics because only the class read and head CAS carry the
	// mode-dependent cost the paper analyzes. Published atomically so
	// peers adopting a shared superblock see initialized links.
	links []atomic.Pointer[[]atomic.Uint32]
	units []atomic.Int32  // 64 KiB unit -> superblock index + 1
	bases []atomic.Uint64 // superblock -> data base offset
	count atomic.Int64    // superblocks carved (stats)
	// active[tid][class]: the thread's current superblock, -1 if none.
	active [][]int32

	// Hook, if set, runs after a block has been taken from a superblock
	// free list but before the pointer is returned — the window where a
	// crash strands the block with no record (ralloc has no detectable
	// allocation). The Figure 7 harness injects crashes here.
	Hook func(tid int)

	name string
}

// New creates a ralloc-like allocator over arenaBytes for the given
// thread count, under a coherence mode (dram / hwcc / mcas) with an
// optional latency model.
func New(arenaBytes, threads int, mode atomicx.Mode, lat *memsim.Latency) *Allocator {
	maxSBs := arenaBytes / sbBytes
	lay := computeLayout(maxSBs)
	dev := memsim.NewDevice(memsim.Config{HWccWords: lay.words, Coherent: true})
	var unit *nmp.Unit
	if mode == atomicx.ModeMCAS {
		unit = nmp.New(dev, lat)
	}
	name := "ralloc"
	if mode != atomicx.ModeDRAM {
		name = "ralloc-" + mode.String()
	}
	a := &Allocator{
		arena:  alloc.NewArena(arenaBytes, 4096),
		dev:    dev,
		hw:     atomicx.New(dev, mode, unit, lat),
		lay:    lay,
		maxSBs: maxSBs,
		links:  make([]atomic.Pointer[[]atomic.Uint32], maxSBs),
		units:  make([]atomic.Int32, arenaBytes>>sbShift),
		bases:  make([]atomic.Uint64, maxSBs),
		active: make([][]int32, threads),
		name:   name,
	}
	for t := range a.active {
		a.active[t] = make([]int32, len(classSizes))
		for c := range a.active[t] {
			a.active[t][c] = -1
		}
	}
	return a
}

func (a *Allocator) Name() string { return a.name }

// Superblocks are sbBytes-aligned spans of one or more 64 KiB units
// (large classes get a span big enough for at least one block, like
// ralloc's large superblocks); the unit table maps any offset to its
// superblock.
func (a *Allocator) sbOf(p alloc.Ptr) int32 { return a.units[p>>sbShift].Load() - 1 }

func (a *Allocator) sbBase(sb int32) uint64 { return a.bases[sb].Load() }

// span returns the superblock byte size for a class.
func span(c int) uint64 {
	s := uint64(sbBytes)
	for s < uint64(classSizes[c]) {
		s += sbBytes
	}
	return s
}

func (a *Allocator) capacity(c int) int { return int(span(c)) / classSizes[c] }

// Alloc pops a block from the thread's active superblock, adopting a
// shared partial superblock or carving a new one when it runs dry.
func (a *Allocator) Alloc(tid int, size int) (alloc.Ptr, error) {
	if size <= 0 {
		return 0, alloc.ErrUnsupportedSize
	}
	c := classOf(size)
	if c < 0 {
		return 0, alloc.ErrUnsupportedSize
	}
	for adopted := 0; ; {
		sb := a.active[tid][c]
		if sb < 0 {
			var ok bool
			sb, ok = a.adoptPartial(tid, c)
			if ok {
				if adopted++; adopted > maxAdoptSpins {
					a.spinning(tid, c, "adopted %d exhausted superblocks in one Alloc", adopted)
				}
			} else {
				var err error
				sb, err = a.newSB(tid, c)
				if err != nil {
					return 0, err
				}
			}
			a.active[tid][c] = sb
		}
		// Pop from the (shared) superblock free list.
		headW := a.lay.sbHeadBase + int(sb)
		links := *a.links[sb].Load()
		for {
			h := a.hw.Load(tid, headW)
			idx := valOf(h)
			if idx == 0 {
				a.active[tid][c] = -1 // exhausted (possibly by a peer)
				break
			}
			next := links[idx-1].Load()
			if _, ok := a.hw.CAS(tid, headW, h, pack(verOf(h)+1, next)); ok {
				if a.Hook != nil {
					a.Hook(tid)
				}
				return a.sbBase(sb) + uint64(idx-1)*uint64(classSizes[c]), nil
			}
		}
	}
}

// maxAdoptSpins bounds both how many superblocks one Alloc adopts and
// how many head CASes one adoptPartial loses. Past it, the class's
// partial list is cyclic (a superblock pushed while already listed) or
// livelocked, and Alloc panics naming the class and the list head
// instead of spinning forever.
const maxAdoptSpins = 1 << 20

func (a *Allocator) spinning(tid, c int, format string, args ...any) {
	h := a.hw.Load(tid, a.lay.classHeadW+c)
	panic(fmt.Sprintf("ralloc: class %d (%d B): %s; partial list head superblock %d (word %#x)",
		c, classSizes[c], fmt.Sprintf(format, args...), int(valOf(h))-1, h))
}

// adoptPartial pops a superblock from the class's shared partial list.
func (a *Allocator) adoptPartial(tid, c int) (int32, bool) {
	headW := a.lay.classHeadW + c
	for lost := 0; ; lost++ {
		if lost > maxAdoptSpins {
			a.spinning(tid, c, "adoptPartial lost %d head CASes", lost)
		}
		h := a.hw.Load(tid, headW)
		sbp := valOf(h)
		if sbp == 0 {
			return -1, false
		}
		sb := int32(sbp - 1)
		next := valOf(a.hw.Load(tid, a.lay.sbNextBase+int(sb)))
		if _, ok := a.hw.CAS(tid, headW, h, pack(verOf(h)+1, next)); ok {
			return sb, true
		}
	}
}

// pushPartial publishes a superblock on its class's shared list.
func (a *Allocator) pushPartial(tid int, sb int32, c int) {
	headW := a.lay.classHeadW + c
	for {
		h := a.hw.Load(tid, headW)
		a.hw.Store(tid, a.lay.sbNextBase+int(sb), uint64(valOf(h)))
		if _, ok := a.hw.CAS(tid, headW, h, pack(verOf(h)+1, uint32(sb+1))); ok {
			return
		}
	}
}

// newSB carves and initializes a fresh superblock. The arena bump is
// the allocation point; the index is derived from the carved base.
func (a *Allocator) newSB(tid, c int) (int32, error) {
	sp := span(c)
	base := a.arena.Bump(sp, sbBytes)
	if base == 0 {
		return 0, alloc.ErrOutOfMemory
	}
	sb := int32(base>>sbShift) - 1
	if int(sb) >= a.maxSBs {
		return 0, alloc.ErrOutOfMemory
	}
	capacity := a.capacity(c)
	links := make([]atomic.Uint32, capacity)
	for i := 0; i < capacity-1; i++ {
		links[i].Store(uint32(i + 2))
	}
	a.links[sb].Store(&links)
	a.bases[sb].Store(base)
	for u := base >> sbShift; u < (base+sp)>>sbShift; u++ {
		a.units[u].Store(sb + 1)
	}
	a.count.Add(1)
	a.hw.Store(tid, a.lay.sbClassBase+int(sb), uint64(c))
	a.hw.Store(tid, a.lay.sbHeadBase+int(sb), pack(0, 1))
	return sb, nil
}

// Free reads the block's size class from superblock metadata (an
// uncachable read under mCAS — the paper's headline ralloc-mcas cost)
// and pushes the block onto the shared superblock list, publishing the
// superblock as partial if it was previously full.
func (a *Allocator) Free(tid int, p alloc.Ptr) {
	sb := a.sbOf(p)
	c := int(a.hw.Load(tid, a.lay.sbClassBase+int(sb)))
	idx := uint32((p-a.sbBase(sb))/uint64(classSizes[c])) + 1
	headW := a.lay.sbHeadBase + int(sb)
	links := *a.links[sb].Load()
	for {
		h := a.hw.Load(tid, headW)
		links[idx-1].Store(valOf(h))
		if _, ok := a.hw.CAS(tid, headW, h, pack(verOf(h)+1, idx)); ok {
			if valOf(h) == 0 {
				// Full -> partial transition: exactly one freer sees it.
				a.pushPartial(tid, sb, c)
			}
			return
		}
	}
}

func (a *Allocator) Bytes(tid int, p alloc.Ptr, n int) []byte {
	return a.arena.Bytes(p, uint64(n))
}

func (a *Allocator) AccessHook(int, alloc.Ptr) {}

func (a *Allocator) Maintain(int) {}

func (a *Allocator) Footprint() alloc.Footprint {
	sbs := uint64(a.count.Load())
	return alloc.Footprint{
		DataBytes: a.arena.TouchedBytes(),
		// Per-superblock metadata: head, class, next words plus links.
		MetaBytes: sbs * (24 + sbBytes/16*4),
		// Without HWcc/SWcc separation, all synchronization metadata —
		// heads, classes, links — must live in HWcc (or uncachable
		// mCAS) memory. The paper's reference point for cxlalloc's
		// "7.1% of ralloc's HWcc usage" comparison.
		HWccBytes: 8*(1+uint64(len(classSizes))) + sbs*(24+sbBytes/16*4),
	}
}

func (a *Allocator) Properties() alloc.Properties {
	return alloc.Properties{
		Name:            a.name,
		Memory:          "PM",
		CrossProcess:    false,
		Mmap:            false,
		FailNonBlocking: true,
		Recovery:        "B",
		Strategy:        "GC",
	}
}
