package core

import (
	"testing"
	"testing/quick"

	"cxlalloc/internal/atomicx"
	"cxlalloc/internal/xrand"
)

// Property: pointers returned by Alloc are always within the correct
// heap region, aligned to their class size, and UsableSize covers the
// request.
func TestQuickPointerGeometry(t *testing.T) {
	e := newEnv(t, testConfig(), 1, 1)
	f := func(raw uint32) bool {
		size := int(raw%uint64Cap) + 1
		p, err := e.h.Alloc(0, size)
		if err != nil {
			return size > largeMax // only huge-range sizes may fail here (capacity)
		}
		defer e.h.Free(0, p)
		us := e.h.UsableSize(0, p)
		if us < size {
			return false
		}
		switch {
		case size <= smallMax:
			if p < e.h.lay.SmallDataOff || p >= e.h.lay.LargeDataOff {
				return false
			}
			rel := p - e.h.small.slabData(e.h.small.slabOf(p))
			return rel%uint64(us) == 0
		case size <= largeMax:
			if p < e.h.lay.LargeDataOff || p >= e.h.lay.HugeDataOff {
				return false
			}
			rel := p - e.h.large.slabData(e.h.large.slabOf(p))
			return rel%uint64(us) == 0
		default:
			return p >= e.h.lay.HugeDataOff && p%uint64(PageSize) == 0
		}
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

const uint64Cap = 1 << 20 // cap sizes at 1 MiB so huge capacity suffices

// Property: no two live allocations overlap, across mixed sizes.
func TestQuickNoOverlap(t *testing.T) {
	f := func(seed uint64) bool {
		cfg := testConfig()
		cfg.CheckInvariants = false
		e := newEnv(t, cfg, 1, 1)
		rng := xrand.New(seed)
		type span struct{ lo, hi uint64 }
		var live []span
		for i := 0; i < 120; i++ {
			size := rng.IntRange(1, 8192)
			p, err := e.h.Alloc(0, size)
			if err != nil {
				return false
			}
			s := span{p, p + uint64(e.h.UsableSize(0, p))}
			for _, o := range live {
				if s.lo < o.hi && o.lo < s.hi {
					return false // overlap
				}
			}
			live = append(live, s)
		}
		for _, s := range live {
			e.h.Free(0, s.lo)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: repeated alloc-all/free-all cycles keep the footprint
// within a fixed multiple of first-cycle demand — bounded retention,
// never a leak.
//
// The bound is NOT flatness from cycle one: a remote free only
// decrements the slab's countdown, so its block is stranded — in
// neither the bitset nor any allocation — until the whole slab is
// remotely freed and stolen (the §3.2.1 pathological pattern). A remote
// cycle can therefore force the next local cycle to extend (seed
// 0x9b133d8460ff1a9 walks this exactly: cycle-1 remote frees leave
// fc=18 of 42 in one class, cycle 2 drains it, disowns, and extends);
// the extension's fresh slabs can be stranded in turn, and a stolen
// slab can park on the remote freer's unsized list (UnsizedThreshold
// deep) where the allocating thread cannot reach it, so rare seeds
// staircase for many cycles (one observed step at cycle 20). What is
// bounded is the total: live demand (lens[0]) + one stranded
// generation (≤ lens[0]) + the parked unsized slabs (≤ threshold).
// The heap length is extend-only, so checking the final length after
// enough cycles both enforces the bound and integrates any real leak
// (a slab lost per local/remote pair blows past 2x within 32 cycles).
func stableFootprint(t *testing.T, seed uint64, mode atomicx.Mode) ([]uint32, bool) {
	cfg := testConfig()
	cfg.Mode = mode
	cfg.CheckInvariants = false
	e := newEnv(t, cfg, 1, 2)
	rng := xrand.New(seed)
	sizes := make([]int, 60)
	for i := range sizes {
		sizes[i] = rng.IntRange(1, smallMax)
	}
	var lens []uint32
	for cycle := 0; cycle < 32; cycle++ {
		ptrs := make([]Ptr, len(sizes))
		for i, size := range sizes {
			p, err := e.h.Alloc(0, size)
			if err != nil {
				return lens, false
			}
			ptrs[i] = p
		}
		// Alternate local and remote frees between cycles.
		freer := cycle % 2
		for _, p := range ptrs {
			e.h.Free(freer, p)
		}
		l, _ := e.h.HeapLengths(0)
		lens = append(lens, l)
	}
	bound := 2*lens[0] + uint32(e.cfg.UnsizedThreshold)
	return lens, lens[len(lens)-1] <= bound
}

func TestQuickStableFootprintAcrossCycles(t *testing.T) {
	f := func(seed uint64) bool {
		_, ok := stableFootprint(t, seed, atomicx.ModeDRAM)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// The stranding seed above, pinned as a regression case on both the
// coherent baseline and the SWcc path (where magazines retain up to one
// bitset word per thread x class on top of the countdown stranding).
func TestStableFootprintStrandingSeed(t *testing.T) {
	for _, tc := range []struct {
		name string
		mode atomicx.Mode
	}{{"dram", atomicx.ModeDRAM}, {"swcc", atomicx.ModeSWFlush}} {
		t.Run(tc.name, func(t *testing.T) {
			lens, ok := stableFootprint(t, 0x9b133d8460ff1a9, tc.mode)
			if !ok {
				t.Fatalf("footprint exceeded its retention bound: lens = %v", lens)
			}
		})
	}
}

// Property: data written through one thread's view is intact through
// any other process's view, for random offsets within the allocation.
func TestQuickCrossProcessDataIntegrity(t *testing.T) {
	e := newEnv(t, testConfig(), 2, 1)
	f := func(seed uint64, sizeRaw uint16) bool {
		size := int(sizeRaw)%60000 + 1
		p, err := e.h.Alloc(0, size)
		if err != nil {
			return false
		}
		// Free locally: freeing every block remotely, one per slab, is
		// the paper's acknowledged pathological pattern (§3.2.1) where
		// blocks stay unreusable until a whole slab is remotely freed.
		defer e.h.Free(0, p)
		rng := xrand.New(seed)
		w := e.h.Bytes(0, p, size)
		for i := 0; i < 16; i++ {
			w[rng.Intn(size)] = byte(rng.Uint64())
		}
		r := e.h.Bytes(1, p, size)
		for i := range w {
			if w[i] != r[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
