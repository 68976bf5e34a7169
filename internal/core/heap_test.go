package core

import (
	"fmt"
	"strings"
	"testing"

	"cxlalloc/internal/xrand"
)

func TestAllocFreeRoundTrip(t *testing.T) {
	e := newEnv(t, testConfig(), 1, 2)
	for _, size := range []int{1, 8, 17, 100, 512, 1024, 1025, 4096, 100_000, largeMax} {
		p := e.alloc(0, size)
		b := e.h.Bytes(0, p, size)
		if len(b) != size {
			t.Fatalf("Bytes(%d) len = %d", size, len(b))
		}
		b[0], b[size-1] = 0xAA, 0xBB
		if us := e.h.UsableSize(0, p); us < size {
			t.Fatalf("UsableSize(%d) = %d < size", size, us)
		}
		e.h.Free(0, p)
	}
	e.checkAll(0)
}

func TestAllocRejectsBadSizes(t *testing.T) {
	e := newEnv(t, testConfig(), 1, 1)
	if _, err := e.h.Alloc(0, 0); err == nil {
		t.Fatal("Alloc(0) succeeded")
	}
	if _, err := e.h.Alloc(0, -5); err == nil {
		t.Fatal("Alloc(-5) succeeded")
	}
}

func TestDistinctPointersAndData(t *testing.T) {
	e := newEnv(t, testConfig(), 1, 1)
	const n = 500
	ptrs := make([]Ptr, n)
	for i := range ptrs {
		ptrs[i] = e.alloc(0, 64)
		copy(e.h.Bytes(0, ptrs[i], 8), []byte{byte(i), byte(i >> 8), 1, 2, 3, 4, 5, 6})
	}
	seen := map[Ptr]bool{}
	for i, p := range ptrs {
		if seen[p] {
			t.Fatalf("pointer %#x returned twice", p)
		}
		seen[p] = true
		b := e.h.Bytes(0, p, 8)
		if b[0] != byte(i) || b[1] != byte(i>>8) {
			t.Fatalf("allocation %d data clobbered", i)
		}
	}
	for _, p := range ptrs {
		e.h.Free(0, p)
	}
	e.checkAll(0)
}

func TestBlockReuseAfterFree(t *testing.T) {
	e := newEnv(t, testConfig(), 1, 1)
	p1 := e.alloc(0, 64)
	e.h.Free(0, p1)
	p2 := e.alloc(0, 64)
	if p1 != p2 {
		t.Fatalf("freed block not reused: %#x then %#x", p1, p2)
	}
	e.h.Free(0, p2)
}

func TestHeapExtension(t *testing.T) {
	e := newEnv(t, testConfig(), 1, 1)
	s0, l0 := e.h.HeapLengths(0)
	if s0 != 0 || l0 != 0 {
		t.Fatalf("fresh heap lengths = %d, %d", s0, l0)
	}
	// One small slab holds 32768/1024 = 32 blocks of the top class;
	// allocating 33 forces an extension.
	blocks := SmallSlabSize / smallMax
	var ptrs []Ptr
	for i := 0; i <= blocks; i++ {
		ptrs = append(ptrs, e.alloc(0, smallMax))
	}
	s1, _ := e.h.HeapLengths(0)
	if s1 < 2 {
		t.Fatalf("small heap length = %d after %d top-class allocs", s1, blocks+1)
	}
	for _, p := range ptrs {
		e.h.Free(0, p)
	}
	e.checkAll(0)
}

func TestOutOfMemory(t *testing.T) {
	cfg := testConfig()
	cfg.MaxSmallSlabs = 2
	cfg.CheckInvariants = false
	e := newEnv(t, cfg, 1, 1)
	blocks := SmallSlabSize / smallMax
	var ptrs []Ptr
	var sawOOM bool
	for i := 0; i < 3*blocks; i++ {
		p, err := e.h.Alloc(0, smallMax)
		if err == ErrOutOfMemory {
			sawOOM = true
			break
		}
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		ptrs = append(ptrs, p)
	}
	if !sawOOM {
		t.Fatal("never hit ErrOutOfMemory with 2-slab heap")
	}
	// Frees make memory allocatable again.
	for _, p := range ptrs {
		e.h.Free(0, p)
	}
	if _, err := e.h.Alloc(0, smallMax); err != nil {
		t.Fatalf("alloc after frees: %v", err)
	}
}

func TestSlabDetachAndReattach(t *testing.T) {
	e := newEnv(t, testConfig(), 1, 1)
	blocks := SmallSlabSize / smallMax // 32
	ptrs := make([]Ptr, blocks)
	for i := range ptrs {
		ptrs[i] = e.alloc(0, smallMax)
	}
	// The slab is now full and detached (no remote frees): still owned.
	idx := e.h.small.slabOf(ptrs[0])
	ts := e.h.ts(0)
	if got := w0Owner(e.h.small.loadW0(ts, idx)); got != 1 {
		t.Fatalf("detached slab owner = %d, want 1 (tid 0)", got)
	}
	if fc := e.h.small.getFreeCount(ts, idx); fc != 0 {
		t.Fatalf("detached slab free count = %d", fc)
	}
	// A local free must reattach it and allow reuse.
	e.h.Free(0, ptrs[0])
	p := e.alloc(0, smallMax)
	if p != ptrs[0] {
		t.Fatalf("reattached slab did not serve the freed block: %#x vs %#x", p, ptrs[0])
	}
	for _, q := range ptrs[1:] {
		e.h.Free(0, q)
	}
	e.h.Free(0, p)
	e.checkAll(0)
}

func TestEmptySlabMovesToUnsizedAndSpills(t *testing.T) {
	e := newEnv(t, testConfig(), 1, 2)
	// Fill several slabs, then free everything: emptied slabs go to the
	// unsized list, overflow spills to the global free list.
	blocks := SmallSlabSize / smallMax
	var ptrs []Ptr
	for i := 0; i < 6*blocks; i++ {
		ptrs = append(ptrs, e.alloc(0, smallMax))
	}
	for _, p := range ptrs {
		e.h.Free(0, p)
	}
	e.checkAll(0)
	ts := e.h.ts(0)
	// The unsized list must respect the spill threshold.
	n := e.h.small.tlLen(ts, e.h.small.localW(0, 0), e.cfg.MaxSmallSlabs)
	if n > e.cfg.UnsizedThreshold {
		t.Fatalf("unsized list length %d > threshold %d", n, e.cfg.UnsizedThreshold)
	}
	// And the global list must have received the spill.
	if payloadOf(e.h.dcas.Load(0, e.h.small.freeW)) == 0 {
		t.Fatal("global free list empty after spill")
	}
	// Another thread can reuse the spilled slabs.
	p := e.alloc(1, 64)
	e.h.Free(1, p)
	e.checkAll(0)
}

func TestRemoteFreeCountdownAndSteal(t *testing.T) {
	e := newEnv(t, testConfig(), 1, 2)
	// Thread 0 allocates one full slab of 1 KiB blocks; thread 1 frees
	// them all remotely. When the countdown hits zero, thread 1 steals
	// the slab.
	blocks := SmallSlabSize / smallMax
	ptrs := make([]Ptr, blocks)
	for i := range ptrs {
		ptrs[i] = e.alloc(0, smallMax)
	}
	idx := e.h.small.slabOf(ptrs[0])
	if got := e.h.small.remoteCount(0, idx); got != uint32(blocks) {
		t.Fatalf("initial countdown = %d, want %d", got, blocks)
	}
	for i, p := range ptrs {
		e.h.Free(1, p)
		want := uint32(blocks - i - 1)
		if got := e.h.small.remoteCount(1, idx); got != want {
			t.Fatalf("countdown after %d remote frees = %d, want %d", i+1, got, want)
		}
	}
	// Thread 1 stole the slab: owner must now be thread 1.
	ts1 := e.h.ts(1)
	if got := w0Owner(e.h.small.loadW0(ts1, idx)); got != 2 {
		t.Fatalf("stolen slab owner = %d, want 2 (tid 1)", got)
	}
	// Thread 1 can allocate from the stolen slab without extending.
	s0, _ := e.h.HeapLengths(0)
	p := e.alloc(1, smallMax)
	s1, _ := e.h.HeapLengths(0)
	if s1 != s0 {
		t.Fatalf("allocation after steal extended the heap (%d -> %d)", s0, s1)
	}
	e.h.Free(1, p)
	e.checkAll(0)
}

func TestDisownOnMixedFrees(t *testing.T) {
	e := newEnv(t, testConfig(), 1, 2)
	blocks := SmallSlabSize / smallMax
	ptrs := make([]Ptr, blocks)
	for i := 0; i < blocks-1; i++ {
		ptrs[i] = e.alloc(0, smallMax)
	}
	idx := e.h.small.slabOf(ptrs[0])
	// One remote free while the slab is active.
	e.h.Free(1, ptrs[0])
	// Filling the slab now must disown it (remote != total).
	ptrs[blocks-1] = e.alloc(0, smallMax)
	last := e.alloc(0, smallMax) // may come from a new slab
	ts := e.h.ts(0)
	if e.h.small.slabOf(ptrs[blocks-1]) == idx {
		if got := w0Owner(ts.cache.LoadFresh(e.h.small.descW0(idx))); got != 0 {
			t.Fatalf("mixed-free full slab owner = %d, want 0 (disowned)", got)
		}
	}
	// All subsequent frees take the remote path; when the count reaches
	// zero the slab is reclaimed by the freeing thread.
	for i := 1; i < blocks; i++ {
		e.h.Free(0, ptrs[i]) // former owner: also remote now
	}
	if got := e.h.small.remoteCount(0, idx); got != 0 {
		t.Fatalf("countdown = %d after all frees of disowned slab", got)
	}
	e.h.Free(0, last)
	e.checkAll(0)
}

func TestCrossProcessPointerConsistency(t *testing.T) {
	e := newEnv(t, testConfig(), 2, 1) // two processes, one thread each
	// PC-S+PC-T: thread 0 (process 0) allocates and writes; thread 1
	// (process 1) reads through the same offset, faulting mappings in.
	p := e.alloc(0, 512)
	copy(e.h.Bytes(0, p, 5), "hello")
	got := e.h.Bytes(1, p, 5)
	if string(got) != "hello" {
		t.Fatalf("cross-process read = %q", got)
	}
	if e.spaces[1].Stats().Faults == 0 {
		t.Fatal("process 1 never faulted: PC-T path not exercised")
	}
	// And process 1 can free memory allocated by process 0 (remote free).
	e.h.Free(1, p)
	e.checkAll(0)
}

func TestCrossProcessHeapExtension(t *testing.T) {
	e := newEnv(t, testConfig(), 2, 1)
	// Force thread 0 to extend the heap several times, then have
	// process 1 dereference into the newest slab.
	blocks := SmallSlabSize / smallMax
	var last Ptr
	for i := 0; i < 3*blocks; i++ {
		last = e.alloc(0, smallMax)
	}
	e.h.Bytes(0, last, 8)[0] = 7
	if e.h.Bytes(1, last, 8)[0] != 7 {
		t.Fatal("extension not visible across processes")
	}
}

func TestSegfaultOutsideHeap(t *testing.T) {
	e := newEnv(t, testConfig(), 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("dereference past heap length did not fault")
		}
	}()
	// No slab 10 exists yet: the fault handler must refuse.
	e.h.Bytes(0, e.h.lay.SmallDataOff+10*uint64(SmallSlabSize), 8)
}

// Every second free of a thread's own block fails with one message,
// whichever path freed it first and whichever frees it again: the
// magazine's window, the classic local free outside it, a FreeBatch
// group, or a run an allocation carried. Each case frees its block once,
// checks the first free took its path by the crash point it visited,
// then frees the block again through Free.
func TestDoubleFreePanics(t *testing.T) {
	cases := []struct {
		name, point string
		// first frees one of thread 0's blocks and returns it.
		first func(t *testing.T, e *env) Ptr
	}{
		{"free-in-window", "small.magfree.post-put", func(t *testing.T, e *env) Ptr {
			warmMagazine(t, e, 0, 64)
			p := e.alloc(0, 64)
			e.h.Free(0, p)
			return p
		}},
		{"free-outside-window", "small.local-free.post-oplog", func(t *testing.T, e *env) Ptr {
			_, blocks, _ := windowBeside(t, e, 65)
			p := blocks[64]
			e.h.Free(0, p)
			return p
		}},
		{"free-batch", "small.local-free.post-oplog", func(t *testing.T, e *env) Ptr {
			warmMagazine(t, e, 0, 64)
			p := e.alloc(0, 64)
			freeBatch(t, e, 0, []Ptr{p})
			return p
		}},
		{"carried", "small.magalloc.post-take", func(t *testing.T, e *env) Ptr {
			warmMagazine(t, e, 0, 64)
			p := e.alloc(0, 64)
			ps := []Ptr{p}
			if _, err := e.h.AllocFreeing(0, 64, &ps); err != nil || len(ps) != 0 {
				t.Fatalf("AllocFreeing: %v, %d pointers still owed", err, len(ps))
			}
			return p
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e, inj := costEnv(t)
			inj.EnableCoverage()
			p0 := inj.Points()[c.point]
			p := c.first(t, e)
			if inj.Points()[c.point] == p0 {
				t.Fatalf("the first free did not visit %s", c.point)
			}
			s := e.h.small
			idx := s.slabOf(p)
			block := s.blockOf(p, idx, smallClassOf(64))
			want := fmt.Sprintf("small heap: double free of %#x (slab %d block %d)", p, idx, block)
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, want) {
					t.Fatalf("second free panicked with %q, want %q", msg, want)
				}
			}()
			e.h.Free(0, p)
		})
	}
}

func TestLargeHeapIndependentOfSmall(t *testing.T) {
	e := newEnv(t, testConfig(), 1, 1)
	ps := e.alloc(0, 100)
	pl := e.alloc(0, 10_000)
	sl, ll := e.h.HeapLengths(0)
	if sl == 0 || ll == 0 {
		t.Fatalf("heap lengths = %d, %d; both heaps should have extended", sl, ll)
	}
	if e.h.UsableSize(0, pl) < 10_000 {
		t.Fatal("large usable size too small")
	}
	e.h.Free(0, ps)
	e.h.Free(0, pl)
	e.checkAll(0)
}

func TestUnsizedSlabReusedAcrossClasses(t *testing.T) {
	e := newEnv(t, testConfig(), 1, 1)
	// Exhaust one class, free everything (slab returns to unsized), then
	// allocate a different class: the same slab must be reinitialized.
	blocks := SmallSlabSize / smallMax
	ptrs := make([]Ptr, blocks/2)
	for i := range ptrs {
		ptrs[i] = e.alloc(0, smallMax)
	}
	idx := e.h.small.slabOf(ptrs[0])
	for _, p := range ptrs {
		e.h.Free(0, p)
	}
	p := e.alloc(0, 8)
	if e.h.small.slabOf(p) != idx {
		t.Fatalf("emptied slab %d not reused for new class (got slab %d)", idx, e.h.small.slabOf(p))
	}
	ts := e.h.ts(0)
	if got := w0Class(e.h.small.loadW0(ts, idx)); got != smallClassOf(8) {
		t.Fatalf("reused slab class = %d", got)
	}
	e.h.Free(0, p)
	e.checkAll(0)
}

func TestZeroedDeviceIsValidHeapForManyProcesses(t *testing.T) {
	// §4: no initialization coordination. Several processes allocate
	// concurrently on a device nobody initialized.
	e := newEnv(t, testConfig(), 4, 1)
	done := make(chan Ptr, 4)
	for tid := 0; tid < 4; tid++ {
		go func(tid int) {
			p, err := e.h.Alloc(tid, 256)
			if err != nil {
				t.Errorf("tid %d: %v", tid, err)
				done <- 0
				return
			}
			copy(e.h.Bytes(tid, p, 4), []byte{byte(tid), 1, 2, 3})
			done <- p
		}(tid)
	}
	ptrs := map[Ptr]bool{}
	for i := 0; i < 4; i++ {
		p := <-done
		if p == 0 {
			t.FailNow()
		}
		if ptrs[p] {
			t.Fatalf("duplicate pointer %#x from concurrent bootstrap", p)
		}
		ptrs[p] = true
	}
	e.checkAll(0)
}

func TestFuzzAllocFreeAgainstModel(t *testing.T) {
	cfg := testConfig()
	cfg.CheckInvariants = false // checked at intervals below instead
	e := newEnv(t, cfg, 1, 1)
	rng := xrand.New(99)
	type liveAlloc struct {
		p    Ptr
		size int
		tag  byte
	}
	var live []liveAlloc
	for step := 0; step < 4000; step++ {
		if rng.Intn(2) == 0 || len(live) == 0 {
			size := rng.IntRange(1, 2048)
			p, err := e.h.Alloc(0, size)
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			tag := byte(rng.Intn(256))
			b := e.h.Bytes(0, p, size)
			b[0], b[size-1] = tag, tag
			live = append(live, liveAlloc{p, size, tag})
		} else {
			i := rng.Intn(len(live))
			a := live[i]
			b := e.h.Bytes(0, a.p, a.size)
			if b[0] != a.tag || b[a.size-1] != a.tag {
				t.Fatalf("step %d: allocation %#x corrupted (%d/%d vs %d)", step, a.p, b[0], b[a.size-1], a.tag)
			}
			e.h.Free(0, a.p)
			live = append(live[:i], live[i+1:]...)
		}
		if step%512 == 0 {
			e.checkAll(0)
		}
	}
	for _, a := range live {
		e.h.Free(0, a.p)
	}
	e.checkAll(0)
}

func TestFootprintAccounting(t *testing.T) {
	e := newEnv(t, testConfig(), 1, 1)
	f0 := e.h.Footprint(0)
	if f0.DataBytes != 0 {
		t.Fatalf("fresh heap data bytes = %d", f0.DataBytes)
	}
	p := e.alloc(0, 64)
	f1 := e.h.Footprint(0)
	if f1.DataBytes != uint64(SmallSlabSize) {
		t.Fatalf("data bytes after one slab = %d", f1.DataBytes)
	}
	if f1.HWccBytes <= f0.HWccBytes {
		t.Fatal("HWcc bytes did not grow with the heap")
	}
	// HWcc fraction must be small (the design goal): one 8-byte word per
	// 32 KiB slab plus constants.
	if frac := f1.HWccFraction(); frac > 0.05 {
		t.Fatalf("HWcc fraction = %v, expected well under 5%%", frac)
	}
	if f1.Total() != f1.HWccBytes+f1.MetaBytes+f1.DataBytes {
		t.Fatal("Total() mismatch")
	}
	e.h.Free(0, p)
}

func TestAttachErrors(t *testing.T) {
	e := newEnv(t, testConfig(), 1, 1)
	if err := e.h.AttachThread(-1, e.spaces[0]); err == nil {
		t.Fatal("negative tid attached")
	}
	if err := e.h.AttachThread(e.cfg.NumThreads, e.spaces[0]); err == nil {
		t.Fatal("out-of-range tid attached")
	}
	if err := e.h.AttachThread(0, e.spaces[0]); err == nil {
		t.Fatal("double attach succeeded")
	}
	if !e.h.Alive(0) || e.h.Alive(5) {
		t.Fatal("Alive wrong")
	}
	if e.h.ThreadSpace(0) != e.spaces[0] {
		t.Fatal("ThreadSpace wrong")
	}
}
