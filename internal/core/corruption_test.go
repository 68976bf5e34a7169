package core

import (
	"strings"
	"testing"
)

// The §5.1 invariant checks must actually detect violations, not just
// pass on healthy heaps. Each test corrupts one invariant directly in
// device memory and asserts the checker names it.

func expectViolation(t *testing.T, e *env, fragment string) {
	t.Helper()
	err := e.h.CheckAll(0)
	if err == nil {
		t.Fatalf("corruption not detected (wanted %q)", fragment)
	}
	if !strings.Contains(err.Error(), fragment) {
		t.Fatalf("wrong violation: got %v, want substring %q", err, fragment)
	}
}

func TestDetectsFullSlabOnSizedList(t *testing.T) {
	e := newEnv(t, testConfig(), 1, 1)
	p := e.alloc(0, 64)
	ts := e.h.ts(0)
	idx := e.h.small.slabOf(p)
	// Force the free count to zero while the slab is on a sized list.
	e.h.small.setFreeCount(ts, idx, 0)
	expectViolation(t, e, "full slab")
}

func TestDetectsCountBitsetMismatch(t *testing.T) {
	e := newEnv(t, testConfig(), 1, 1)
	p := e.alloc(0, 64)
	ts := e.h.ts(0)
	idx := e.h.small.slabOf(p)
	fc := e.h.small.getFreeCount(ts, idx)
	e.h.small.setFreeCount(ts, idx, fc-1)
	expectViolation(t, e, "popcount")
}

func TestDetectsWrongOwnerOnSizedList(t *testing.T) {
	e := newEnv(t, testConfig(), 1, 2)
	p := e.alloc(0, 64)
	ts := e.h.ts(0)
	idx := e.h.small.slabOf(p)
	e.h.small.setOwnerClass(ts, idx, 2, uint8(smallClassOf(64))) // claim tid 1 owns it
	expectViolation(t, e, "owner")
}

func TestDetectsListCycle(t *testing.T) {
	e := newEnv(t, testConfig(), 1, 1)
	// Two slabs on the unsized list, then make the tail point at the head.
	blocks := SmallSlabSize / smallMax
	var ps []Ptr
	for i := 0; i < 2*blocks; i++ {
		ps = append(ps, e.alloc(0, smallMax))
	}
	for _, p := range ps {
		e.h.Free(0, p)
	}
	ts := e.h.ts(0)
	head := ts.cache.Load(e.h.small.localW(0, 0))
	if head == 0 {
		t.Skip("no unsized slabs to corrupt")
	}
	idx := int(head - 1)
	e.h.small.setNext(ts, idx, uint32(idx+1)) // self-loop
	expectViolation(t, e, "cycle")
}

func TestDetectsOwnedSlabOnGlobalList(t *testing.T) {
	e := newEnv(t, testConfig(), 1, 2)
	// Spill slabs to the global list, then stamp an owner on its head.
	blocks := SmallSlabSize / smallMax
	var ps []Ptr
	for i := 0; i < (e.cfg.UnsizedThreshold+3)*blocks; i++ {
		ps = append(ps, e.alloc(0, smallMax))
	}
	for _, p := range ps {
		e.h.Free(0, p)
	}
	head := payloadOf(e.h.dcas.Load(0, e.h.small.freeW))
	if head == 0 {
		t.Fatal("global list empty after spill")
	}
	idx := int(head - 1)
	probe := e.dev.NewCache()
	w0 := probe.LoadFresh(e.h.small.descW0(idx))
	probe.Store(e.h.small.descW0(idx), packW0(w0Next(w0), 1, 0))
	probe.Flush(e.h.small.descW0(idx))
	expectViolation(t, e, "global free list has owner")
}

func TestDetectsHugeBadDescriptor(t *testing.T) {
	e := newEnv(t, testConfig(), 1, 1)
	p := e.alloc(0, largeMax+1)
	ts := e.h.ts(0)
	id, ok := e.h.findDesc(ts, 0, p)
	if !ok {
		t.Fatal("descriptor missing")
	}
	// Corrupt the size to something unaligned.
	e.h.hugeStore(ts, e.h.descW(id, hdSize), 12345)
	expectViolation(t, e, "not page aligned")
}

func TestDetectsHugeLinkedNotInUse(t *testing.T) {
	e := newEnv(t, testConfig(), 1, 1)
	p := e.alloc(0, largeMax+1)
	ts := e.h.ts(0)
	id, ok := e.h.findDesc(ts, 0, p)
	if !ok {
		t.Fatal("descriptor missing")
	}
	w0 := e.h.hugeLoad(ts, e.h.descW(id, hdNext))
	e.h.hugeStore(ts, e.h.descW(id, hdNext), w0&^hdInUseBit)
	expectViolation(t, e, "not in use")
}

func TestDetectsBadHazardOffset(t *testing.T) {
	e := newEnv(t, testConfig(), 1, 1)
	ts := e.h.ts(0)
	e.h.hugeStore(ts, e.h.hazardW(0, 0), 12345) // unaligned, outside huge area
	expectViolation(t, e, "hazard")
}

func TestCheckAllPassesOnBusyHealthyHeap(t *testing.T) {
	e := newEnv(t, testConfig(), 2, 2)
	var live []Ptr
	for i := 0; i < 300; i++ {
		live = append(live, e.alloc(i%4, 1+i%2000))
	}
	e.checkAll(0)
	for i, p := range live {
		e.h.Free((i+1)%4, p)
	}
	e.checkAll(0)
}
