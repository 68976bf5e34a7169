package core

import (
	"testing"

	"cxlalloc/internal/atomicx"
)

func TestHugeAllocFreeBasic(t *testing.T) {
	e := newEnv(t, testConfig(), 1, 1)
	size := largeMax + 1 // smallest huge allocation
	p := e.alloc(0, size)
	if p < e.h.lay.HugeDataOff {
		t.Fatalf("huge pointer %#x below huge region", p)
	}
	b := e.h.Bytes(0, p, size)
	b[0], b[size-1] = 1, 2
	if us := e.h.UsableSize(0, p); us < size {
		t.Fatalf("huge usable size = %d", us)
	}
	e.h.Free(0, p)
	e.checkAll(0)
}

func TestHugeReservationClaim(t *testing.T) {
	e := newEnv(t, testConfig(), 1, 2)
	p := e.alloc(0, largeMax+1)
	region := e.h.regionOf(p)
	owner := atomicx.Payload(e.h.dcas.Load(0, e.h.reservW(region)))
	if owner != 1 {
		t.Fatalf("region %d owner = %d, want 1 (tid 0)", region, owner)
	}
	// A second thread claims a different region.
	q := e.alloc(1, largeMax+1)
	if e.h.regionOf(q) == region {
		t.Fatal("two threads allocated from the same reservation region")
	}
	e.h.Free(0, p)
	e.h.Free(1, q)
}

func TestHugeMultiRegionAllocation(t *testing.T) {
	e := newEnv(t, testConfig(), 1, 1)
	// 3 adjacent 64 KiB regions.
	size := int(e.cfg.HugeRegionSize) * 3
	p := e.alloc(0, size)
	b := e.h.Bytes(0, p, size)
	b[size-1] = 9 // touch the last page: spans all three regions
	e.h.Free(0, p)
	e.checkAll(0)
}

func TestHugeTooLarge(t *testing.T) {
	e := newEnv(t, testConfig(), 1, 1)
	max := int(uint64(e.cfg.NumReservations) * e.cfg.HugeRegionSize)
	if _, err := e.h.Alloc(0, max+PageSize); err != ErrTooLarge {
		t.Fatalf("oversized alloc error = %v, want ErrTooLarge", err)
	}
}

func TestHugeExhaustionAndReuse(t *testing.T) {
	e := newEnv(t, testConfig(), 1, 1)
	regionBytes := int(e.cfg.HugeRegionSize)
	var ptrs []Ptr
	for {
		p, err := e.h.Alloc(0, regionBytes)
		if err != nil {
			if err != ErrOutOfMemory {
				t.Fatalf("unexpected error: %v", err)
			}
			break
		}
		ptrs = append(ptrs, p)
	}
	if len(ptrs) != e.cfg.NumReservations {
		t.Fatalf("allocated %d regions, want %d", len(ptrs), e.cfg.NumReservations)
	}
	// Free all; the address space must be reusable after reclamation.
	for _, p := range ptrs {
		e.h.Free(0, p)
	}
	e.h.Maintain(0)
	for i := 0; i < e.cfg.NumReservations; i++ {
		p := e.alloc(0, regionBytes)
		e.h.Free(0, p)
		e.h.Maintain(0)
	}
	e.checkAll(0)
}

func TestHugeCrossProcessFaultAndHazard(t *testing.T) {
	e := newEnv(t, testConfig(), 2, 1)
	size := int(e.cfg.HugeRegionSize)
	p := e.alloc(0, size)
	e.h.Bytes(0, p, 8)[0] = 42

	// Process 1 dereferences: fault handler walks the huge descriptor
	// list, publishes a hazard for thread 1, installs the mapping.
	if got := e.h.Bytes(1, p, 8)[0]; got != 42 {
		t.Fatalf("cross-process huge read = %d", got)
	}
	ts1 := e.h.ts(1)
	if !e.h.hazardPublished(ts1, p) {
		t.Fatal("fault handler did not publish a hazard offset")
	}

	// Thread 0 frees. Thread 1 still holds a hazard, so the owner must
	// NOT reclaim the range yet.
	e.h.Free(0, p)
	e.h.Maintain(0)
	ts0 := e.h.ts(0)
	if _, found := e.h.findDesc(ts0, 0, p); !found {
		t.Fatal("descriptor reclaimed while a hazard was published")
	}

	// Thread 1's maintenance retires its hazard (unmap + clear); then
	// the owner reclaims.
	e.h.Maintain(1)
	if e.h.hazardPublished(ts1, p) {
		t.Fatal("hazard not removed by Maintain")
	}
	e.h.Maintain(0)
	if _, found := e.h.findDesc(ts0, 0, p); found {
		t.Fatal("descriptor not reclaimed after hazards cleared")
	}
	e.checkAll(0)
}

func TestHugeUseAfterFreeFaults(t *testing.T) {
	e := newEnv(t, testConfig(), 2, 1)
	size := int(e.cfg.HugeRegionSize)
	p := e.alloc(0, size)
	e.h.Free(0, p)
	// Process 1 never mapped it; its access must now segfault (the
	// handler sees the free bit).
	defer func() {
		if recover() == nil {
			t.Fatal("use after free did not fault")
		}
	}()
	e.h.Bytes(1, p, 8)
}

func TestHugeRemoteFree(t *testing.T) {
	e := newEnv(t, testConfig(), 2, 1)
	size := int(e.cfg.HugeRegionSize)
	p := e.alloc(0, size)
	e.h.Bytes(1, p, 8) // process 1 maps it (hazard published)
	// Process 1 frees an allocation owned by thread 0.
	e.h.Free(1, p)
	// Thread 1's own hazard was retired during its free (thread 0's
	// hazard from allocation time legitimately remains until its own
	// Maintain).
	ts1 := e.h.ts(1)
	if _, _, kept := e.h.findHazard(ts1, 1, p); kept {
		t.Fatal("freeing thread kept its hazard")
	}
	// Owner cleanup: hazard of thread 0 (the allocator) still exists
	// until thread 0 maintains; then reclamation proceeds.
	e.h.Maintain(0)
	ts0 := e.h.ts(0)
	if _, found := e.h.findDesc(ts0, 0, p); found {
		t.Fatal("owner did not reclaim remotely freed huge allocation")
	}
	// The address space is reusable.
	q := e.alloc(0, size)
	e.h.Free(0, q)
	e.checkAll(0)
}

func TestHugeDoubleFreePanics(t *testing.T) {
	e := newEnv(t, testConfig(), 1, 2)
	p := e.alloc(0, largeMax+1)
	e.h.Free(0, p)
	defer func() {
		if recover() == nil {
			t.Fatal("huge double free not detected")
		}
	}()
	e.h.Free(1, p) // the descriptor is freed; findDesc or bit must trip
}

func TestHugeDescriptorExhaustion(t *testing.T) {
	cfg := testConfig()
	cfg.DescsPerThread = 2
	cfg.NumHazards = 4
	e := newEnv(t, cfg, 1, 1)
	p1 := e.alloc(0, largeMax+1)
	p2 := e.alloc(0, largeMax+1)
	if _, err := e.h.Alloc(0, largeMax+1); err != ErrOutOfMemory {
		t.Fatalf("descriptor exhaustion error = %v", err)
	}
	e.h.Free(0, p1)
	e.h.Maintain(0)
	p3 := e.alloc(0, largeMax+1) // descriptor recycled
	e.h.Free(0, p2)
	e.h.Free(0, p3)
	e.checkAll(0)
}

func TestHugePageRounding(t *testing.T) {
	e := newEnv(t, testConfig(), 1, 1)
	p := e.alloc(0, largeMax+3) // not page aligned
	us := e.h.UsableSize(0, p)
	if us%PageSize != 0 || us < largeMax+3 {
		t.Fatalf("huge usable size %d not page-rounded", us)
	}
	e.h.Free(0, p)
}

func TestMaintainIsIdempotent(t *testing.T) {
	e := newEnv(t, testConfig(), 1, 1)
	p := e.alloc(0, largeMax+1)
	e.h.Maintain(0)
	e.h.Maintain(0)
	e.h.Free(0, p)
	e.h.Maintain(0)
	e.h.Maintain(0)
	e.checkAll(0)
}
