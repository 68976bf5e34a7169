package core

import (
	"sync"
	"testing"

	"cxlalloc/internal/vas"
)

// TestHazardReclaimVsRecoveryRebind races the owner's hazard-offset
// reclamation against a concurrent recovery that rebinds the hazard
// holder to a fresh address space.
//
// Thread 0 (process 0) owns a huge allocation H; thread 2 (process 1)
// touches H, which publishes thread 2's hazard and maps H into space 1.
// Thread 2 then dies and is recovered into a brand-new space while
// thread 0 frees H and hammers Maintain. Safety requires:
//
//  1. The fresh space never maps H — recovery rebinds ownership, not
//     data mappings; pages fault back in on demand, and a freed
//     allocation must fault, not read stale memory.
//  2. H is never reclaimed while the dead incarnation's hazard is
//     published: the hazard word is HWcc state that survives the crash,
//     so the owner stays conservative until the new incarnation's own
//     Maintain retires it (rule 2's unmap-then-clear, against the fresh
//     space, where the unmap is a no-op).
//  3. After the new incarnation Maintains, the owner's reclamation goes
//     through and the region is reusable.
func TestHazardReclaimVsRecoveryRebind(t *testing.T) {
	cfg := testConfig()
	e := newEnv(t, cfg, 2, 2)
	h := e.h

	hugeSize := largeMax + 1 // smallest size that routes to the huge heap
	p := e.alloc(0, hugeSize)
	n := uint64(h.UsableSize(0, p))

	// Thread 2 (space 1) reads H: fault -> publish hazard -> map.
	e.spaces[1].Touch(2, p, n)
	if !e.spaces[1].MappedRange(p, n) {
		t.Fatal("touch did not map H into space 1")
	}

	h.MarkCrashed(2)
	h.MarkCrashed(3) // space 1 dies wholesale; only thread 2 gets rebound

	fresh := vas.NewSpace(2, e.dev, PageSize)
	fresh.SetHandler(func(tid int, s *vas.Space, page uint64) bool {
		return h.HandleFault(tid, s.Install, page)
	})

	// Owner frees H while the rebind runs. The free itself only sets the
	// free bit and drops thread 0's own mapping+hazard; reclamation must
	// keep failing against thread 2's surviving hazard.
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		h.Free(0, p)
		for i := 0; i < 64; i++ {
			h.Maintain(0)
		}
	}()
	go func() {
		defer wg.Done()
		if _, err := h.RecoverThread(2, fresh); err != nil {
			t.Errorf("RecoverThread: %v", err)
		}
	}()
	wg.Wait()

	if fresh.MappedRange(p, 1) {
		t.Fatal("recovery mapped the freed allocation into the fresh space")
	}
	if !h.Alive(2) {
		t.Fatal("thread 2 not alive after rebind")
	}

	// The dead incarnation's hazard survived the crash, so however the
	// interleaving went, the owner cannot have reclaimed H yet.
	ts0 := h.ts(0)
	if !h.hazardPublished(ts0, p) {
		t.Fatal("hazard for H vanished without the new incarnation's Maintain")
	}
	h.Maintain(0)
	if !h.hazardPublished(ts0, p) {
		t.Fatal("owner's Maintain cleared a foreign hazard")
	}

	// New incarnation's Maintain retires the stale hazard (the unmap half
	// is a no-op on the fresh space); then the owner reclaims.
	h.Maintain(2)
	if h.hazardPublished(ts0, p) {
		t.Fatal("new incarnation's Maintain left the stale hazard")
	}
	h.Maintain(0)

	// The region is reusable: the owner can carve the same space again,
	// and the fresh space still faults H back in only via a live
	// descriptor.
	q := e.alloc(0, hugeSize)
	e.spaces[1].Touch(2, q, 64)
	h.Free(0, q)
	h.Maintain(2)
	h.Maintain(0)
	e.checkAll(0)
	e.checkAll(2)
}
