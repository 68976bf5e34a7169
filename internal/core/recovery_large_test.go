package core

import (
	"fmt"
	"testing"

	"cxlalloc/internal/crash"
)

// largeBlocks allocates with the top large class: one block per slab,
// so full/empty transitions happen on every alloc/free.
func largeAllocTop(e *env, tid int) Ptr {
	return mustAlloc(e, tid, largeMax)
}

// White-box crash scenarios for the large heap, mirroring the small
// heap's (the machinery is shared, but the op codes, descriptor
// geometry, and one-block-per-slab edge cases are not).
var largeCrashScenarios = map[string]func(e *env) []Ptr{
	"large.extend.pre-cas":  func(e *env) []Ptr { largeAllocTop(e, 0); return nil },
	"large.extend.post-cas": func(e *env) []Ptr { largeAllocTop(e, 0); return nil },
	"large.init.post-desc":  func(e *env) []Ptr { largeAllocTop(e, 0); return nil },
	"large.alloc.post-take": func(e *env) []Ptr { largeAllocTop(e, 0); return nil },
	// Top-class slabs go full after ONE allocation: detach fires
	// immediately.
	"large.detach.post-flush": func(e *env) []Ptr { largeAllocTop(e, 0); return nil },
	// A local free of a one-block slab is simultaneously a reattach and
	// an empty transition.
	"large.local-free.post-put": func(e *env) []Ptr {
		p := largeAllocTop(e, 0)
		e.h.Free(0, p)
		return nil
	},
	"large.empty.post-unlink": func(e *env) []Ptr {
		p := largeAllocTop(e, 0)
		e.h.Free(0, p)
		return nil
	},
	"large.remote-free.post-cas": func(e *env) []Ptr {
		p := largeAllocTop(e, 1)
		e.h.Free(0, p)
		return nil
	},
	// Remote free of the only block drives the countdown to zero: steal.
	"large.steal.post-push": func(e *env) []Ptr {
		p := largeAllocTop(e, 1)
		e.h.Free(0, p)
		return nil
	},
	"large.push-global.post-cas": func(e *env) []Ptr {
		var ps []Ptr
		for i := 0; i < (e.cfg.UnsizedThreshold+3)*1; i++ {
			ps = append(ps, largeAllocTop(e, 0))
		}
		for _, p := range ps {
			e.h.Free(0, p)
		}
		return nil
	},
	"large.pop-global.post-cas": func(e *env) []Ptr {
		var ps []Ptr
		for i := 0; i < e.cfg.UnsizedThreshold+3; i++ {
			ps = append(ps, largeAllocTop(e, 1))
		}
		for _, p := range ps {
			e.h.Free(1, p)
		}
		largeAllocTop(e, 0)
		return nil
	},
}

func TestWhiteBoxCrashRecoveryLargeHeap(t *testing.T) {
	for point, scenario := range largeCrashScenarios {
		t.Run(point, func(t *testing.T) {
			e, inj := crashEnv(t)
			inj.Arm(point, 0, 0)
			var leftovers []Ptr
			c := crash.Run(func() { leftovers = scenario(e) })
			if c == nil {
				t.Fatalf("scenario never reached %q", point)
			}
			e.h.MarkCrashed(0)
			inj.Disarm()
			rep, err := e.h.RecoverThread(0, e.spaces[0])
			if err != nil {
				t.Fatalf("RecoverThread: %v", err)
			}
			if rep.PendingAlloc != 0 {
				e.h.Free(0, rep.PendingAlloc)
			}
			for _, p := range leftovers {
				e.h.Free(1, p)
			}
			if leaked := e.leakedSlabs(e.h.large); len(leaked) != 0 {
				t.Fatalf("large slabs leaked across crash at %q: %v", point, leaked)
			}
			// Post-recovery churn through the large heap.
			var ps []Ptr
			for i := 0; i < 4; i++ {
				ps = append(ps, largeAllocTop(e, 0))
			}
			for _, p := range ps {
				e.h.Free(0, p)
			}
			e.checkAll(0)
		})
	}
}

// Mixed-heap crash: an operation on the small heap must not disturb
// large-heap state and vice versa (op codes carry the heap bit).
func TestCrashRecoveryHeapIsolation(t *testing.T) {
	e, inj := crashEnv(t)
	pl := largeAllocTop(e, 0)
	copy(e.h.Bytes(0, pl, 8), "LARGEOK!")
	inj.Arm("small.alloc.post-take", 0, 0)
	c := crash.Run(func() { e.h.Alloc(0, 64) })
	if c == nil {
		t.Fatal("no crash")
	}
	e.h.MarkCrashed(0)
	rep, err := e.h.RecoverThread(0, e.spaces[0])
	if err != nil {
		t.Fatal(err)
	}
	if rep.Op != "alloc-block" {
		t.Fatalf("op = %q", rep.Op)
	}
	if rep.PendingAlloc != 0 {
		e.h.Free(0, rep.PendingAlloc)
	}
	if got := string(e.h.Bytes(0, pl, 8)); got != "LARGEOK!" {
		t.Fatalf("large allocation disturbed: %q", got)
	}
	e.h.Free(0, pl)
	e.checkAll(0)
}

// A remote free whose decrement landed but did not reach zero must not
// steal in redo, even when the countdown reads zero by then: thread 0
// crashes after taking a two-block slab from 2 to 1, and before thread
// 0 is recovered thread 2 frees the last block and steals the slab
// itself. Redo reading that zero as its own stole the slab twice: kept
// on thread 2's unsized list, or — when thread 2 already held
// UnsizedThreshold slabs and its steal spilled — on the global free
// list, stamped with thread 0 as owner.
func TestRemoteFreeRedoLeavesASurvivorsSteal(t *testing.T) {
	for _, spilled := range []bool{false, true} {
		t.Run(fmt.Sprintf("spilled=%v", spilled), func(t *testing.T) {
			e, inj := crashEnv(t)
			if spilled {
				ps := []Ptr{largeAllocTop(e, 2), largeAllocTop(e, 2)}
				for _, p := range ps {
					e.h.Free(2, p) // two empty slabs on thread 2's unsized list
				}
			}
			p, q := mustAlloc(e, 1, largeMax/2), mustAlloc(e, 1, largeMax/2)
			inj.Arm("large.remote-free.post-cas", 0, 0)
			if c := crash.Run(func() { e.h.Free(0, p) }); c == nil {
				t.Fatal("remote free never reached large.remote-free.post-cas")
			}
			e.h.MarkCrashed(0)
			inj.Disarm()
			e.h.Free(2, q) // the last block: thread 2 steals the slab
			if _, err := e.h.RecoverThread(0, e.spaces[0]); err != nil {
				t.Fatalf("RecoverThread: %v", err)
			}
			e.checkAll(0)
			if leaked := e.leakedSlabs(e.h.large); len(leaked) != 0 {
				t.Fatalf("large slabs leaked: %v", leaked)
			}
		})
	}
}
