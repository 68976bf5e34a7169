package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"cxlalloc/internal/crash"
	"cxlalloc/internal/xrand"
)

// crashEnv builds a pod with a crash injector installed.
func crashEnv(t *testing.T) (*env, *crash.Injector) {
	cfg := testConfig()
	cfg.CheckInvariants = false // checked explicitly after recovery
	inj := crash.NewInjector()
	inj.EnableCoverage() // visit counting stays exact even when unarmed
	cfg.Crash = inj
	e := newEnv(t, cfg, 2, 2) // tids 0,1 in proc 0; 2,3 in proc 1
	return e, inj
}

// smallBlocks is the number of top-class blocks per small slab.
func smallBlocks(e *env) int { return SmallSlabSize / smallMax }

// White-box crash scenarios (§5.1): each drives thread 0 through a
// specific crash point. The scenario returns any pointers other threads
// should free afterwards.
var crashScenarios = map[string]func(e *env) []Ptr{
	"small.extend.pre-cas":  func(e *env) []Ptr { e.h.Alloc(0, 64); return nil },
	"small.extend.post-cas": func(e *env) []Ptr { e.h.Alloc(0, 64); return nil },
	"small.extend.post-push": func(e *env) []Ptr {
		e.h.Alloc(0, 64)
		return nil
	},
	"small.init.post-oplog":    func(e *env) []Ptr { e.h.Alloc(0, 64); return nil },
	"small.init.post-desc":     func(e *env) []Ptr { e.h.Alloc(0, 64); return nil },
	"small.init.post-counter":  func(e *env) []Ptr { e.h.Alloc(0, 64); return nil },
	"small.init.post-push":     func(e *env) []Ptr { e.h.Alloc(0, 64); return nil },
	"small.alloc.post-oplog":   func(e *env) []Ptr { e.h.Alloc(0, 64); return nil },
	"small.alloc.post-take":    func(e *env) []Ptr { e.h.Alloc(0, 64); return nil },
	"small.detach.post-oplog":  fillOneSlab,
	"small.detach.post-flush":  fillOneSlab,
	"small.detach.post-unlink": fillOneSlab,
	"small.disown.post-oplog":  fillMixedSlab,
	"small.disown.post-flush":  fillMixedSlab,
	"small.disown.post-unlink": fillMixedSlab,
	"small.local-free.post-oplog": func(e *env) []Ptr {
		p := mustAlloc(e, 0, 64)
		e.h.Free(0, p)
		return nil
	},
	"small.local-free.post-put": func(e *env) []Ptr {
		p := mustAlloc(e, 0, 64)
		e.h.Free(0, p)
		return nil
	},
	"small.local-free.post-reattach": func(e *env) []Ptr {
		ptrs := fillExactlyOneSlab(e, 0)
		e.h.Free(0, ptrs[0]) // frees into a detached slab -> reattach
		return ptrs[1:]
	},
	"small.empty.post-oplog":  emptyOneSlab,
	"small.empty.post-unlink": emptyOneSlab,
	"small.empty.post-push":   emptyOneSlab,
	"small.remote-free.pre-cas": func(e *env) []Ptr {
		p := mustAlloc(e, 1, 64)
		e.h.Free(0, p) // tid 0 frees tid 1's block: remote
		return nil
	},
	"small.remote-free.post-cas": func(e *env) []Ptr {
		p := mustAlloc(e, 1, 64)
		e.h.Free(0, p)
		return nil
	},
	"small.steal.post-oplog":     stealScenario,
	"small.steal.post-clear":     stealScenario,
	"small.steal.post-push":      stealScenario,
	"small.push-global.pre-cas":  spillScenario,
	"small.push-global.post-cas": spillScenario,
	"small.pop-global.pre-cas":   popGlobalScenario,
	"small.pop-global.post-cas":  popGlobalScenario,
	"small.pop-global.post-push": popGlobalScenario,
	"huge.reserve.pre-cas":       func(e *env) []Ptr { e.h.Alloc(0, largeMax+1); return nil },
	"huge.reserve.post-cas":      func(e *env) []Ptr { e.h.Alloc(0, largeMax+1); return nil },
	"huge.alloc.post-oplog":      func(e *env) []Ptr { e.h.Alloc(0, largeMax+1); return nil },
	"huge.alloc.post-desc":       func(e *env) []Ptr { e.h.Alloc(0, largeMax+1); return nil },
	"huge.alloc.post-link":       func(e *env) []Ptr { e.h.Alloc(0, largeMax+1); return nil },
	"huge.alloc.post-hazard":     func(e *env) []Ptr { e.h.Alloc(0, largeMax+1); return nil },
	"huge.free.post-oplog":       hugeFreeScenario,
	"huge.free.post-bit":         hugeFreeScenario,
	"huge.free.post-unmap":       hugeFreeScenario,
	"huge.reclaim.post-oplog":    hugeReclaimScenario,
	"huge.reclaim.post-unlink":   hugeReclaimScenario,
	"huge.reclaim.post-clear":    hugeReclaimScenario,
	"huge.unmap.post-oplog":      hugeUnmapScenario,
	"huge.unmap.post-unmap":      hugeUnmapScenario,
}

func mustAlloc(e *env, tid, size int) Ptr {
	p, err := e.h.Alloc(tid, size)
	if err != nil {
		panic(err)
	}
	return p
}

func fillExactlyOneSlab(e *env, tid int) []Ptr {
	ptrs := make([]Ptr, smallBlocks(e))
	for i := range ptrs {
		ptrs[i] = mustAlloc(e, tid, smallMax)
	}
	return ptrs
}

func fillOneSlab(e *env) []Ptr {
	return fillExactlyOneSlab(e, 0)
}

// fillMixedSlab drives the disown transition: a remote free lands while
// the slab is active, then the slab fills.
func fillMixedSlab(e *env) []Ptr {
	var ptrs []Ptr
	first := mustAlloc(e, 0, smallMax)
	e.h.Free(1, first) // remote free by tid 1
	for i := 0; i < smallBlocks(e); i++ {
		ptrs = append(ptrs, mustAlloc(e, 0, smallMax))
	}
	return ptrs
}

func emptyOneSlab(e *env) []Ptr {
	ptrs := make([]Ptr, smallBlocks(e)/2)
	for i := range ptrs {
		ptrs[i] = mustAlloc(e, 0, smallMax)
	}
	for _, p := range ptrs {
		e.h.Free(0, p)
	}
	return nil
}

// stealScenario: tid 1 fills a slab; tid 0 remote-frees every block and
// steals on the last decrement.
func stealScenario(e *env) []Ptr {
	ptrs := fillExactlyOneSlab(e, 1)
	for _, p := range ptrs {
		e.h.Free(0, p)
	}
	return nil
}

// spillScenario: tid 0 empties enough slabs that the unsized list
// overflows to the global list.
func spillScenario(e *env) []Ptr {
	var ptrs []Ptr
	for i := 0; i < (e.cfg.UnsizedThreshold+3)*smallBlocks(e); i++ {
		ptrs = append(ptrs, mustAlloc(e, 0, smallMax))
	}
	for _, p := range ptrs {
		e.h.Free(0, p)
	}
	return nil
}

// popGlobalScenario: tid 1 populates the global list; tid 0 pops.
func popGlobalScenario(e *env) []Ptr {
	var ptrs []Ptr
	for i := 0; i < (e.cfg.UnsizedThreshold+3)*smallBlocks(e); i++ {
		ptrs = append(ptrs, mustAlloc(e, 1, smallMax))
	}
	for _, p := range ptrs {
		e.h.Free(1, p)
	}
	e.h.Alloc(0, 64)
	return nil
}

func hugeFreeScenario(e *env) []Ptr {
	p := mustAlloc(e, 0, largeMax+1)
	e.h.Free(0, p)
	return nil
}

func hugeReclaimScenario(e *env) []Ptr {
	p := mustAlloc(e, 0, largeMax+1)
	e.h.Free(0, p)
	e.h.Maintain(0)
	return nil
}

// hugeUnmapScenario: tid 2 (process 1) allocates; tid 0 (process 0)
// faults the mapping in, publishing its own hazard; tid 2 frees; tid 0's
// Maintain hits the hazard-sweep unmap path.
func hugeUnmapScenario(e *env) []Ptr {
	p := mustAlloc(e, 2, largeMax+1)
	e.h.Bytes(0, p, 8) // cross-process fault: hazard published for tid 0
	e.h.Free(2, p)
	e.h.Maintain(0)
	return nil
}

func TestWhiteBoxCrashRecovery(t *testing.T) {
	for point, scenario := range crashScenarios {
		t.Run(point, func(t *testing.T) {
			e, inj := crashEnv(t)
			inj.Arm(point, 0, 0)
			var leftovers []Ptr
			c := crash.Run(func() { leftovers = scenario(e) })
			if c == nil {
				t.Fatalf("scenario never reached crash point %q", point)
			}
			if c.TID != 0 || c.Point != point {
				t.Fatalf("crashed at %+v, want tid 0 at %q", c, point)
			}
			e.h.MarkCrashed(0)
			inj.Disarm()

			// Live threads are not blocked by the crash (§3.4.1): tid 1
			// keeps allocating while tid 0 is dead.
			for i := 0; i < 3; i++ {
				p := e.alloc(1, 64)
				e.h.Free(1, p)
			}

			rep, err := e.h.RecoverThread(0, e.spaces[0])
			if err != nil {
				t.Fatalf("RecoverThread: %v", err)
			}
			if rep.TID != 0 {
				t.Fatalf("report tid = %d", rep.TID)
			}
			// If recovery reports a pending allocation, adopt-then-free
			// it like a Memento-style application would.
			if rep.PendingAlloc != 0 {
				e.h.Free(0, rep.PendingAlloc)
			}
			// Leftover pointers from the scenario are still live.
			for _, p := range leftovers {
				e.h.Free(1, p)
			}
			e.checkAll(1)

			// The recovered thread is fully functional.
			var ps []Ptr
			for i := 0; i < 2*smallBlocks(e); i++ {
				ps = append(ps, e.alloc(0, smallMax))
			}
			for _, p := range ps {
				e.h.Free(0, p)
			}
			hp := e.alloc(0, largeMax+1)
			e.h.Free(0, hp)
			e.h.Maintain(0)
			e.h.Maintain(1)
			e.checkAll(0)
		})
	}
}

// Every named crash point in the allocator must appear in the white-box
// table, so new code paths cannot silently skip crash testing.
func TestCrashPointCoverage(t *testing.T) {
	e, inj := crashEnv(t)
	// Exercise every code path once with nothing armed.
	for point, scenario := range crashScenarios {
		_ = point
		if c := crash.Run(func() {
			left := scenario(e)
			for _, p := range left {
				e.h.Free(1, p)
			}
		}); c != nil {
			t.Fatalf("unarmed injector crashed: %v", c)
		}
		e.h.Maintain(0)
		e.h.Maintain(1)
	}
	for _, name := range inj.PointNames() {
		if strings.HasPrefix(name, "large.") {
			continue // large-heap points mirror small-heap ones
		}
		if _, ok := crashScenarios[name]; !ok {
			t.Errorf("crash point %q has no white-box scenario", name)
		}
	}
}

// TestSlabNotLeakedAcrossCrash verifies the redo protocol's whole point:
// a crash mid-transfer must not strand slabs. We crash at the riskiest
// points, recover, and check the heap never grows past its no-crash
// footprint when re-running the same workload.
func TestSlabNotLeakedAcrossCrash(t *testing.T) {
	for _, point := range []string{
		"small.push-global.pre-cas",
		"small.push-global.post-cas",
		"small.pop-global.pre-cas",
		"small.pop-global.post-cas",
		"small.pop-global.post-push",
		"small.extend.post-cas",
		"small.steal.post-oplog",
	} {
		t.Run(point, func(t *testing.T) {
			e, inj := crashEnv(t)
			inj.Arm(point, 0, 0)
			c := crash.Run(func() {
				scenario := crashScenarios[point]
				left := scenario(e)
				for _, p := range left {
					e.h.Free(1, p)
				}
			})
			if c == nil {
				t.Fatalf("never crashed at %q", point)
			}
			e.h.MarkCrashed(0)
			inj.Disarm()
			rep, err := e.h.RecoverThread(0, e.spaces[0])
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			if rep.PendingAlloc != 0 {
				e.h.Free(0, rep.PendingAlloc)
			}
			// Precise leak audit: every slab below the heap length must
			// be reachable (lists, global, detached, or disowned).
			if leaked := e.leakedSlabs(e.h.small); len(leaked) != 0 {
				t.Fatalf("slabs leaked across crash at %q: %v", point, leaked)
			}
			// And the recovered thread can still churn the whole heap.
			sLen, _ := e.h.HeapLengths(0)
			var ps []Ptr
			for i := 0; i < int(sLen)*smallBlocks(e); i++ {
				p, err := e.h.Alloc(0, smallMax)
				if err != nil {
					break
				}
				ps = append(ps, p)
			}
			for _, p := range ps {
				e.h.Free(0, p)
			}
			if leaked := e.leakedSlabs(e.h.small); len(leaked) != 0 {
				t.Fatalf("slabs leaked after post-crash churn: %v", leaked)
			}
			e.checkAll(0)
		})
	}
}

// A grouped remote free (FreeBatch) crashed at either side of its one
// decrement: recovery must take the countdown down by the whole group
// exactly once, steal the slab if that reaches zero, and a second
// recovery must change nothing.
func TestGroupRemoteFreeCrashRecovery(t *testing.T) {
	for _, point := range []string{
		"small.remote-free.pre-cas",
		"small.remote-free.post-cas",
		"large.remote-free.post-cas",
	} {
		for _, toZero := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/to-zero=%v", point, toZero), func(t *testing.T) {
				e, inj := crashEnv(t)
				s, size, perSlab := e.h.small, smallMax, smallBlocks(e)
				if strings.HasPrefix(point, "large.") {
					s, size = e.h.large, largeMax/4
					perSlab = LargeSlabSize / size
				}
				n := perSlab
				if !toZero {
					n = perSlab / 2
				}
				ptrs := make([]Ptr, n)
				for i := range ptrs {
					ptrs[i] = mustAlloc(e, 1, size)
				}
				idx := s.slabOf(ptrs[0])
				for _, p := range ptrs {
					if s.slabOf(p) != idx {
						t.Fatalf("blocks span slabs %d and %d", idx, s.slabOf(p))
					}
				}
				total := s.remoteCount(0, idx)
				want := total - uint32(n)
				if toZero && want != 0 {
					t.Fatalf("countdown %d for a full slab of %d blocks", total, n)
				}

				inj.Arm(point, 0, 0)
				ps := append([]Ptr(nil), ptrs...)
				if c := crash.Run(func() { e.h.FreeBatch(0, &ps) }); c == nil || c.Point != point {
					t.Fatalf("no crash at %q: %+v", point, c)
				}
				if len(ps) != 0 {
					t.Fatalf("%d pointers left in the batch; the group's record was written", len(ps))
				}
				inj.Disarm()
				for pass := 1; pass <= 2; pass++ {
					e.h.MarkCrashed(0)
					if _, err := e.h.RecoverThread(0, e.spaces[0]); err != nil {
						t.Fatalf("recovery %d: %v", pass, err)
					}
					if got := s.remoteCount(0, idx); got != want {
						t.Fatalf("countdown = %d after recovery %d, want %d", got, pass, want)
					}
					if leaked := e.leakedSlabs(s); len(leaked) != 0 {
						t.Fatalf("slabs leaked after recovery %d: %v", pass, leaked)
					}
				}
				auditDrained(t, e)
			})
		}
	}
}

// Black-box: random crashes at random points across a random workload,
// recover, repeat; invariants and functionality must hold throughout
// (§5.1's black-box methodology).
func TestBlackBoxRandomCrashRecovery(t *testing.T) {
	e, inj := crashEnv(t)
	rng := xrand.New(2026)
	var live []Ptr
	crashes := 0
	for round := 0; round < 40; round++ {
		inj.ArmRandom(0.002, rng.Uint64(), 0)
		// freeing tracks a Free in flight: if the crash interrupts it,
		// the redo protocol still completes the free (frees are
		// irrevocable once requested), so the pointer must leave the
		// live set either way.
		var freeing Ptr
		c := crash.Run(func() {
			for i := 0; i < 400; i++ {
				if rng.Intn(3) > 0 || len(live) == 0 {
					size := rng.IntRange(1, 4096)
					if rng.Intn(20) == 0 {
						size = largeMax + rng.Intn(1<<20)
					}
					p, err := e.h.Alloc(0, size)
					if err != nil {
						continue
					}
					live = append(live, p)
				} else {
					i := rng.Intn(len(live))
					tid := rng.Intn(2) // local or remote free
					freeing = live[i]
					live = append(live[:i], live[i+1:]...)
					e.h.Free(tid, freeing)
					freeing = 0
				}
			}
		})
		inj.Disarm()
		if c != nil {
			crashes++
			if freeing != 0 && c.TID != 0 {
				// The crash hit thread 0 while thread 1 was the freer?
				// Impossible: only tid 0 is armed. The in-flight free
				// belongs to the crashed thread's redo either way.
				t.Fatalf("crash attribution confused: %+v", c)
			}
			e.h.MarkCrashed(0)
			// The live thread keeps working while tid 0 is down.
			p := e.alloc(1, 128)
			e.h.Free(1, p)
			rep, err := e.h.RecoverThread(0, e.spaces[0])
			if err != nil {
				t.Fatalf("round %d: recover: %v", round, err)
			}
			if rep.PendingAlloc != 0 {
				live = append(live, rep.PendingAlloc)
			}
		}
		e.h.Maintain(0)
		e.h.Maintain(1)
		e.checkAll(0)
	}
	if crashes == 0 {
		t.Fatal("random injector never fired; test exercised nothing")
	}
	for _, p := range live {
		e.h.Free(1, p)
	}
	e.h.Maintain(0)
	e.h.Maintain(1)
	e.checkAll(0)
	t.Logf("survived %d random crashes", crashes)
}

func TestRecoverErrors(t *testing.T) {
	e, _ := crashEnv(t)
	// A live (never-crashed) slot is the typed ErrNotCrashed.
	if _, err := e.h.RecoverThread(0, e.spaces[0]); !errors.Is(err, ErrNotCrashed) {
		t.Fatalf("recovering a live thread: err = %v, want ErrNotCrashed", err)
	}
	// So is an already-recovered slot.
	e.h.MarkCrashed(0)
	if _, err := e.h.RecoverThread(0, e.spaces[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := e.h.RecoverThread(0, e.spaces[0]); !errors.Is(err, ErrNotCrashed) {
		t.Fatalf("recovering twice: err = %v, want ErrNotCrashed", err)
	}
	// Never-attached and out-of-range slots are plain errors, not
	// ErrNotCrashed: there is no slot state to speak about.
	if _, err := e.h.RecoverThread(7, e.spaces[0]); err == nil || errors.Is(err, ErrNotCrashed) {
		t.Fatalf("recovering a never-attached thread: err = %v", err)
	}
	if _, err := e.h.RecoverThread(-1, e.spaces[0]); err == nil || errors.Is(err, ErrNotCrashed) {
		t.Fatalf("recovering tid -1: err = %v", err)
	}
}

// MarkCrashed is idempotent: re-marking a dead slot or marking a
// never-attached one must not panic and must not corrupt state.
func TestMarkCrashedIdempotent(t *testing.T) {
	e, _ := crashEnv(t)
	e.h.MarkCrashed(5)  // never attached: no-op
	e.h.MarkCrashed(-1) // out of range: no-op
	p := e.alloc(0, 64)
	e.h.MarkCrashed(0)
	e.h.MarkCrashed(0) // second mark: drains again, stays dead
	if e.h.Alive(0) {
		t.Fatal("thread alive after MarkCrashed")
	}
	if _, err := e.h.RecoverThread(0, e.spaces[0]); err != nil {
		t.Fatal(err)
	}
	e.h.Free(0, p)
	e.checkAll(0)
}

// A crash with no operation in flight recovers to a clean, working state.
func TestRecoverCleanCrash(t *testing.T) {
	e, _ := crashEnv(t)
	p := e.alloc(0, 64)
	e.h.MarkCrashed(0)
	rep, err := e.h.RecoverThread(0, e.spaces[0])
	if err != nil {
		t.Fatal(err)
	}
	if rep.Op != "none" || rep.PendingAlloc != 0 {
		t.Fatalf("clean crash report = %+v", rep)
	}
	e.h.Free(0, p) // pre-crash allocation survives and is freeable
	e.checkAll(0)
}

// Recovery into a NEW process (the old one died): mappings are gone and
// must fault back in.
func TestRecoverIntoFreshProcess(t *testing.T) {
	e, _ := crashEnv(t)
	p := e.alloc(0, 512)
	copy(e.h.Bytes(0, p, 4), "data")
	e.h.MarkCrashed(0)
	// Simulate process death: recover tid 0 into process 1's space.
	if _, err := e.h.RecoverThread(0, e.spaces[1]); err != nil {
		t.Fatal(err)
	}
	if got := string(e.h.Bytes(0, p, 4)); got != "data" {
		t.Fatalf("data lost across process restart: %q", got)
	}
	e.h.Free(0, p)
	e.checkAll(0)
}
