package core

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"strings"
	"testing"

	"cxlalloc/internal/crash"
	"cxlalloc/internal/memsim"
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
	"huge.hazard.post-slot":      func(e *env) []Ptr { e.h.Alloc(0, largeMax+1); return nil },
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

// A crash between a publication's slot store and its mask store leaves
// an orphan: the slot holds the offset, its bit is clear. The orphan is
// no hazard — the mapping was never installed (rule 1) — so after
// recovery the owner must reclaim the block at once. Here the crash is
// in the fault handler: tid 0 (process 0) maps tid 2's (process 1)
// block, which writes no oplog record.
func TestHazardPublishCrashLeavesOrphanInvisible(t *testing.T) {
	e, inj := crashEnv(t)
	const mapper, owner = 0, 2
	p := mustAlloc(e, owner, largeMax+1)
	inj.Arm("huge.hazard.post-slot", mapper, 0)
	if c := crash.Run(func() { e.h.Bytes(mapper, p, 8) }); c == nil || c.TID != mapper {
		t.Fatalf("crashed at %+v, want tid %d at huge.hazard.post-slot", c, mapper)
	}
	e.h.MarkCrashed(mapper)
	inj.Disarm()
	if _, err := e.h.RecoverThread(mapper, e.spaces[0]); err != nil {
		t.Fatalf("RecoverThread: %v", err)
	}

	ts := e.h.ts(owner)
	if v := e.h.hugeLoad(ts, e.h.hazardW(mapper, 0)); v != p {
		t.Fatalf("slot 0 holds %#x after the crash, want the orphan %#x", v, p)
	}
	if m := e.h.hugeLoad(ts, e.h.hazardMaskW(mapper)); m != 0 {
		t.Fatalf("hazard mask %#x after a crash before the mask store", m)
	}
	if _, _, ok := e.h.findHazard(ts, mapper, p); ok {
		t.Fatal("a hazard scan sees an orphan slot whose bit is clear")
	}
	e.h.Free(owner, p) // frees, retires the owner's own hazard, then reclaims
	if _, ok := e.h.findDesc(ts, owner, p); ok {
		t.Fatal("the orphan slot held back the owner's reclaim")
	}
	e.checkAll(owner)
	if err := e.h.AuditEmpty(owner); err != nil {
		t.Fatal(err)
	}
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
// recovery must change nothing. With the freer's unsized list already
// at its spill threshold, the stolen slab must spill to the global list
// as a finished steal's would, not overflow the rebuilt list.
//
// A grouped local free, a run of the freer's own blocks in one bitset
// word, is crashed at every local-free.* point its FreeBatch visits,
// under every persist subset of the crash's in-play lines
// (localRunCrash): after recovery every block of the run is free exactly
// once. So are the same blocks freed one at a time through Free, which
// commits them with the magazine line, crashed at the first visit of
// that magfree.* point (localFreeCrash).
func TestGroupRemoteFreeCrashRecovery(t *testing.T) {
	for _, r := range localRunCrashes {
		for _, point := range localRunPoints(t, r) {
			t.Run("local-run/"+r.name+"/"+point, func(t *testing.T) {
				everyPersistSubset(t, point, func(pol func(n int) memsim.CrashPolicy) {
					localRunCrash(t, r, point, pol)
				})
			})
		}
		if r.freePoint != "" {
			t.Run("local-run/"+r.name+"/"+r.freePoint, func(t *testing.T) {
				everyPersistSubset(t, r.freePoint, func(pol func(n int) memsim.CrashPolicy) {
					localFreeCrash(t, r, pol)
				})
			})
		}
	}
	for _, point := range []string{
		"small.remote-free.pre-cas",
		"small.remote-free.post-cas",
		"large.remote-free.post-cas",
	} {
		for _, c := range []struct{ toZero, fullUnsized bool }{{false, false}, {true, false}, {true, true}} {
			toZero := c.toZero
			name := fmt.Sprintf("%s/to-zero=%v", point, toZero)
			if c.fullUnsized {
				name += "/unsized-full"
			}
			t.Run(name, func(t *testing.T) {
				e, inj := crashEnv(t)
				s, size, perSlab := e.h.small, smallMax, smallBlocks(e)
				if strings.HasPrefix(point, "large.") {
					s, size = e.h.large, largeMax/4
					perSlab = LargeSlabSize / size
				}
				if c.fullUnsized {
					// Empty UnsizedThreshold slabs of thread 0 through the
					// classic local free path, leaving them on its unsized list.
					var own []Ptr
					for i := 0; i < e.cfg.UnsizedThreshold*perSlab; i++ {
						own = append(own, mustAlloc(e, 0, size))
					}
					for _, p := range own {
						e.h.Free(0, p)
					}
					ts := &e.h.threads[0]
					if got := s.tlLen(ts, s.localW(0, 0), 8); got != e.cfg.UnsizedThreshold {
						t.Fatalf("thread 0's unsized list has %d slabs, want %d", got, e.cfg.UnsizedThreshold)
					}
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

// localRunCrashes are the local runs the crash table crashes: every
// path of localRuns, a classic run that reattaches a full slab, and a
// classic run that empties its slab.
var localRunCrashes = append(slices.Clone(localRuns),
	localRun{name: "classic-reattach", setup: func(t *testing.T, e *env, k int) ([]Ptr, []Ptr) {
		full := fillExactlyOneSlab(e, 0)
		return full[:k], full[k:]
	}},
	localRun{name: "classic-empty", setup: func(t *testing.T, e *env, k int) ([]Ptr, []Ptr) {
		run := allocClass(e, 64, k)
		e.h.DrainMagazines(0)
		return run, nil
	}},
)

// localRunK is how many blocks each crashed local run frees.
const localRunK = 4

// localRunPoints returns the local-free.* points run r's FreeBatch
// visits, sorted by name.
func localRunPoints(t *testing.T, r localRun) []string {
	e, inj := costEnv(t)
	inj.EnableCoverage()
	run, _ := r.setup(t, e, localRunK)
	before := inj.Points()
	freeBatch(t, e, 0, run)
	after := inj.Points()
	var points []string
	for _, p := range inj.PointNames() {
		if after[p] > before[p] && strings.Contains(p, ".local-free.") {
			points = append(points, p)
		}
	}
	if len(points) == 0 {
		t.Fatalf("%s run visited no local-free point", r.name)
	}
	return points
}

// everyPersistSubset runs crash once with every in-play line of its
// crash persisted, to learn how many lines are in play, then once per
// other subset of them.
func everyPersistSubset(t *testing.T, point string, crash func(pol func(n int) memsim.CrashPolicy)) {
	t.Helper()
	window := -1
	crash(func(n int) memsim.CrashPolicy {
		window = n
		return memsim.CrashPolicy{Kind: memsim.PersistAll}
	})
	if window > 10 {
		t.Fatalf("%d in-play lines at %s: too many subsets to enumerate", window, point)
	}
	t.Logf("%d in-play lines, %d persist subsets", window, 1<<uint(window))
	for mask := uint64(0); mask < 1<<uint(window)-1; mask++ {
		crash(func(int) memsim.CrashPolicy {
			return memsim.CrashPolicy{Kind: memsim.PersistSubset, Mask: mask}
		})
	}
}

// firstCrashEnv is an incoherent pod whose first crash resolves its
// in-play lines by pol; later crashes persist them all.
func firstCrashEnv(t *testing.T, pol func(n int) memsim.CrashPolicy) (*env, *crash.Injector) {
	e, inj := magCrashEnv(t, true)
	applied := false
	e.h.SetCrashPersistPolicy(func(_ int, inPlay []int32) memsim.CrashPolicy {
		if applied {
			return memsim.CrashPolicy{Kind: memsim.PersistAll}
		}
		applied = true
		return pol(len(inPlay))
	})
	return e, inj
}

// crashRecoverTwice crashes thread 0 at point inside op and recovers it
// twice; op allocates nothing the caller holds, so no recovery may
// report a pending allocation.
func crashRecoverTwice(t *testing.T, e *env, inj *crash.Injector, point string, op func()) {
	t.Helper()
	crashRecoverTwiceAt(t, e, inj, point, 0, op)
}

// crashRecoverTwiceAt is crashRecoverTwice at point's visit after+1.
func crashRecoverTwiceAt(t *testing.T, e *env, inj *crash.Injector, point string, after int, op func()) {
	t.Helper()
	if p := crashRecoverTwicePending(t, e, inj, point, after, op); p != 0 {
		t.Fatalf("recovery reported %#x pending; no allocation was in flight", p)
	}
}

// crashRecoverTwicePending crashes thread 0 at point's visit after+1
// inside op and recovers it twice. It returns the allocation the first
// recovery reports pending; the second, after a committed recovery,
// must report none.
func crashRecoverTwicePending(t *testing.T, e *env, inj *crash.Injector, point string, after int, op func()) Ptr {
	t.Helper()
	inj.Arm(point, 0, after)
	if c := crash.Run(op); c == nil || c.Point != point {
		t.Fatalf("no crash at %q: %+v", point, c)
	}
	inj.Disarm()
	var pending Ptr
	for pass := 1; pass <= 2; pass++ {
		e.h.MarkCrashed(0)
		rep, err := e.h.RecoverThread(0, e.spaces[0])
		if err != nil {
			t.Fatalf("recovery %d: %v", pass, err)
		}
		if pass == 1 {
			pending = rep.PendingAlloc
		} else if rep.PendingAlloc != 0 {
			t.Fatalf("recovery %d reported %#x pending after a committed recovery", pass, rep.PendingAlloc)
		}
	}
	return pending
}

// localRunCrash crashes thread 0 at point inside run r's FreeBatch on an
// incoherent pod, resolves that crash's in-play lines by pol, and
// recovers twice. The run's blocks must then be free exactly once: the
// rest of the heap freed, the ledger audits clean, and no recovery
// reports a pending allocation.
func localRunCrash(t *testing.T, r localRun, point string, pol func(n int) memsim.CrashPolicy) {
	t.Helper()
	e, inj := firstCrashEnv(t, pol)
	run, keep := r.setup(t, e, localRunK)
	ps := slices.Clone(run)
	crashRecoverTwice(t, e, inj, point, func() { e.h.FreeBatch(0, &ps) })
	if len(ps) != 0 {
		t.Fatalf("%d pointers left in the batch; the run's commit had begun", len(ps))
	}
	for _, p := range keep {
		e.h.Free(0, p)
	}
	auditDrained(t, e)
}

// localFreeCrash frees run r's blocks on thread 0 one at a time through
// Free, crashes the first at r.freePoint, resolves that crash's in-play
// lines by pol, and recovers twice: the crashed free was committed, the
// rest of the run is freed after, and the ledger must audit clean.
func localFreeCrash(t *testing.T, r localRun, pol func(n int) memsim.CrashPolicy) {
	t.Helper()
	e, inj := firstCrashEnv(t, pol)
	run, keep := r.setup(t, e, localRunK)
	crashRecoverTwice(t, e, inj, r.freePoint, func() {
		for _, p := range run {
			e.h.Free(0, p)
		}
	})
	for _, p := range append(run[1:], keep...) {
		e.h.Free(0, p)
	}
	auditDrained(t, e)
}

// A group of classic local-free runs committed by one record in a
// magazine line, crashed at every visit of every point its FreeBatch reaches
// under every persist subset of the crash's in-play lines, then
// recovered twice: every block is then free exactly once. The cells
// cover groups of one, two and three runs, with a run that reattaches
// a detached slab, a run that empties its slab, two runs of one slab of
// which the first reattaches it and the second empties it, and a group
// whose runs are in both heaps.
func TestLocalFreeGroupCrashRecovery(t *testing.T) {
	for _, cell := range localGroupCells {
		for _, v := range localGroupVisits(t, cell) {
			t.Run(fmt.Sprintf("%s/%s#%d", cell.name, v.point, v.after), func(t *testing.T) {
				everyPersistSubset(t, v.point, func(pol func(n int) memsim.CrashPolicy) {
					localGroupCrash(t, cell, v.point, v.after, pol)
				})
			})
		}
	}
}

// groupRun sets up runs on thread 0 of e, which setupGroup frees outside
// any window: it returns their blocks and the blocks still to free
// afterwards. Each uses a class of its own, so a cell's runs land in
// distinct slabs.
type groupRun func(e *env) (run, keep []Ptr)

var (
	// reattachRun frees four blocks of a full 1 KiB slab, which the
	// classic take of its last block detached.
	reattachRun groupRun = func(e *env) ([]Ptr, []Ptr) {
		full := fillExactlyOneSlab(e, 0)
		return full[:localRunK], full[localRunK:]
	}
	// emptyRun frees the only three blocks allocated from a 512 B slab,
	// which empties it.
	emptyRun groupRun = func(e *env) ([]Ptr, []Ptr) {
		return allocClass(e, 512, 3), nil
	}
	// plainRun frees three of six 64 B blocks.
	plainRun groupRun = func(e *env) ([]Ptr, []Ptr) {
		ptrs := allocClass(e, 64, 6)
		return ptrs[:3], ptrs[3:]
	}
	// oneSlabRuns frees a full 256 B slab, two bitset words: the first
	// run to land reattaches the slab, the second empties it.
	oneSlabRuns groupRun = func(e *env) ([]Ptr, []Ptr) {
		return allocClass(e, 256, SmallSlabSize/256), nil
	}
	// largeRun frees two of four 4 KiB blocks of the large heap: its
	// record word names the large heap.
	largeRun groupRun = func(e *env) ([]Ptr, []Ptr) {
		ptrs := allocClass(e, 4096, 4)
		return ptrs[:2], ptrs[2:]
	}
)

// allocClass has thread 0 allocate n size-byte blocks.
func allocClass(e *env, size, n int) []Ptr {
	ptrs := make([]Ptr, n)
	for i := range ptrs {
		ptrs[i] = mustAlloc(e, 0, size)
	}
	return ptrs
}

// groupCell is one group TestLocalFreeGroupCrashRecovery crashes: its
// runs' setups, in a class each.
type groupCell struct {
	name string
	runs []groupRun
}

var localGroupCells = []groupCell{
	{"1-run/empty", []groupRun{emptyRun}},
	{"2-run/reattach+empty", []groupRun{reattachRun, emptyRun}},
	{"3-run/reattach+empty+plain", []groupRun{reattachRun, emptyRun, plainRun}},
	{"2-run/one-slab", []groupRun{oneSlabRuns}},
	{"2-run/large+plain", []groupRun{largeRun, plainRun}},
}

// setupGroup runs a cell's setups on thread 0 of e, then drains its
// magazines, so every run is outside any window, and returns the
// group's blocks and the blocks still to free afterwards.
func setupGroup(e *env, runs []groupRun) (group, keep []Ptr) {
	for _, r := range runs {
		run, k := r(e)
		group, keep = append(group, run...), append(keep, k...)
	}
	e.h.DrainMagazines(0)
	return group, keep
}

// groupVisit is one crash of a group: the visit after+1 of point.
type groupVisit struct {
	point string
	after int
}

// localGroupVisits returns every visit of every point a cell's
// FreeBatch reaches, and checks the group took exactly one record.
func localGroupVisits(t *testing.T, cell groupCell) []groupVisit {
	e, inj := costEnv(t)
	inj.EnableCoverage()
	group, _ := setupGroup(e, cell.runs)
	before := inj.Points()
	freeBatch(t, e, 0, group)
	after := inj.Points()
	records := uint64(0)
	for _, heap := range []string{"small", "large"} {
		p := heap + ".local-free.post-oplog"
		records += after[p] - before[p]
	}
	if records != 1 {
		t.Fatalf("%s: %d local-free records, want 1", cell.name, records)
	}
	var visits []groupVisit
	for _, p := range inj.PointNames() {
		for i := 0; i < int(after[p]-before[p]); i++ {
			visits = append(visits, groupVisit{p, i})
		}
	}
	return visits
}

// localGroupCrash crashes thread 0 at the visit after+1 of point inside
// the cell's FreeBatch on an incoherent pod, resolves that crash's
// in-play lines by pol, recovers twice, frees the rest and audits the
// ledger.
func localGroupCrash(t *testing.T, cell groupCell, point string, after int, pol func(n int) memsim.CrashPolicy) {
	t.Helper()
	e, inj := firstCrashEnv(t, pol)
	group, keep := setupGroup(e, cell.runs)
	ps := slices.Clone(group)
	crashRecoverTwiceAt(t, e, inj, point, after, func() { e.h.FreeBatch(0, &ps) })
	if len(ps) != 0 {
		t.Fatalf("%d pointers left in the batch; the group's record was written", len(ps))
	}
	for _, p := range keep {
		e.h.Free(0, p)
	}
	auditDrained(t, e)
}

// Owed runs carried by an allocation's magazine line (AllocFreeing),
// crashed at every visit of every point the allocation reaches under
// every persist subset of the crash's in-play lines, then recovered
// twice: every block is then free or held exactly once. The block the
// allocation took is held when recovery reports it pending, and the
// pointers a crash left owed are freed after. The cells carry groups of
// one, two and three runs, with a run that reattaches a detached slab,
// a run that empties its slab, two runs of one slab, and a large-heap
// run, by a small-class pop, and a group by a refill's line.
func TestCarriedGroupCrashRecovery(t *testing.T) {
	for _, cell := range carriedCells {
		for _, v := range carriedVisits(t, cell) {
			t.Run(fmt.Sprintf("%s/%s#%d", cell.name, v.point, v.after), func(t *testing.T) {
				everyPersistSubset(t, v.point, func(pol func(n int) memsim.CrashPolicy) {
					carriedCrash(t, cell, v.point, v.after, pol)
				})
			})
		}
	}
}

// carriedCell is a group of TestLocalFreeGroupCrashRecovery's runs,
// carried by a 32 B pop or, with refill set, by a 16 B refill.
type carriedCell struct {
	groupCell
	refill bool
}

var carriedCells = []carriedCell{
	{groupCell{"pop/1-run/empty", []groupRun{emptyRun}}, false},
	{groupCell{"pop/2-run/reattach+empty", []groupRun{reattachRun, emptyRun}}, false},
	{groupCell{"pop/3-run/reattach+empty+plain", []groupRun{reattachRun, emptyRun, plainRun}}, false},
	{groupCell{"pop/2-run/one-slab", []groupRun{oneSlabRuns}}, false},
	{groupCell{"pop/2-run/large+plain", []groupRun{largeRun, plainRun}}, false},
	{groupCell{"refill/3-run/reattach+empty+plain", []groupRun{reattachRun, emptyRun, plainRun}}, true},
}

// setupCarried runs a cell's setups on thread 0 of e and opens the
// carrier's window: a 32 B one for a pop, or a 16 B one that it drains,
// so the next 16 B allocation refills from the window's slab. It
// returns the group, sorted, the blocks still to free afterwards, and
// the size the carrying allocation asks for.
func setupCarried(t *testing.T, e *env, cell carriedCell) (group, keep []Ptr, size int) {
	group, keep = setupGroup(e, cell.runs)
	size = 32
	if cell.refill {
		size = 16
	}
	_, held := warmMagazine(t, e, 0, size)
	keep = append(keep, held...)
	if cell.refill {
		e.h.DrainMagazines(0)
	}
	slices.Sort(group)
	return group, keep, size
}

// carriedVisits returns every visit of every point a cell's carrying
// allocation reaches, and checks it carried the whole group with no
// local-free record.
func carriedVisits(t *testing.T, cell carriedCell) []groupVisit {
	e, inj := costEnv(t)
	inj.EnableCoverage()
	ps, _, size := setupCarried(t, e, cell)
	before := inj.Points()
	if _, err := e.h.AllocFreeing(0, size, &ps); err != nil {
		t.Fatal(err)
	}
	after := inj.Points()
	if len(ps) != 0 {
		t.Fatalf("%s: %d pointers still owed; the allocation carries the whole group", cell.name, len(ps))
	}
	for _, heap := range []string{"small", "large"} {
		if p := heap + ".local-free.post-oplog"; after[p] != before[p] {
			t.Fatalf("%s: %d local-free records, want 0", cell.name, after[p]-before[p])
		}
	}
	if cell.refill && after["small.magrefill.post-oplog"] != before["small.magrefill.post-oplog"]+1 {
		t.Fatalf("%s: the allocation did not refill", cell.name)
	}
	var visits []groupVisit
	for _, p := range inj.PointNames() {
		for i := 0; i < int(after[p]-before[p]); i++ {
			visits = append(visits, groupVisit{p, i})
		}
	}
	return visits
}

// carriedCrash crashes thread 0 at the visit after+1 of point inside the
// cell's carrying allocation on an incoherent pod, resolves that crash's
// in-play lines by pol and recovers twice. It then frees the pending
// allocation recovery reported, if any, the pointers left owed and the
// rest, and audits the ledger.
func carriedCrash(t *testing.T, cell carriedCell, point string, after int, pol func(n int) memsim.CrashPolicy) {
	t.Helper()
	e, inj := firstCrashEnv(t, pol)
	ps, keep, size := setupCarried(t, e, cell)
	if p := crashRecoverTwicePending(t, e, inj, point, after, func() { e.h.AllocFreeing(0, size, &ps) }); p != 0 {
		keep = append(keep, p)
	}
	if len(ps) > 0 {
		e.h.FreeBatch(0, &ps)
	}
	for _, p := range keep {
		e.h.Free(0, p)
	}
	auditDrained(t, e)
}

// A magazine refill from a slab behind the sized-list head, crashed at
// either side of its first commit under every persist subset of the
// crash's in-play lines: recovery unions whatever part of the window
// reached the device back into that slab, reports the refill's pop as
// pending exactly when its block is clear in the durable bitset, and
// every block is then free or held exactly once. Each cell names the
// head's and the deeper slab's free blocks; the second is a head that
// could give only its last block.
func TestNonHeadRefillCrashRecovery(t *testing.T) {
	for _, cell := range []struct{ headFree, deepFree int }{{3, 20}, {1, 5}} {
		for _, point := range []string{"small.magrefill.post-oplog", "small.magrefill.pre-commit"} {
			name := fmt.Sprintf("head-%d/deep-%d/%s", cell.headFree, cell.deepFree, point)
			t.Run(name, func(t *testing.T) {
				everyPersistSubset(t, point, func(pol func(n int) memsim.CrashPolicy) {
					e, inj := firstCrashEnv(t, pol)
					_, deep, held := reattachedSlabs(t, e, cell.headFree, cell.deepFree)
					if idx, _, _ := e.h.small.refillSource(&e.h.threads[0], 0, smallClassOf(smallMax)); idx != deep {
						t.Fatalf("the refill would take slab %d, want %d (behind the head)", idx, deep)
					}
					refillPopCrash(t, e, inj, point, "", held)
				})
			})
		}
	}
}

// A refill's line carries the pop it was made for (magRefill). Crashed
// at every point of that alloc — the refill's first commit, the bitset
// commit's window and the pop's take — under every persist subset of
// the crash's in-play lines, with and without a crash inside the first
// recovery after reclamation: the popped block is reported pending
// exactly when its bit is clear in the durable bitset, never while it is
// also free, and not again once a recovery committed; every block is
// then free or held exactly once.
func TestRefillPopCrashRecovery(t *testing.T) {
	for _, point := range []string{"small.magrefill.post-oplog", "small.magrefill.pre-commit", "small.magalloc.post-take"} {
		for _, interrupt := range []string{"", "recover.post-redo", "recover.post-rebuild-huge"} {
			t.Run(point+"/"+cmp.Or(interrupt, "recovered"), func(t *testing.T) {
				everyPersistSubset(t, point, func(pol func(n int) memsim.CrashPolicy) {
					e, inj := firstCrashEnv(t, pol)
					// The window a fresh slab opens gives its first
					// block and is drained, so the next alloc refills
					// from the rest of the slab's word.
					held := []Ptr{e.alloc(0, smallMax)}
					e.h.DrainMagazines(0)
					refillPopCrash(t, e, inj, point, interrupt, held)
				})
			})
		}
	}
}

// An alloc on a fresh heap opens the magazine's window on a fresh slab:
// extend, init, then a refill that carries the alloc's pop (slabHeap.alloc).
// That alloc and the pop after it are crashed at every visit of every
// point they reach, under every persist subset of the crash's in-play
// lines, and recovered twice: each block is then held or free exactly
// once. The init's oplog record is cleared before the refill's first
// fence; a record left durable would have recovery re-init the slab
// under the block the first alloc handed out.
func TestWindowOpenerCrashRecovery(t *testing.T) {
	op := func(e *env, got *[]Ptr) func() {
		return func() {
			for range 2 {
				*got = append(*got, e.alloc(0, 64))
			}
		}
	}
	e, inj := costEnv(t)
	inj.EnableCoverage()
	op(e, new([]Ptr))()
	pts := inj.Points()
	for _, want := range []string{"small.init.post-oplog", "small.magrefill.post-oplog",
		"small.magrefill.pre-commit", "small.magalloc.post-take"} {
		if pts[want] == 0 {
			t.Fatalf("the opener never visited %s", want)
		}
	}
	var visits []groupVisit
	for _, p := range inj.PointNames() {
		for i := range int(pts[p]) {
			visits = append(visits, groupVisit{p, i})
		}
	}
	for _, v := range visits {
		t.Run(fmt.Sprintf("%s#%d", v.point, v.after), func(t *testing.T) {
			everyPersistSubset(t, v.point, func(pol func(n int) memsim.CrashPolicy) {
				e, inj := firstCrashEnv(t, pol)
				var held []Ptr
				if p := crashRecoverTwicePending(t, e, inj, v.point, v.after, op(e, &held)); p != 0 {
					if slices.Contains(held, p) {
						t.Fatalf("recovery reported %#x pending, which the alloc returned", p)
					}
					held = append(held, p)
				}
				for _, p := range held {
					e.h.Free(0, p)
				}
				auditDrained(t, e)
			})
		})
	}
}

// refillPopCrash crashes thread 0 at the first visit of point inside an
// alloc that refills its empty class-smallMax magazine, and recovers it;
// when interrupt names a recovery crash point, the first recovery
// crashes there and a second one runs. The refill's popped block must be
// reported pending exactly when its bit is clear in the durable bitset
// after the crash, and clear in the bitset when it is; a crash after the
// committed recovery must report nothing. held, and the pending block,
// are then freed and the ledger must audit clean.
func refillPopCrash(t *testing.T, e *env, inj *crash.Injector, point, interrupt string, held []Ptr) {
	t.Helper()
	s, class := e.h.small, smallClassOf(smallMax)
	idx, word, take := s.refillSource(&e.h.threads[0], 0, class)
	if take == 0 {
		t.Fatal("the alloc would not refill the magazine")
	}
	block := word*64 + bits.TrailingZeros64(take)
	popped := s.ptrOf(idx, block, class)
	inj.Arm(point, 0, 0)
	if c := crash.Run(func() { e.h.Alloc(0, smallMax) }); c == nil || c.Point != point {
		t.Fatalf("no crash at %q: %+v", point, c)
	}
	inj.Disarm()
	e.h.MarkCrashed(0)
	bit := uint64(1) << uint(block%64)
	durablyFree := e.dev.NewCache().LoadFresh(s.bitsetW(idx)+word)&bit != 0
	if interrupt != "" {
		inj.Arm(interrupt, 0, 0)
		if c := crash.Run(func() { e.h.RecoverThread(0, e.spaces[0]) }); c == nil {
			t.Fatalf("recovery never reached %q", interrupt)
		}
		inj.Disarm()
		e.h.MarkCrashed(0)
	}
	rep, err := e.h.RecoverThread(0, e.spaces[0])
	if err != nil {
		t.Fatalf("RecoverThread: %v", err)
	}
	switch {
	case durablyFree && rep.PendingAlloc != 0:
		t.Fatalf("popped block %#x still free in the durable bitset, but recovery reports %#x pending", popped, rep.PendingAlloc)
	case !durablyFree && rep.PendingAlloc != popped:
		t.Fatalf("popped block %#x taken from the durable bitset, but recovery reports %#x pending", popped, rep.PendingAlloc)
	case rep.PendingAlloc != 0 && s.blockBit(&e.h.threads[0], idx, block):
		t.Fatalf("pending block %#x is also free in the bitset", popped)
	}
	if rep.PendingAlloc != 0 {
		held = append(held, rep.PendingAlloc)
	}
	e.h.MarkCrashed(0)
	if again, err := e.h.RecoverThread(0, e.spaces[0]); err != nil || again.PendingAlloc != 0 {
		t.Fatalf("recovery after a committed one: pending %#x, err %v; want none", again.PendingAlloc, err)
	}
	for _, p := range held {
		e.h.Free(0, p)
	}
	auditDrained(t, e)
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
