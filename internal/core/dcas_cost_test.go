package core

import (
	"testing"

	"cxlalloc/internal/atomicx"
	"cxlalloc/internal/crash"
	"cxlalloc/internal/telemetry"
)

// The tests in this file count device events, not time: ModeMCAS, no
// latency model, one goroutine, so every number repeats exactly on any
// machine. They pin what one logical CAS costs (one spwr/sprd pair, plus
// one more only when the overwritten writer really is still pending)
// and that recovery reads the same answers it did when the help step
// was an unconditional CAS.

// costEnv is crashEnv on a pod without HWcc: tids 0,1 in process 0 and
// 2,3 in process 1.
func costEnv(t *testing.T) (*env, *crash.Injector) {
	cfg := testConfig()
	cfg.Mode = atomicx.ModeMCAS
	cfg.CheckInvariants = false
	inj := crash.NewInjector()
	cfg.Crash = inj
	return newEnv(t, cfg, 2, 2), inj
}

// nmpDelta runs f and returns what the NMP unit counted meanwhile.
func nmpDelta(e *env, f func()) telemetry.NMPStats {
	s0 := e.h.Snapshot()
	f()
	return e.h.Snapshot().Delta(s0).NMP
}

// allocInOneSlab has tid allocate n top-class small blocks, all of which
// must come from one slab, and returns them with the slab's index.
func allocInOneSlab(t *testing.T, e *env, tid, n int) ([]Ptr, int) {
	t.Helper()
	if n >= smallBlocks(e) {
		t.Fatalf("n = %d does not fit below one slab of %d blocks", n, smallBlocks(e))
	}
	ptrs := make([]Ptr, n)
	for i := range ptrs {
		ptrs[i] = e.alloc(tid, smallMax)
	}
	idx := e.h.small.slabOf(ptrs[0])
	for _, p := range ptrs {
		if e.h.small.slabOf(p) != idx {
			t.Fatalf("blocks span slabs %d and %d", idx, e.h.small.slabOf(p))
		}
	}
	return ptrs, idx
}

// auditDrained checks the ledger once every block has been freed: the
// bitset's free blocks must equal the countdown, which a remote free
// decremented twice (or never) breaks.
func auditDrained(t *testing.T, e *env) {
	t.Helper()
	for tid := 0; tid < 4; tid++ {
		e.h.DrainMagazines(tid)
	}
	e.checkAll(1)
	if err := e.h.AuditEmpty(1); err != nil {
		t.Fatalf("ledger: %v", err)
	}
}

// N uncontended remote frees by one thread are N mCAS pairs: the first
// overwrites an untagged word, every later one the freer's own tag, and
// neither needs help. (The unconditional help CAS made this 2N-1 pairs
// with N-1 failures.)
func TestRemoteFreeCostsOnePairPerFree(t *testing.T) {
	e, _ := costEnv(t)
	const n = 24
	ptrs, idx := allocInOneSlab(t, e, 0, n)
	total := e.h.small.remoteCount(1, idx)

	d := nmpDelta(e, func() {
		for _, p := range ptrs {
			e.h.Free(2, p)
		}
	})

	if pairs := d.Successes + d.Failures; pairs != n || d.SpRds != n || d.SpWrs != n {
		t.Fatalf("%d remote frees cost %d pairs (%d spwr, %d sprd), want %d", n, pairs, d.SpWrs, d.SpRds, n)
	}
	if d.Failures != 0 || d.Conflicts != 0 {
		t.Fatalf("%d failures, %d conflicts in a sequential run", d.Failures, d.Conflicts)
	}
	if d.Loads > 2*n {
		t.Fatalf("%d NMP loads for %d remote frees, want at most %d", d.Loads, n, 2*n)
	}
	if got := e.h.small.remoteCount(1, idx); got != total-n {
		t.Fatalf("countdown = %d, want %d", got, total-n)
	}
	auditDrained(t, e)
}

// Two threads alternating remote frees into one slab, neither beginning
// another operation in between: every overwritten tag belongs to a
// writer still pending on it, so every help is needed and is issued —
// 2N-1 pairs, none failing. Then the freer crashes after its CAS, the
// other overwrites its tag, and recovery must read "landed" off the help
// word and not decrement again.
func TestAlternatingRemoteFreesHelpAndRecover(t *testing.T) {
	e, inj := costEnv(t)
	const n = 16
	const b, c = 2, 3
	ptrs, idx := allocInOneSlab(t, e, 0, n+2)
	total := e.h.small.remoteCount(1, idx)

	d := nmpDelta(e, func() {
		for i, p := range ptrs[:n] {
			e.h.Free(b+i%2, p)
		}
	})
	if pairs := d.Successes + d.Failures; pairs != 2*n-1 || d.Failures != 0 {
		t.Fatalf("%d alternating frees: %d pairs, %d failures; want %d and 0", n, pairs, d.Failures, 2*n-1)
	}
	// One load of the countdown per free, one of the help word per help.
	if d.Loads != 2*n-1 {
		t.Fatalf("%d NMP loads, want %d", d.Loads, 2*n-1)
	}

	inj.Arm("small.remote-free.post-cas", b, 0)
	if cr := crash.Run(func() { e.h.Free(b, ptrs[n]) }); cr == nil || cr.TID != b {
		t.Fatalf("b did not crash after its CAS: %+v", cr)
	}
	e.h.MarkCrashed(b)
	inj.Disarm()
	if tid, _, _ := atomicx.Tag(e.h.dcas.Load(c, e.h.small.hwBase+idx)); tid != b {
		t.Fatalf("countdown tagged by thread %d, want the crashed freer %d", tid, b)
	}
	e.h.Free(c, ptrs[n+1]) // destroys b's tag; the help word is now the only evidence
	if tid, _, _ := atomicx.Tag(e.h.dcas.Load(c, e.h.small.hwBase+idx)); tid != c {
		t.Fatalf("countdown tagged by thread %d after c's free, want %d", tid, c)
	}
	if _, err := e.h.RecoverThread(b, e.spaces[1]); err != nil {
		t.Fatalf("RecoverThread: %v", err)
	}
	if got := e.h.small.remoteCount(1, idx); got != total-(n+2) {
		t.Fatalf("countdown = %d after recovery, want %d: b's free was redone or lost", got, total-(n+2))
	}
	auditDrained(t, e)
}

// A thread remote-freeing twice running into the same slab overwrites
// its own tag and helps nobody. Crashed before the second CAS it must
// redo it, crashed after it must not; either way the countdown is exact.
func TestSelfTaggedRemoteFreeRecovers(t *testing.T) {
	for _, point := range []string{"small.remote-free.pre-cas", "small.remote-free.post-cas"} {
		t.Run(point, func(t *testing.T) {
			e, inj := costEnv(t)
			const b = 2
			ptrs, idx := allocInOneSlab(t, e, 0, 2)
			total := e.h.small.remoteCount(1, idx)

			e.h.Free(b, ptrs[0])
			inj.Arm(point, b, 0)
			d := nmpDelta(e, func() {
				if cr := crash.Run(func() { e.h.Free(b, ptrs[1]) }); cr == nil || cr.Point != point {
					t.Fatalf("no crash at %q: %+v", point, cr)
				}
			})
			wantPairs := uint64(0)
			if point == "small.remote-free.post-cas" {
				wantPairs = 1
			}
			if d.SpRds != wantPairs || d.Failures != 0 {
				t.Fatalf("second free up to the crash: %d pairs, %d failures; want %d and 0", d.SpRds, d.Failures, wantPairs)
			}
			e.h.MarkCrashed(b)
			inj.Disarm()
			if _, err := e.h.RecoverThread(b, e.spaces[1]); err != nil {
				t.Fatalf("RecoverThread: %v", err)
			}
			if got := e.h.small.remoteCount(1, idx); got != total-2 {
				t.Fatalf("countdown = %d after recovery, want %d", got, total-2)
			}
			auditDrained(t, e)
		})
	}
}
