package core

import (
	"errors"
	"fmt"
	"math/bits"
	"strings"
	"sync"
	"testing"

	"cxlalloc/internal/atomicx"
	"cxlalloc/internal/crash"
	"cxlalloc/internal/memsim"
	"cxlalloc/internal/xrand"
)

// TestMagazineGating pins the magazine availability rule, which NewHeap
// fixes for the heap's life: active on every incoherent device, inert
// on DRAM (the coherent baseline must stay byte-identical) and on a
// NonRecoverable heap (no durability traffic to amortize).
func TestMagazineGating(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mode   atomicx.Mode
		nonRec bool
		want   bool
	}{
		{"hwcc", atomicx.ModeHWcc, false, true},
		{"swflush", atomicx.ModeSWFlush, false, true},
		{"mcas", atomicx.ModeMCAS, false, true},
		{"dram", atomicx.ModeDRAM, false, false},
		{"swflush-nonrecoverable", atomicx.ModeSWFlush, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.Mode = tc.mode
			cfg.NonRecoverable = tc.nonRec
			e := newEnv(t, cfg, 1, 2)
			if got := e.h.magsEnabled(); got != tc.want {
				t.Fatalf("magazines enabled = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestMagazineChurnAndDrain drives one thread through enough same-class
// churn to refill, pop, and re-fill magazines repeatedly, interleaves
// drains, and checks that a full drain leaves a ledger-clean heap
// whether the magazines were drained explicitly or left for the audit
// to count.
func TestMagazineChurnAndDrain(t *testing.T) {
	cfg := testConfig()
	cfg.Mode = atomicx.ModeSWFlush
	e := newEnv(t, cfg, 1, 2)
	rng := xrand.New(11)
	var live []Ptr
	for op := 0; op < 4000; op++ {
		if op%611 == 0 {
			e.h.DrainMagazines(0)
		}
		switch {
		case rng.Intn(5) < 3 || len(live) == 0:
			p, err := e.h.Alloc(0, rng.IntRange(1, 512))
			if err != nil {
				t.Fatal(err)
			}
			live = append(live, p)
		default:
			i := rng.Intn(len(live))
			p := live[i]
			live = append(live[:i], live[i+1:]...)
			// Alternate the freeing thread so remote frees hit
			// magazine-backed slabs too (they must route classic).
			e.h.Free(op%2, p)
		}
	}
	e.checkAll(0)

	// Audit with magazines still live: privatized blocks must be counted
	// as free without an explicit drain.
	for _, p := range live {
		e.h.Free(0, p)
	}
	e.checkAll(0)
	e.h.DrainCaches()
	if err := e.h.AuditEmpty(0); err != nil {
		t.Fatalf("ledger audit with live magazines: %v", err)
	}

	// And again after an explicit drain: every magazine line must retire.
	e.h.DrainMagazines(0)
	e.h.DrainMagazines(1)
	e.checkAll(0)
	e.h.DrainCaches()
	if err := e.h.AuditEmpty(0); err != nil {
		t.Fatalf("ledger audit after explicit drain: %v", err)
	}
}

// TestMagazineStressRace is the race-detector stress test the CI race
// job runs: concurrent per-thread churn in magazine-heavy size classes,
// drains, and cross-thread remote frees through mailboxes into
// magazine-backed slabs. Magazines are thread-private by design; this
// test proves the fast path stays data-race-free beside the shared
// slab protocol.
func TestMagazineStressRace(t *testing.T) {
	cfg := testConfig()
	cfg.Mode = atomicx.ModeSWFlush
	cfg.CheckInvariants = false // checked at the barrier below
	const nThreads = 4
	// Every thread allocates from every small class, so one owned slab
	// per thread x class is the floor; the test's own remote frees can
	// strand one more generation of those (§3.2.1, the bound
	// stableFootprint checks), and each thread can park UnsizedThreshold
	// stolen slabs out of the allocators' reach. testConfig's 64 slabs
	// sit 12 above the floor of 52, and -race's interleaving ran out.
	cfg.MaxSmallSlabs = 2*nThreads*numSmallClasses + nThreads*cfg.UnsizedThreshold
	e := newEnv(t, cfg, 2, nThreads/2)
	boxes := make([]chan Ptr, nThreads)
	for i := range boxes {
		boxes[i] = make(chan Ptr, 256)
	}
	var wg sync.WaitGroup
	for tid := 0; tid < nThreads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			rng := xrand.New(uint64(tid) + 31)
			var local []Ptr
			// On every exit, an aborted run included, give back what this
			// thread still holds, so the audits below judge the allocator
			// and not the abort.
			defer func() {
				for _, p := range local {
					e.h.Free(tid, p)
				}
			}()
			for op := 0; op < 2500; op++ {
				if op%509 == 0 {
					e.h.DrainMagazines(tid)
				}
				for {
					select {
					case p := <-boxes[tid]:
						e.h.Free(tid, p)
						continue
					default:
					}
					break
				}
				switch {
				case rng.Intn(2) == 0:
					p, err := e.h.Alloc(tid, rng.IntRange(1, 1024))
					if err != nil {
						t.Errorf("tid %d: %v", tid, err)
						return
					}
					e.h.Bytes(tid, p, 1)[0] = byte(tid)
					local = append(local, p)
				case len(local) > 0:
					i := rng.Intn(len(local))
					p := local[i]
					local = append(local[:i], local[i+1:]...)
					if rng.Intn(2) == 0 {
						e.h.Free(tid, p)
					} else {
						select {
						case boxes[(tid+1)%nThreads] <- p:
						default:
							e.h.Free(tid, p)
						}
					}
				}
			}
		}(tid)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow() // a mutator aborted: the emptiness audit would only echo it
	}
	for tid := range boxes {
		for {
			select {
			case p := <-boxes[tid]:
				e.h.Free(tid, p)
				continue
			default:
			}
			break
		}
	}
	e.checkAll(0)
	e.h.DrainCaches()
	if err := e.h.AuditEmpty(0); err != nil {
		t.Fatalf("ledger audit after stress: %v", err)
	}
	for tid := 0; tid < nThreads; tid++ {
		e.h.DrainMagazines(tid)
	}
	e.checkAll(0)
	if leaked := e.leakedSlabs(e.h.small); len(leaked) != 0 {
		t.Fatalf("leaked small slabs after churn: %v", leaked)
	}
}

// magCrashModes are the two ways a crashed thread's cache resolves:
// every dirty line drains, or the adversary drops every line written
// since the thread's last fence.
var magCrashModes = []struct {
	name string
	drop bool
}{{"writeback-all", false}, {"drop-in-play", true}}

// magCrashEnv is costEnv — an incoherent pod, so magazines run — with
// the drop-in-play adversary installed when drop is set.
func magCrashEnv(t *testing.T, drop bool) (*env, *crash.Injector) {
	cfg := testConfig()
	cfg.Mode = atomicx.ModeMCAS
	cfg.CheckInvariants = false
	cfg.TrackPersist = drop
	inj := crash.NewInjector()
	cfg.Crash = inj
	e := newEnv(t, cfg, 2, 2)
	if drop {
		e.h.SetCrashPersistPolicy(func(int, []int32) memsim.CrashPolicy {
			return memsim.CrashPolicy{Kind: memsim.PersistNone}
		})
	}
	return e, inj
}

// crashTID0 runs f on thread 0 with point armed, crashes it there and
// recovers it in place.
func crashTID0(t *testing.T, e *env, inj *crash.Injector, point string, f func()) RecoveryReport {
	t.Helper()
	inj.Arm(point, 0, 0)
	if c := crash.Run(f); c == nil || c.TID != 0 || c.Point != point {
		t.Fatalf("no crash of thread 0 at %q: %+v", point, c)
	}
	e.h.MarkCrashed(0)
	inj.Disarm()
	rep, err := e.h.RecoverThread(0, e.spaces[0])
	if err != nil {
		t.Fatalf("RecoverThread: %v", err)
	}
	return rep
}

// nextPop returns the block thread 0's next pop from m will take.
func nextPop(e *env, m *magSlot, size int) Ptr {
	return e.h.small.ptrOf(int(m.slab)-1, int(m.word)*64+bits.TrailingZeros64(m.mask), smallClassOf(size))
}

// freeAllAndAudit frees live (and a reported pending block) on thread
// 0 and checks the drained ledger: a block reported twice, or lost,
// breaks it.
func freeAllAndAudit(t *testing.T, e *env, rep RecoveryReport, live []Ptr) {
	t.Helper()
	if rep.PendingAlloc != 0 {
		live = append(live, rep.PendingAlloc)
	}
	for _, p := range live {
		e.h.Free(0, p)
	}
	auditDrained(t, e)
}

// A crash right after a pop's commit fence leaves the taken block in
// neither the mask nor the bitset; the record in the magazine line names
// it, and reclaimMagazines reports it. The oplog was never touched.
func TestMagPopCrashReportsBlockFromLine(t *testing.T) {
	for _, mode := range magCrashModes {
		t.Run(mode.name, func(t *testing.T) {
			e, inj := magCrashEnv(t, mode.drop)
			m, live := warmMagazine(t, e, 0, smallMax)
			want := nextPop(e, m, smallMax)
			rep := crashTID0(t, e, inj, "small.magalloc.post-take", func() { e.alloc(0, smallMax) })
			if rep.PendingAlloc != want || rep.PendingSize != smallMax {
				t.Fatalf("pending %#x (%d B), want the popped block %#x (%d B)",
					rep.PendingAlloc, rep.PendingSize, want, smallMax)
			}
			if rep.Op != "none" {
				t.Fatalf("oplog record %q: the pop must not write the oplog", rep.Op)
			}
			freeAllAndAudit(t, e, rep, live)
		})
	}
}

// A pop that returned is never reported again: its record is cleared
// in the line and the next fence drains the clear, whatever op the
// thread crashes in next. Reporting it would hand the block out twice.
// The classic local free frees a class-A block of a full slab, which
// the classic take of its last block detached, so it misses A's window
// and commits in A's line.
func TestMagPopCompletedIsNotReportedAgain(t *testing.T) {
	const sizeA, sizeB = smallMax, 64
	later := []struct {
		name, point string
		// prep readies the op that crashes and names the block its crash
		// must report (0 for none). outside is a block of the detached
		// slab; spent reports whether the op frees it.
		prep  func(e *env, outside Ptr) (run func(), want Ptr)
		spent bool
	}{
		{"class-B pop", "small.magalloc.post-take", func(e *env, _ Ptr) (func(), Ptr) {
			m := e.h.small.magAt(&e.h.threads[0], smallClassOf(sizeB))
			return func() { e.alloc(0, sizeB) }, nextPop(e, m, sizeB)
		}, false},
		{"magazine free", "small.magfree.post-put", func(e *env, _ Ptr) (func(), Ptr) {
			p := e.alloc(0, sizeA)
			return func() { e.h.Free(0, p) }, 0
		}, false},
		{"classic local free", "small.local-free.post-put", func(e *env, outside Ptr) (func(), Ptr) {
			return func() { e.h.Free(0, outside) }, 0
		}, true},
	}
	for _, mode := range magCrashModes {
		for _, op := range later {
			t.Run(mode.name+"/"+op.name, func(t *testing.T) {
				e, inj := magCrashEnv(t, mode.drop)
				_, live := warmMagazine(t, e, 0, sizeB)
				full := fillExactlyOneSlab(e, 0)
				live = append(live, full[1:]...)
				mA, liveA := warmMagazine(t, e, 0, sizeA)
				live = append(live, liveA...)
				if int(mA.slab) == e.h.small.slabOf(full[0])+1 {
					t.Fatalf("class-A window on the detached slab %d", mA.slab-1)
				}
				a := nextPop(e, mA, sizeA)
				if got := e.alloc(0, sizeA); got != a {
					t.Fatalf("alloc returned %#x, want magazine pop of %#x", got, a)
				}
				live = append(live, a) // the application holds A
				run, want := op.prep(e, full[0])
				if !op.spent {
					live = append(live, full[0])
				}
				rep := crashTID0(t, e, inj, op.point, run)
				if rep.PendingAlloc != want {
					t.Fatalf("pending %#x, want %#x (completed pop A is %#x)", rep.PendingAlloc, want, a)
				}
				freeAllAndAudit(t, e, rep, live)
			})
		}
	}
}

// Two handoff records durable in one recovery mean one of them outlived
// its pop; adopting either could hand a block out twice, so recovery
// fails by name. The stale record is forged: a completed pop of class A
// whose lazy clear never drained, then a crash inside a class-B pop.
func TestMagTwoPendingRecordsFail(t *testing.T) {
	const sizeA, sizeB = smallMax, 64
	e, inj := magCrashEnv(t, false)
	warmMagazine(t, e, 0, sizeB)
	mA, _ := warmMagazine(t, e, 0, sizeA)
	bit := bits.TrailingZeros64(mA.mask)
	e.alloc(0, sizeA)
	ts := &e.h.threads[0]
	mw := e.h.small.magW(0, smallClassOf(sizeA))
	ts.cache.Store(mw, ts.cache.Load(mw)|magRecord(bit))
	ts.cache.FlushOpt(mw)
	ts.cache.Fence()

	inj.Arm("small.magalloc.post-take", 0, 0)
	if c := crash.Run(func() { e.alloc(0, sizeB) }); c == nil {
		t.Fatal("class-B pop did not crash")
	}
	e.h.MarkCrashed(0)
	inj.Disarm()
	msg := func() (msg string) {
		defer func() { msg = fmt.Sprint(recover()) }()
		e.h.RecoverThread(0, e.spaces[0])
		return ""
	}()
	if !strings.Contains(msg, "two pending allocations") {
		t.Fatalf("recovery with two live records: %q, want a two-pending-allocations failure", msg)
	}
}

// A crash inside recovery, or a claimant fenced at its commit check,
// must not lose a committed pop's pending block: the record in the
// magazine line is its only durable name, so it outlives the first
// reclamation pass and the re-run reports the same block. A leaked block
// fails the ledger audit; a block reported by no run fails the check on
// PendingAlloc. Once recovery commits, the record is gone: a later crash
// in another op does not report the adopted block again.
func TestMagPopPendingSurvivesRecoveryCrash(t *testing.T) {
	interrupts := append([]string{"fenced-at-commit"}, RecoveryCrashPoints...)
	for _, mode := range magCrashModes {
		for _, rp := range interrupts {
			t.Run(mode.name+"/"+rp, func(t *testing.T) {
				e, inj := magCrashEnv(t, mode.drop)
				m, live := warmMagazine(t, e, 0, smallMax)
				want := nextPop(e, m, smallMax)
				inj.Arm("small.magalloc.post-take", 0, 0)
				if c := crash.Run(func() { e.alloc(0, smallMax) }); c == nil {
					t.Fatal("pop never crashed")
				}
				e.h.MarkCrashed(0)
				inj.Disarm()

				var rep RecoveryReport
				if rp == "fenced-at-commit" {
					rep = recoverFencedAtCommit(t, e)
				} else {
					inj.Arm(rp, 0, 0)
					if c := crash.Run(func() { e.h.RecoverThread(0, e.spaces[0]) }); c == nil {
						t.Fatalf("recovery never reached %q", rp)
					}
					inj.Disarm()
					e.h.MarkCrashed(0)
					var err error
					if rep, err = e.h.RecoverThread(0, e.spaces[0]); err != nil {
						t.Fatalf("second RecoverThread: %v", err)
					}
				}
				if rep.PendingAlloc != want {
					t.Fatalf("second recovery reports pending %#x, want the popped block %#x", rep.PendingAlloc, want)
				}
				// The application adopts the block; the committed recovery
				// retired its record, so the next crash must not report it.
				// The crash is a classic take's, in a class of one block
				// per slab, which no window can give.
				live = append(live, want)
				rep = crashTID0(t, e, inj, "large.alloc.post-take", func() { e.alloc(0, largeMax) })
				if rep.PendingAlloc == want {
					t.Fatalf("adopted block %#x reported pending again", want)
				}
				freeAllAndAudit(t, e, rep, live)
			})
		}
	}
}

// recoverFencedAtCommit recovers crashed thread 0 under claimant 2,
// supersedes the claim with claimant 3 after reclamation ran, and
// returns the winner's report once the loser was fenced.
func recoverFencedAtCommit(t *testing.T, e *env) RecoveryReport {
	t.Helper()
	h := e.h
	h.LeaseAcquire(2, 10)
	tok2, ok := h.ClaimAcquire(2, 0, 5)
	if !ok {
		t.Fatal("claim failed")
	}
	var tok3 ClaimToken
	h.testHookPreCommit = func(int) {
		h.testHookPreCommit = nil
		if tok3, ok = h.ClaimAcquire(3, 0, 50); !ok {
			t.Fatal("supersede inside recovery failed")
		}
	}
	if _, err := h.RecoverThreadFenced(0, e.spaces[0], tok2); !errors.Is(err, ErrFenced) {
		t.Fatalf("superseded claimant got %v, want ErrFenced", err)
	}
	rep, err := h.RecoverThreadFenced(0, e.spaces[0], tok3)
	if err != nil {
		t.Fatalf("winning recovery: %v", err)
	}
	h.ClaimRelease(0, tok3)
	return rep
}
