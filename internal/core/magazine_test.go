package core

import (
	"sync"
	"testing"

	"cxlalloc/internal/atomicx"
	"cxlalloc/internal/xrand"
)

// TestMagazineGating pins the magazine availability rules: active on an
// incoherent device, inert on DRAM (the coherent baseline must stay
// byte-identical), and controllable via the runtime toggle.
func TestMagazineGating(t *testing.T) {
	cfg := testConfig()
	cfg.Mode = atomicx.ModeSWFlush
	e := newEnv(t, cfg, 1, 2)
	if !e.h.MagazinesEnabled() {
		t.Fatal("magazines should be enabled on an incoherent device")
	}
	e.h.SetMagazines(false)
	if e.h.MagazinesEnabled() {
		t.Fatal("runtime toggle off did not take")
	}
	e.h.SetMagazines(true)
	if !e.h.MagazinesEnabled() {
		t.Fatal("runtime toggle on did not take")
	}

	dcfg := testConfig()
	dcfg.Mode = atomicx.ModeDRAM
	de := newEnv(t, dcfg, 1, 2)
	if de.h.MagazinesEnabled() {
		t.Fatal("magazines must be inert on a coherent device")
	}
}

// TestMagazineChurnAndDrain drives one thread through enough same-class
// churn to refill, pop, and re-fill magazines repeatedly, interleaves
// runtime toggles (so blocks move between magazine and classic paths),
// and checks that a full drain leaves a ledger-clean heap whether the
// magazines were drained explicitly or left for the audit to count.
func TestMagazineChurnAndDrain(t *testing.T) {
	cfg := testConfig()
	cfg.Mode = atomicx.ModeSWFlush
	e := newEnv(t, cfg, 1, 2)
	rng := xrand.New(11)
	var live []Ptr
	for op := 0; op < 4000; op++ {
		if op%257 == 0 {
			e.h.SetMagazines((op/257)%2 == 0)
		}
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
// cross-thread remote frees through mailboxes, and concurrent runtime
// toggles of the global magazine switch. Magazines are thread-private
// by design, so the only shared mutable state they add is the toggle —
// this test proves the fast path stays data-race-free around it.
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
				if op%403 == 0 {
					e.h.SetMagazines((op/403+tid)%2 == 0)
				}
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
	e.h.SetMagazines(true)
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
