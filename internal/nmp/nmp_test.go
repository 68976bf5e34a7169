package nmp

import (
	"sync"
	"testing"

	"cxlalloc/internal/memsim"
)

func newUnit() (*memsim.Device, *Unit) {
	dev := memsim.NewDevice(memsim.Config{HWccWords: 128})
	return dev, New(dev, nil)
}

func TestMCASBasic(t *testing.T) {
	dev, u := newUnit()
	dev.HWccStore(5, 10)

	old, ok := u.MCAS(0, 5, 10, 20)
	if !ok || old != 10 {
		t.Fatalf("MCAS success path: old=%d ok=%v", old, ok)
	}
	if got := dev.HWccLoad(5); got != 20 {
		t.Fatalf("swap not written: %d", got)
	}

	old, ok = u.MCAS(0, 5, 10, 30)
	if ok || old != 20 {
		t.Fatalf("MCAS mismatch path: old=%d ok=%v (CMP-N must fail)", old, ok)
	}
	if got := dev.HWccLoad(5); got != 20 {
		t.Fatalf("failed mCAS wrote memory: %d", got)
	}
}

func TestSpWrSpRdSplit(t *testing.T) {
	dev, u := newUnit()
	dev.HWccStore(7, 1)
	u.SpWr(3, 7, 1, 2)
	old, ok := u.SpRd(3)
	if !ok || old != 1 {
		t.Fatalf("split spwr/sprd: old=%d ok=%v", old, ok)
	}
	if dev.HWccLoad(7) != 2 {
		t.Fatal("swap not applied")
	}
}

func TestSpRdWithoutSpWrPanics(t *testing.T) {
	_, u := newUnit()
	defer func() {
		if recover() == nil {
			t.Fatal("SpRd with no pending SpWr did not panic")
		}
	}()
	u.SpRd(1)
}

func TestSpWrOverwritesAbandonedOp(t *testing.T) {
	dev, u := newUnit()
	dev.HWccStore(4, 100)
	u.SpWr(2, 4, 999, 1) // would fail; abandoned
	u.SpWr(2, 4, 100, 101)
	old, ok := u.SpRd(2)
	if !ok || old != 100 {
		t.Fatalf("second SpWr should win: old=%d ok=%v", old, ok)
	}
	if dev.HWccLoad(4) != 101 {
		t.Fatal("abandoned op's operands used")
	}
}

// Figure 6(b): T1 issues spwr before T2 to the same address; T1's sprd
// succeeds and T2's in-flight op must fail even though T2's compare
// value would have matched afterwards.
func TestConflictingInFlightOpFails(t *testing.T) {
	dev, u := newUnit()
	dev.HWccStore(9, 5)
	u.SpWr(1, 9, 5, 5) // T1: swap to the same value
	u.SpWr(2, 9, 5, 7) // T2: in flight on the same address
	if _, ok := u.SpRd(1); !ok {
		t.Fatal("T1 mCAS should succeed")
	}
	old, ok := u.SpRd(2)
	if ok {
		t.Fatalf("T2 mCAS succeeded despite conflict (old=%d)", old)
	}
	if dev.HWccLoad(9) != 5 {
		t.Fatalf("memory = %d, want 5 (T2 must not have written)", dev.HWccLoad(9))
	}
	if s := u.Stats(); s.Conflicts != 1 {
		t.Fatalf("conflicts = %d, want 1", s.Conflicts)
	}
}

func TestNoConflictAcrossAddresses(t *testing.T) {
	dev, u := newUnit()
	dev.HWccStore(10, 1)
	dev.HWccStore(11, 1)
	u.SpWr(1, 10, 1, 2)
	u.SpWr(2, 11, 1, 2)
	if _, ok := u.SpRd(1); !ok {
		t.Fatal("T1 failed")
	}
	if _, ok := u.SpRd(2); !ok {
		t.Fatal("T2 failed despite different address")
	}
}

func TestThreadIDBounds(t *testing.T) {
	_, u := newUnit()
	for _, tid := range []int{-1, MaxThreads} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SpWr(tid=%d) did not panic", tid)
				}
			}()
			u.SpWr(tid, 0, 0, 0)
		}()
	}
}

func TestLoadStoreDataPath(t *testing.T) {
	dev, u := newUnit()
	u.Store(0, 20, 77)
	if got := u.Load(1, 20); got != 77 {
		t.Fatalf("NMP load = %d", got)
	}
	if dev.HWccLoad(20) != 77 {
		t.Fatal("NMP store did not reach memory")
	}
}

// mCAS must be atomic under heavy contention: a shared counter
// incremented only via MCAS retry loops reaches exactly the expected
// total, with every retry driven by a reported failure.
func TestMCASAtomicityUnderContention(t *testing.T) {
	dev, u := newUnit()
	const goroutines = 8
	const perG = 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				for {
					cur := u.Load(tid, 0)
					if _, ok := u.MCAS(tid, 0, cur, cur+1); ok {
						break
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if got := dev.HWccLoad(0); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d (lost updates => mCAS not atomic)", got, goroutines*perG)
	}
	s := u.Stats()
	if s.Successes != goroutines*perG {
		t.Fatalf("successes = %d, want %d", s.Successes, goroutines*perG)
	}
	if s.SpWrs != s.SpRds {
		t.Fatalf("unbalanced spwr/sprd: %d vs %d", s.SpWrs, s.SpRds)
	}
}

// Distinct addresses see no cross-interference under concurrency.
func TestMCASParallelDisjointAddresses(t *testing.T) {
	dev, u := newUnit()
	const goroutines = 8
	const perG = 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			addr := tid
			for i := 0; i < perG; i++ {
				cur := u.Load(tid, addr)
				if _, ok := u.MCAS(tid, addr, cur, cur+1); !ok {
					t.Errorf("tid %d: uncontended mCAS failed", tid)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if got := dev.HWccLoad(g); got != perG {
			t.Fatalf("addr %d = %d, want %d", g, got, perG)
		}
	}
	if s := u.Stats(); s.Conflicts != 0 {
		t.Fatalf("conflicts = %d on disjoint addresses", s.Conflicts)
	}
}

func TestMCASWithLatencyModel(t *testing.T) {
	dev := memsim.NewDevice(memsim.Config{HWccWords: 8})
	lat := memsim.LatencyCXL()
	u := New(dev, lat)
	dev.HWccStore(0, 1)
	if _, ok := u.MCAS(0, 0, 1, 2); !ok {
		t.Fatal("mCAS with latency model failed")
	}
	if dev.HWccLoad(0) != 2 {
		t.Fatal("swap lost")
	}
}

func TestFaultDeterministicCount(t *testing.T) {
	dev, u := newUnit()
	dev.HWccStore(2, 5)
	u.InjectFaults(FaultPlan{Mode: FaultTimeout, Count: 2})
	for i := 0; i < 2; i++ {
		if _, _, err := u.TryMCAS(0, 2, 5, 6); err != ErrTimeout {
			t.Fatalf("attempt %d: err = %v, want ErrTimeout", i, err)
		}
		if got := dev.HWccLoad(2); got != 5 {
			t.Fatalf("faulted attempt committed: %d", got)
		}
	}
	// Budget exhausted: the plan disarms itself.
	old, ok, err := u.TryMCAS(0, 2, 5, 6)
	if err != nil || !ok || old != 5 {
		t.Fatalf("post-fault mCAS: old=%d ok=%v err=%v", old, ok, err)
	}
	if got := dev.HWccLoad(2); got != 6 {
		t.Fatalf("swap lost: %d", got)
	}
	if s := u.Stats(); s.FaultsInjected != 2 {
		t.Fatalf("FaultsInjected = %d, want 2", s.FaultsInjected)
	}
}

func TestFaultUnavailableUntilCleared(t *testing.T) {
	dev, u := newUnit()
	dev.HWccStore(3, 1)
	u.InjectFaults(FaultPlan{Mode: FaultUnavailable})
	for i := 0; i < 5; i++ {
		if _, _, err := u.TryMCAS(1, 3, 1, 2); err != ErrUnavailable {
			t.Fatalf("attempt %d: err = %v, want ErrUnavailable", i, err)
		}
	}
	// MCAS (the panic wrapper) refuses to run on a faulted unit.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MCAS on faulted unit did not panic")
			}
		}()
		u.MCAS(1, 3, 1, 2)
	}()
	// The data path survives while the compute path is down.
	u.Store(1, 4, 9)
	if got := u.Load(1, 4); got != 9 {
		t.Fatalf("data path broken under faults: %d", got)
	}
	u.ClearFaults()
	if _, ok, err := u.TryMCAS(1, 3, 1, 2); err != nil || !ok {
		t.Fatalf("mCAS after ClearFaults: ok=%v err=%v", ok, err)
	}
	// 5 TryMCAS faults plus the one behind the MCAS panic.
	if s := u.Stats(); s.FaultsInjected != 6 {
		t.Fatalf("FaultsInjected = %d, want 6", s.FaultsInjected)
	}
}

func TestFaultProbabilisticReproducible(t *testing.T) {
	run := func() (faults uint64) {
		dev, u := newUnit()
		dev.HWccStore(0, 0)
		u.InjectFaults(FaultPlan{Mode: FaultUnavailable, Prob: 0.5, Seed: 42})
		for i := 0; i < 100; i++ {
			cur := dev.HWccLoad(0)
			u.TryMCAS(0, 0, cur, cur+1)
		}
		return u.Stats().FaultsInjected
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed, different fault counts: %d vs %d", a, b)
	}
	if a == 0 || a == 100 {
		t.Fatalf("Prob=0.5 injected %d/100 faults", a)
	}
}

func TestFaultProbabilisticCount(t *testing.T) {
	dev, u := newUnit()
	dev.HWccStore(0, 0)
	u.InjectFaults(FaultPlan{Mode: FaultTimeout, Prob: 1.0, Count: 3, Seed: 1})
	for i := 0; i < 3; i++ {
		if _, _, err := u.TryMCAS(0, 0, 0, 1); err != ErrTimeout {
			t.Fatalf("attempt %d: err = %v", i, err)
		}
	}
	// The Count cap stops injection even though Prob still says fire.
	if _, ok, err := u.TryMCAS(0, 0, 0, 1); err != nil || !ok {
		t.Fatalf("capped plan still faulting: ok=%v err=%v", ok, err)
	}
	if s := u.Stats(); s.FaultsInjected != 3 {
		t.Fatalf("FaultsInjected = %d, want 3", s.FaultsInjected)
	}
}

// An abandoned op (two SpWrs, one SpRd) is counted in flight once: the
// conflict rule still fails a competing same-address pair, and when
// every register has retired the count is back at zero, so a later
// uncontended pair ends without a register-array scan.
func TestAbandonedOpCountedOnce(t *testing.T) {
	dev, u := newUnit()
	dev.HWccStore(4, 100)
	u.SpWr(2, 4, 999, 1)   // abandoned
	u.SpWr(2, 4, 100, 101) // replaces it in the same register
	u.SpWr(3, 4, 100, 102) // competing pair, same address
	if u.inFlight != 2 {
		t.Fatalf("inFlight = %d after an abandoned op and a competitor, want 2", u.inFlight)
	}
	if old, ok := u.SpRd(2); !ok || old != 100 {
		t.Fatalf("T2: old=%d ok=%v, want the second SpWr to win", old, ok)
	}
	if u.scans != 1 {
		t.Fatalf("scans = %d, want 1: T3 was in flight when T2 completed", u.scans)
	}
	if old, ok := u.SpRd(3); ok || old != 101 {
		t.Fatalf("T3: old=%d ok=%v, want failed by the conflict rule", old, ok)
	}
	if s := u.Stats(); s.Conflicts != 1 || s.SpWrs != 3 || s.SpRds != 2 {
		t.Fatalf("stats = %+v, want 1 conflict, 3 spwr, 2 sprd", s)
	}
	if u.inFlight != 0 {
		t.Fatalf("inFlight = %d with every register retired, want 0", u.inFlight)
	}
	scans := u.scans
	if _, ok := u.MCAS(5, 4, 101, 103); !ok {
		t.Fatal("uncontended mCAS failed")
	}
	if _, ok := u.MCAS(5, 4, 0, 1); ok {
		t.Fatal("mismatching mCAS succeeded")
	}
	if u.scans != scans {
		t.Fatalf("uncontended pairs scanned the register array %d times", u.scans-scans)
	}
}

// The data-path counters are per thread and summed on read.
func TestLoadStoreCounted(t *testing.T) {
	_, u := newUnit()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				u.Store(tid, 20+tid, uint64(i))
				u.Load(tid, 20+tid)
				u.Load(tid, 20+tid)
			}
		}(g)
	}
	wg.Wait()
	u.MCAS(0, 1, 0, 1) // an mCAS is neither
	if s := u.Stats(); s.Loads != 8000 || s.Stores != 4000 {
		t.Fatalf("loads=%d stores=%d, want 8000 and 4000", s.Loads, s.Stores)
	}
}

// A plan that has run out disarms the fast path again, and arming while
// the unit is idle takes effect on the very next attempt.
func TestFaultArmFlagFollowsPlan(t *testing.T) {
	_, u := newUnit()
	if u.armed.Load() {
		t.Fatal("fresh unit is armed")
	}
	u.InjectFaults(FaultPlan{Mode: FaultUnavailable, Count: 1})
	if _, _, err := u.TryMCAS(0, 0, 0, 1); err != ErrUnavailable {
		t.Fatalf("armed attempt: err = %v", err)
	}
	if u.armed.Load() {
		t.Fatal("exhausted deterministic plan left the unit armed")
	}
	u.InjectFaults(FaultPlan{Mode: FaultTimeout})
	u.ClearFaults()
	if u.armed.Load() {
		t.Fatal("ClearFaults left the unit armed")
	}
}

// The host cost of one uncontended spwr/sprd pair with no latency model:
// two lock round trips and, before the in-flight count, a 512-register
// scan under the second.
func BenchmarkMCASUncontended(b *testing.B) {
	_, u := newUnit()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		u.MCAS(0, 0, uint64(i), uint64(i+1))
	}
}

// The same pair while another register is in flight on a different
// address: the scan runs, as it must.
func BenchmarkMCASOtherInFlight(b *testing.B) {
	_, u := newUnit()
	u.SpWr(1, 1, 0, 0)
	for i := 0; i < b.N; i++ {
		u.MCAS(0, 0, uint64(i), uint64(i+1))
	}
}
