package chaos

import (
	"fmt"
	"testing"
	"time"

	"cxlalloc"
	"cxlalloc/internal/alloc"
	"cxlalloc/internal/atomicx"
	"cxlalloc/internal/crash"
	"cxlalloc/internal/kvstore"
	"cxlalloc/internal/xrand"
)

// TestLiveRepairDrainFree reproduces the online-chaos ledger leak in a
// deterministic harness: traffic on all threads, one victim armed at a
// single free-path crash point, watchdog-only recovery, resolve, audit.
func TestLiveRepairDrainFree(t *testing.T) {
	for _, point := range []string{
		"small.local-free.post-oplog",
		"small.local-free.post-put",
		"small.remote-free.pre-cas",
	} {
		t.Run(point, func(t *testing.T) { repairDrainFree(t, point) })
	}
}

func repairDrainFree(t *testing.T, point string) {
	const threads, keys = liveThreads, 64
	inj := crash.NewInjector()
	pc := cxlalloc.DefaultConfig()
	pc.NumThreads = threads
	pc.MaxSmallSlabs = 64
	pc.MaxLargeSlabs = 16
	pc.HugeRegionSize = 1 << 20
	pc.NumReservations = 8
	pc.DescsPerThread = 16
	pc.NumHazards = 8
	pc.UnsizedThreshold = 2
	pc.Mode = atomicx.ModeMCAS
	pc.Crash = inj
	pc.TrackPersist = true
	pod, err := cxlalloc.NewPodWith(cxlalloc.PodConfig{
		Config:      pc,
		AutoRecover: true,
		Liveness:    cxlalloc.LivenessConfig{RenewInterval: 4, GraceMult: 64, PollInterval: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	procs := []*cxlalloc.Process{pod.NewProcess(), pod.NewProcess()}
	for tid := 0; tid < threads; tid++ {
		if _, err := procs[tid%2].AttachThreadID(tid); err != nil {
			t.Fatal(err)
		}
	}
	store := kvstore.New(alloc.NewCXL(pod.Heap(), "cxlalloc"), keys*2, threads)
	run := &liveRun{
		cfg:       LiveConfig{Keys: keys},
		PodTarget: &PodTarget{Store: store},
		orc:       NewOracle(keys),
	}
	workers := make([]*liveWorker, threads)
	for tid := range workers {
		workers[tid] = &liveWorker{run: run, tid: tid, rng: xrand.New(uint64(tid) + 99)}
	}

	// Seed some churn, then arm the victim and drive it until it dies.
	step := func(w *liveWorker) *cxlalloc.Crashed {
		th, err := pod.ThreadOf(w.tid)
		if err != nil {
			return &cxlalloc.Crashed{TID: w.tid}
		}
		return th.Run(func() {
			if w.pend != nil {
				w.resolve()
				return
			}
			w.step()
		})
	}
	for i := 0; i < 2000; i++ {
		for _, w := range workers {
			if c := step(w); c != nil {
				t.Fatalf("unexpected crash before arming: tid %d at %s", c.TID, c.Point)
			}
		}
	}

	victim := workers[1]
	inj.Arm(point, victim.tid, 3)
	crashed := false
	for i := 0; i < 200000 && !crashed; i++ {
		if c := step(victim); c != nil {
			if c.Point != point {
				t.Fatalf("crashed at %s, wanted %s", c.Point, point)
			}
			crashed = true
		}
	}
	inj.Disarm()
	if !crashed {
		t.Skipf("point %s never fired under this traffic", point)
	}

	// Watchdog-only recovery: survivors' heartbeats must repair the slot.
	heap := pod.Heap()
	deadline := time.Now().Add(10 * time.Second)
	for !heap.Alive(victim.tid) || !heap.Leased(victim.tid) {
		for _, w := range workers {
			if w == victim {
				continue
			}
			if c := step(w); c != nil {
				t.Fatalf("survivor tid %d crashed at %s", c.TID, c.Point)
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("watchdog never repaired the victim")
		}
	}
	// Resolve the victim's pending op, then settle.
	for i := 0; i < 100; i++ {
		if c := step(victim); c != nil {
			t.Fatalf("victim crashed post-repair at %s", c.Point)
		}
	}
	if len(run.gates.Violations()) != 0 || len(run.gates.LostAcks()) != 0 {
		t.Fatalf("gates: %v / %v", run.gates.Violations(), run.gates.LostAcks())
	}

	// Teardown + audit.
	var keyb []byte
	for k := 0; k < keys; k++ {
		keyb = KeyBytes(keyb, k)
		for store.Delete(0, keyb) {
		}
	}
	store.Drain(threads)
	for round := 0; round < 3; round++ {
		for tid := 0; tid < threads; tid++ {
			heap.Maintain(tid)
		}
	}
	if err := heap.CheckAll(0); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	heap.DrainCaches()
	if err := heap.AuditEmpty(0); err != nil {
		t.Fatalf("ledger: %v", err)
	}
	_ = fmt.Sprint()
}
