package kvstore

import (
	"fmt"
	"testing"

	"cxlalloc"
	"cxlalloc/internal/alloc"
	"cxlalloc/internal/atomicx"
	"cxlalloc/internal/core"
	"cxlalloc/internal/crash"
)

// A drain hands its whole bucket to the allocator, which frees it one
// slab group at a time. Thread 1 writes values of three size classes,
// so three slabs, thread 0 (another process) deletes them all, and
// thread 0's drain crashes in its second group, at either side of that
// group's one countdown decrement, with the third group not yet begun.
// In the local-run cases thread 0 wrote the values itself, so each
// group is a run of its own blocks in one bitset word, and the drain
// crashes after the second run's one commit: into its magazine, or,
// with magazines off, its opLocalFree record. After recovering the
// thread and flushing again, every value must have been freed exactly
// once: no double-free panic, every retiree counted, and an empty
// heap's ledger audits clean.
func TestDrainCrashInSecondGroupFreesEachOnce(t *testing.T) {
	for _, point := range []string{"small.remote-free.pre-cas", "small.remote-free.post-cas"} {
		t.Run(point, func(t *testing.T) { drainCrashInSecondGroup(t, point, 1, true) })
	}
	for _, c := range []struct {
		point string
		mags  bool
	}{{"small.magfree.post-put", true}, {"small.local-free.post-put", false}} {
		t.Run("local-run/"+c.point, func(t *testing.T) { drainCrashInSecondGroup(t, c.point, 0, c.mags) })
	}
}

// newPodStore builds a Store over a two-process, ModeMCAS cxlalloc pod
// with thread i attached to process i; inj may be nil.
func newPodStore(tb testing.TB, threads, smallSlabs int, inj *crash.Injector) (*Store, *core.Heap, []*cxlalloc.Process) {
	tb.Helper()
	pc := cxlalloc.DefaultConfig()
	pc.NumThreads = threads
	pc.MaxSmallSlabs = smallSlabs
	pc.MaxLargeSlabs = 4
	pc.HugeRegionSize = 1 << 20
	pc.NumReservations = 4
	pc.DescsPerThread = 16
	pc.NumHazards = 8
	pc.Mode = atomicx.ModeMCAS
	pc.Crash = inj
	pod, err := cxlalloc.NewPod(pc)
	if err != nil {
		tb.Fatal(err)
	}
	procs := make([]*cxlalloc.Process, threads)
	for tid := range procs {
		procs[tid] = pod.NewProcess()
		if _, err := procs[tid].AttachThreadID(tid); err != nil {
			tb.Fatal(err)
		}
	}
	return New(alloc.NewCXL(pod.Heap(), "cxlalloc"), 64, threads), pod.Heap(), procs
}

// drainCrashInSecondGroup has writer put the values, with magazines on
// or off, and crashes thread 0's drain at point's second visit.
func drainCrashInSecondGroup(t *testing.T, point string, writer int, mags bool) {
	const threads, keys = 2, 40 // 40 < the retire threshold: no drain before Drain
	inj := crash.NewInjector()
	s, heap, procs := newPodStore(t, threads, 16, inj)
	heap.SetMagazines(mags)

	sizes := []int{1000, 700, 480} // with the key: the 1 KiB, 768 B and 512 B classes
	for k := 0; k < keys; k++ {
		val := make([]byte, sizes[k%len(sizes)])
		if err := s.Put(writer, []byte(fmt.Sprintf("k%02d", k)), val); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < keys; k++ {
		if !s.Delete(0, []byte(fmt.Sprintf("k%02d", k))) {
			t.Fatalf("key %d missing", k)
		}
	}
	if got := s.Stats().Reclaimed; got != 0 {
		t.Fatalf("%d values freed before the drain", got)
	}

	inj.Arm(point, 0, 1) // the second group's visit
	c := crash.Run(func() { s.Drain(threads) })
	if c == nil || c.TID != 0 || c.Point != point {
		t.Fatalf("drain did not crash at %q on thread 0: %+v", point, c)
	}
	inj.Disarm()
	// Freed counts what left the batch: two groups, the second's free
	// begun (recovery completes it), the third never touched.
	if got := s.Stats().Reclaimed; got == 0 || got >= keys {
		t.Fatalf("%d of %d values freed at the crash; want two of three groups", got, keys)
	}
	heap.MarkCrashed(0)
	if _, _, err := procs[0].Recover(0); err != nil {
		t.Fatalf("Recover: %v", err)
	}

	s.Drain(threads)
	if got := s.Stats().Reclaimed; got != keys {
		t.Fatalf("%d of %d retired values freed", got, keys)
	}
	for tid := 0; tid < threads; tid++ {
		heap.Maintain(tid)
	}
	if err := heap.CheckAll(0); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	heap.DrainCaches()
	if err := heap.AuditEmpty(0); err != nil {
		t.Fatalf("ledger: %v", err)
	}
}
