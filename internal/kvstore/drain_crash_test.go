package kvstore

import (
	"fmt"
	"slices"
	"testing"

	"cxlalloc"
	"cxlalloc/internal/alloc"
	"cxlalloc/internal/atomicx"
	"cxlalloc/internal/core"
	"cxlalloc/internal/crash"
)

// A drain hands its whole batch to the allocator, which frees it one
// slab group at a time. Values come in seven size classes, so at least
// seven slabs, thread 0 deletes them all, and a drain crashes in its
// second group, with the third not yet begun:
//
//   - remote: thread 1 wrote more values than the reclaimer's inbox
//     bound (128) and never drains before the final Drain, so thread 0,
//     routing them home, finds thread 1's inbox full, takes it over and
//     frees it remotely; the crash lands at either side of the second
//     group's one countdown decrement.
//   - pulled-inbox: thread 1 wrote the values, thread 0's expiry routes
//     them home, and thread 1's drain of its pulled inbox frees them as
//     runs of its own blocks, whose words its magazines' windows cover;
//     the crash lands after the record of the second group of up to
//     three runs, in its first run's magazine line, at that run's
//     bitset store.
//   - local-run: thread 0 wrote the values itself, and the crash lands
//     at the same point: in a batch of up to six runs, or of more.
//
// After recovering the crashed thread, finishing the deletes and
// draining again, every value must have been freed exactly once: no
// double-free panic, every retiree counted, and an empty heap's ledger
// audits clean.
func TestDrainCrashInSecondGroupFreesEachOnce(t *testing.T) {
	for _, point := range []string{"small.remote-free.pre-cas", "small.remote-free.post-cas"} {
		t.Run(point, func(t *testing.T) { drainCrashInSecondGroup(t, point, 1, 200, 1, 0) })
	}
	// One line commits up to three runs, so the second group starts at
	// the fourth run's visit.
	t.Run("pulled-inbox/small.local-free.post-put", func(t *testing.T) {
		drainCrashInSecondGroup(t, "small.local-free.post-put", 3, 40, 1, 1)
	})
	t.Run("local-run/magazines/small.local-free.post-put", func(t *testing.T) {
		drainCrashInSecondGroup(t, "small.local-free.post-put", 3, 40, 0, 0)
	})
	// 200 values fill enough slabs for a batch of more than six runs.
	t.Run("local-run/small.local-free.post-put", func(t *testing.T) {
		drainCrashInSecondGroup(t, "small.local-free.post-put", 3, 200, 0, 0)
	})
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

func key(k int) []byte { return []byte(fmt.Sprintf("k%03d", k)) }

// drainCrashInSecondGroup has writer put keys values, and thread 0
// delete them and drain, crashing victim at point's visit after+1, the
// second group's.
func drainCrashInSecondGroup(t *testing.T, point string, after, keys, writer, victim int) {
	const threads = 2
	inj := crash.NewInjector()
	s, heap, procs := newPodStore(t, threads, 16, inj)

	sizes := []int{1000, 700, 480, 360, 240, 180, 120} // with the key: the 1 KiB, 768, 512, 384, 256, 192 and 128 B classes
	for k := 0; k < keys; k++ {
		if err := s.Put(writer, key(k), make([]byte, sizes[k%len(sizes)])); err != nil {
			t.Fatal(err)
		}
	}

	// A delete that crashes has already unlinked and retired its value:
	// Retire records it before draining.
	inj.Arm(point, victim, after)
	var c *crash.Crashed
	for k := 0; k < keys && c == nil; k++ {
		found := false
		if c = crash.Run(func() { found = s.Delete(0, key(k)) }); c == nil && !found {
			t.Fatalf("key %d missing", k)
		}
	}
	if c == nil {
		c = crash.Run(s.Drain)
	}
	if c == nil || c.TID != victim || c.Point != point {
		t.Fatalf("drain did not crash at %q on thread %d: %+v", point, victim, c)
	}
	inj.Disarm()
	// Freed counts what left the batch: two groups, the second's free
	// begun (recovery completes it), the third never touched.
	if got := s.Stats().Reclaimed; got == 0 || got >= uint64(keys) {
		t.Fatalf("%d of %d values freed at the crash; want part of the batch", got, keys)
	}
	heap.MarkCrashed(victim)
	if _, _, err := procs[victim].Recover(victim); err != nil {
		t.Fatalf("Recover: %v", err)
	}

	for k := 0; k < keys; k++ {
		s.Delete(0, key(k))
	}
	s.Drain()
	if got := s.Stats().Reclaimed; got != uint64(keys) {
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

// A put carries the runs of its thread's owed values in its allocation's
// magazine line. Thread 0 puts 40 values in seven classes, one run
// each, deletes them and lets them expire, so all seven runs are owed;
// then its puts crash at point's visit after+1: inside the first put's
// carry, or the second's. Recovery completes the runs the crashed put
// had cut, which it reports pending or not with the put's own block,
// and the owed list keeps exactly the values whose free had not begun:
// a prefix of what it held before that put, shorter by the runs it
// cut. Each value is then freed exactly once, and the ledger audits
// clean.
func TestCarryingPutCrashFreesEachOnce(t *testing.T) {
	for _, c := range []struct {
		point string
		after int
	}{
		{"small.magalloc.post-take", 0},
		{"small.local-free.post-put", 1},
		{"small.local-free.post-put", 4},
	} {
		t.Run(fmt.Sprintf("%s#%d", c.point, c.after), func(t *testing.T) {
			inj := crash.NewInjector()
			s, heap, procs := newPodStore(t, 2, 16, inj)
			const keys = 40
			putDelete(t, s, keys)
			inj.Arm(c.point, 0, c.after)
			var cr *crash.Crashed
			var before []uint64
			puts := 0
			for ; puts < 8 && cr == nil; puts++ {
				before = keysOwed(s)
				cr = crash.Run(func() { s.Put(0, key(keys+puts), make([]byte, 100)) })
			}
			if cr == nil || cr.TID != 0 || cr.Point != c.point {
				t.Fatalf("puts did not crash at %q on thread 0: %+v", c.point, cr)
			}
			inj.Disarm()
			after := keysOwed(s)
			if len(after) >= len(before) || !slices.Equal(after, before[:len(after)]) {
				t.Fatalf("owed %d values before the crashed put and %d after; want a shorter prefix", len(before), len(after))
			}
			heap.MarkCrashed(0)
			_, rep, err := procs[0].Recover(0)
			if err != nil {
				t.Fatalf("Recover: %v", err)
			}
			if rep.PendingAlloc != 0 {
				s.FreeOrphan(0, rep.PendingAlloc)
			}
			// The puts before the crashed one linked their values.
			for k := keys; k < keys+puts-1; k++ {
				if !s.Delete(0, key(k)) {
					t.Fatalf("key %d missing", k)
				}
			}
			drainAndAudit(t, s, heap, keys+puts-1)
		})
	}
}
