package recoverable

import (
	"testing"

	"cxlalloc/internal/alloc"
	"cxlalloc/internal/core"
	"cxlalloc/internal/crash"
	"cxlalloc/internal/memsim"
	"cxlalloc/internal/vas"
)

// newCXLQueueEnv builds a two-thread cxlalloc heap with a crash injector
// and a recoverable queue on top of it.
func newCXLQueueEnv(t *testing.T) (*core.Heap, *crash.Injector, []*vas.Space, *Queue) {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.NumThreads = 2
	cfg.MaxSmallSlabs = 64
	cfg.MaxLargeSlabs = 8
	cfg.HugeRegionSize = 1 << 20
	cfg.NumReservations = 8
	cfg.DescsPerThread = 16
	cfg.NumHazards = 8
	cfg.CheckInvariants = true
	inj := crash.NewInjector()
	cfg.Crash = inj
	dc, err := core.DeviceFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dev := memsim.NewDevice(dc)
	h, err := core.NewHeap(cfg, dev)
	if err != nil {
		t.Fatal(err)
	}
	spaces := make([]*vas.Space, cfg.NumThreads)
	for tid := 0; tid < cfg.NumThreads; tid++ {
		sp := vas.NewSpace(tid, dev, core.PageSize)
		sp.SetHandler(func(tid int, s *vas.Space, page uint64) bool {
			return h.HandleFault(tid, s.Install, page)
		})
		spaces[tid] = sp
		if err := h.AttachThread(tid, sp); err != nil {
			t.Fatal(err)
		}
	}
	return h, inj, spaces, NewQueue(alloc.NewCXL(h, "cxlalloc"))
}

// TestQueueDoubleFaultNoLeak is the application-level view of
// crash-during-recovery: an insert crashes inside the allocator, the
// first recovery attempt crashes too, and after the second recovery the
// application adopts the pending block — ending with exactly the right
// element count, no leak, and no double-insert.
func TestQueueDoubleFaultNoLeak(t *testing.T) {
	h, inj, spaces, q := newCXLQueueEnv(t)
	const before = 20
	for i := 0; i < before; i++ {
		if err := q.Insert(0, i, 64); err != nil {
			t.Fatal(err)
		}
	}

	// Fault 1: the allocator crashes after taking the block for element
	// `before`, before Insert could link it.
	inj.Arm("small.alloc.post-take", 0, 0)
	if c := crash.Run(func() { q.Insert(0, before, 64) }); c == nil {
		t.Fatal("insert never crashed")
	}
	h.MarkCrashed(0)
	inj.Disarm()

	// The other thread is not blocked while slot 0 is dead.
	for i := 0; i < 5; i++ {
		if err := q.Insert(1, 100+i, 64); err != nil {
			t.Fatal(err)
		}
	}

	// Fault 2: recovery of slot 0 crashes mid-way.
	inj.Arm("recover.post-redo", 0, 0)
	if c := crash.Run(func() { h.RecoverThread(0, spaces[0]) }); c == nil {
		t.Fatal("recovery never crashed")
	}
	inj.Disarm()
	h.MarkCrashed(0)

	// Second recovery converges and still reports the pending block.
	rep, err := h.RecoverThread(0, spaces[0])
	if err != nil {
		t.Fatal(err)
	}
	if rep.PendingAlloc == 0 {
		t.Fatal("pending allocation lost across the recovery crash")
	}
	// Memento-style adoption: the handoff completes the interrupted
	// insert instead of leaking the block.
	q.Adopt(0, rep.PendingAlloc)

	const after = 5
	for i := 0; i < after; i++ {
		if err := q.Insert(0, 200+i, 64); err != nil {
			t.Fatal(err)
		}
	}

	want := before + 1 + 5 + after // initial + adopted + other thread + tail
	if got := q.Len(); got != want {
		t.Fatalf("queue holds %d elements, want %d (leak or double-insert)", got, want)
	}
	if removed := q.RemoveAll(0); removed != want {
		t.Fatalf("RemoveAll freed %d, want %d", removed, want)
	}
	h.Maintain(0)
	h.Maintain(1)
	if err := h.CheckAll(0); err != nil {
		t.Fatal(err)
	}
}
