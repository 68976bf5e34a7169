package liveness

import (
	"sync"
	"sync/atomic"
	"testing"

	"cxlalloc/internal/core"
	"cxlalloc/internal/memsim"
	"cxlalloc/internal/vas"
)

// stressPod builds a heap with n attached, leased threads and one
// Manager per process (threads spread round-robin over procs).
func stressPod(tb testing.TB, n, procs int, cfg Config) (*core.Heap, []*Manager, []uint16) {
	tb.Helper()
	hc := core.DefaultConfig()
	hc.NumThreads = n
	hc.MaxSmallSlabs = 64
	hc.MaxLargeSlabs = 8
	hc.HugeRegionSize = 1 << 20
	hc.NumReservations = 8
	hc.DescsPerThread = 16
	hc.NumHazards = 8
	dc, err := core.DeviceFor(hc)
	if err != nil {
		tb.Fatalf("DeviceFor: %v", err)
	}
	dev := memsim.NewDevice(dc)
	h, err := core.NewHeap(hc, dev)
	if err != nil {
		tb.Fatalf("NewHeap: %v", err)
	}
	cfg = cfg.WithDefaults()
	mgrs := make([]*Manager, procs)
	spaces := make([]*vas.Space, procs)
	for p := 0; p < procs; p++ {
		spaces[p] = vas.NewSpace(p, dev, core.PageSize)
		spaces[p].SetHandler(func(tid int, s *vas.Space, page uint64) bool {
			return h.HandleFault(tid, s.Install, page)
		})
		mgrs[p] = NewManager(h, spaces[p], cfg, Hooks{})
	}
	epochs := make([]uint16, n)
	for tid := 0; tid < n; tid++ {
		if err := h.AttachThread(tid, spaces[tid%procs]); err != nil {
			tb.Fatalf("AttachThread: %v", err)
		}
		epochs[tid] = h.LeaseAcquire(tid, h.ClockNow(tid)+cfg.LeaseTicks())
	}
	return h, mgrs, epochs
}

// TestHeartbeatConcurrentStress guards the lock-free Heartbeat rewrite:
// N goroutines Run-loop their own slots — renewing leases and competing
// for the poll window via the pollAt CAS — while every manager's
// watchdog sweeps concurrently. Run under -race this exercises the
// renewAt/pollAt plane; semantically, healthy threads heartbeating this
// fast must produce zero takeovers, zero self-fences, and leave every
// slot alive and leased.
func TestHeartbeatConcurrentStress(t *testing.T) {
	const (
		threads = 8
		procs   = 2
		iters   = 3000
	)
	// The Go scheduler may deschedule a goroutine for an unbounded number
	// of pod ticks (unlike the paper's pinned threads), so the grace
	// multiple must cover the whole run: the pod makes threads*iters
	// ticks, and any smaller lease could *legitimately* expire mid-stress.
	cfg := Config{RenewInterval: 4, GraceMult: threads * iters}
	h, mgrs, epochs := stressPod(t, threads, procs, cfg)
	var fences [threads]int
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			m := mgrs[tid%procs]
			for i := 0; i < iters; i++ {
				if m.Heartbeat(tid, epochs[tid]) {
					fences[tid]++
					return
				}
			}
		}(tid)
	}
	wg.Wait()
	for tid := 0; tid < threads; tid++ {
		if fences[tid] != 0 {
			t.Errorf("thread %d self-fenced", tid)
		}
		if !h.Alive(tid) || !h.Leased(tid) {
			t.Errorf("thread %d not alive+leased after stress", tid)
		}
	}
	for p, m := range mgrs {
		if ft := m.FalseTakeovers(); ft != 0 {
			t.Errorf("manager %d: %d false takeovers", p, ft)
		}
		if r := m.Repairs(); r != 0 {
			t.Errorf("manager %d: %d repairs of healthy threads", p, r)
		}
	}
}

// TestHeartbeatPollCadence pins the CAS-arbitrated sweep cadence on a
// single goroutine: with PollInterval p, exactly one poll fires per p
// ticks, same as the mutex implementation — the deterministic harnesses
// (chaos, mttr) depend on this.
func TestHeartbeatPollCadence(t *testing.T) {
	cfg := Config{RenewInterval: 4, GraceMult: 6, PollInterval: 5}
	_, mgrs, epochs := stressPod(t, 2, 1, cfg)
	m := mgrs[0]
	polls := 0
	prev := m.pollAt.Load()
	for i := 0; i < 100; i++ {
		if m.Heartbeat(0, epochs[0]) {
			t.Fatal("self-fence on healthy pod")
		}
		if at := m.pollAt.Load(); at != prev {
			polls++
			prev = at
		}
	}
	// 100 ticks / poll every 5 => 20 sweeps (first fires immediately).
	if polls != 20 {
		t.Fatalf("polls = %d over 100 ticks with PollInterval 5, want 20", polls)
	}
}

// BenchmarkHeartbeat measures the per-Run liveness overhead: one clock
// tick, a due-check on the renewal word, and the poll-window check. The
// hot path must not allocate and, off the renewal/poll cadence, must not
// write any shared word except the clock.
func BenchmarkHeartbeat(b *testing.B) {
	// Long grace: only tid 0 heartbeats, and the others' leases must not
	// expire mid-benchmark or the sweep starts doing real repairs.
	_, mgrs, epochs := stressPod(b, 4, 1, Config{RenewInterval: 4, GraceMult: 1 << 40})
	m := mgrs[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.Heartbeat(0, epochs[0]) {
			b.Fatal("self-fenced")
		}
	}
}

// BenchmarkHeartbeatParallel is the contended variant: every worker
// heartbeats its own slot against one shared manager, the shape the
// m.mu mutex used to serialize.
func BenchmarkHeartbeatParallel(b *testing.B) {
	const threads = 8
	_, mgrs, epochs := stressPod(b, threads, 1, Config{RenewInterval: 4, GraceMult: 1 << 40})
	m := mgrs[0]
	var next int32
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		tid := int(atomic.AddInt32(&next, 1)-1) % threads
		for pb.Next() {
			if m.Heartbeat(tid, epochs[tid]) {
				b.Error("self-fenced")
				return
			}
		}
	})
}
