package core

import (
	"testing"

	"cxlalloc/internal/memsim"
	"cxlalloc/internal/vas"
)

// env is a pod-in-a-test: one device, one heap, several simulated
// processes with fault handlers, threads pre-attached round-robin.
type env struct {
	t      *testing.T
	cfg    Config
	dev    *memsim.Device
	h      *Heap
	spaces []*vas.Space
}

// testConfig returns a small configuration exercising every mechanism.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.NumThreads = 8
	cfg.MaxSmallSlabs = 64
	cfg.MaxLargeSlabs = 8
	cfg.HugeRegionSize = 1 << 20 // > largeMax so one region serves a minimal huge alloc
	cfg.NumReservations = 8
	cfg.DescsPerThread = 16
	cfg.NumHazards = 8
	cfg.UnsizedThreshold = 2
	cfg.CheckInvariants = true
	return cfg
}

// newEnv builds a pod with nProcs processes and threadsPerProc threads
// each; thread IDs are proc*threadsPerProc+i.
func newEnv(t *testing.T, cfg Config, nProcs, threadsPerProc int) *env {
	t.Helper()
	dc, err := DeviceFor(cfg)
	if err != nil {
		t.Fatalf("DeviceFor: %v", err)
	}
	dev := memsim.NewDevice(dc)
	h, err := NewHeap(cfg, dev)
	if err != nil {
		t.Fatalf("NewHeap: %v", err)
	}
	e := &env{t: t, cfg: cfg, dev: dev, h: h}
	for p := 0; p < nProcs; p++ {
		sp := vas.NewSpace(p, dev, PageSize)
		sp.SetHandler(func(tid int, s *vas.Space, page uint64) bool {
			return h.HandleFault(tid, s.Install, page)
		})
		e.spaces = append(e.spaces, sp)
		for i := 0; i < threadsPerProc; i++ {
			tid := p*threadsPerProc + i
			if err := h.AttachThread(tid, sp); err != nil {
				t.Fatalf("AttachThread(%d): %v", tid, err)
			}
		}
	}
	return e
}

// alloc allocates or fails the test.
func (e *env) alloc(tid, size int) Ptr {
	e.t.Helper()
	p, err := e.h.Alloc(tid, size)
	if err != nil {
		e.t.Fatalf("Alloc(tid=%d, size=%d): %v", tid, size, err)
	}
	if p == 0 {
		e.t.Fatalf("Alloc(tid=%d, size=%d) returned nil pointer", tid, size)
	}
	return p
}

// checkAll fails the test on any invariant violation.
func (e *env) checkAll(tid int) {
	e.t.Helper()
	if err := e.h.CheckAll(tid); err != nil {
		e.t.Fatalf("invariants: %v", err)
	}
}

// leakedSlabs returns every slab of s that is unreachable: not on any
// thread-local list, not on the global free list, not detached (owned
// and full), and not disowned with remote frees still pending. Requires
// quiescence. It reads thread-local state through each thread's own
// cache, since that is the authoritative view for owned slabs.
func (e *env) leakedSlabs(s *slabHeap) []int {
	probe := e.dev.NewCache()
	reach := map[int]bool{}
	cur := uint64(payloadOf(e.h.dcas.Load(0, s.freeW)))
	for cur != 0 {
		idx := int(cur - 1)
		if reach[idx] {
			break // cycle; invariant checks report it separately
		}
		reach[idx] = true
		cur = uint64(w0Next(probe.LoadFresh(s.descW0(idx))))
	}
	for t := range e.h.threads {
		ts := &e.h.threads[t]
		if !ts.attached {
			continue
		}
		for c := 0; c < len(s.classes); c++ {
			cur := ts.cache.Load(s.localW(t, c))
			for steps := 0; cur != 0 && steps <= s.maxSlabs; steps++ {
				idx := int(cur - 1)
				reach[idx] = true
				cur = uint64(w0Next(s.loadW0(ts, idx)))
			}
		}
	}
	var leaked []int
	for idx := 0; idx < int(s.length(0)); idx++ {
		if reach[idx] {
			continue
		}
		w0 := probe.LoadFresh(s.descW0(idx))
		if o := int(w0Owner(w0)); o > 0 && e.h.threads[o-1].attached {
			ots := &e.h.threads[o-1]
			w0 = s.loadW0(ots, idx)
			if w0Class(w0) != 0 && s.getFreeCount(ots, idx) == 0 {
				continue // detached: reachable via the owner's future frees
			}
		} else if w0Class(w0) != 0 && s.remoteCount(0, idx) > 0 {
			continue // disowned: reclaimed when the countdown reaches zero
		}
		leaked = append(leaked, idx)
	}
	return leaked
}
