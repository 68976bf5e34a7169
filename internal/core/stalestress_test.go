package core

import (
	"fmt"
	"testing"

	"cxlalloc/internal/atomicx"
	"cxlalloc/internal/memsim"
	"cxlalloc/internal/vas"
	"cxlalloc/internal/xrand"
)

// Regression for a stale-owner hole in the SWcc descriptor protocol,
// found by the chaos sweep (seed 2026, step 797 of this exact op mix):
// detach used to flush the descriptor *before* the unlink walk re-read
// its next pointer, leaving the line resident in the owner's cache, and
// steal never durably overwrote the detach-published w0 on the device.
// Either copy — the resident line or the device word — could later show
// owner==me for a slab that had been stolen and reinitialized, routing
// a free of the NEW incarnation down the local path: the old owner then
// re-initialized a slab another thread was allocating from, and the
// same block was handed out twice.
//
// The test drives the chaos-harness op mix at the core level in every
// incoherent mode and fails on any duplicate live pointer. ModeDRAM is
// immune (coherent mode bypasses the simulated caches), which is how
// the bug hid from the rest of the suite.
func TestStaleOwnerDuplicateBlock(t *testing.T) {
	for _, mode := range []atomicx.Mode{atomicx.ModeHWcc, atomicx.ModeSWFlush, atomicx.ModeMCAS} {
		t.Run(fmt.Sprintf("mode=%d", mode), func(t *testing.T) {
			runStaleOwnerStress(t, mode)
		})
	}
}

func runStaleOwnerStress(t *testing.T, mode atomicx.Mode) {
	cfg := DefaultConfig()
	cfg.NumThreads = 4
	cfg.MaxSmallSlabs = 64
	cfg.MaxLargeSlabs = 16
	cfg.HugeRegionSize = 1 << 20
	cfg.NumReservations = 8
	cfg.DescsPerThread = 16
	cfg.NumHazards = 8
	cfg.UnsizedThreshold = 2
	cfg.Mode = mode
	dc, err := DeviceFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dev := memsim.NewDevice(dc)
	h, err := NewHeap(cfg, dev)
	if err != nil {
		t.Fatal(err)
	}
	// Two simulated processes, threads round-robin.
	spaces := make([]*vas.Space, 2)
	for p := range spaces {
		sp := vas.NewSpace(p, dev, PageSize)
		sp.SetHandler(func(tid int, s *vas.Space, page uint64) bool {
			return h.HandleFault(tid, s.Install, page)
		})
		spaces[p] = sp
	}
	for tid := 0; tid < cfg.NumThreads; tid++ {
		if err := h.AttachThread(tid, spaces[tid%2]); err != nil {
			t.Fatal(err)
		}
	}

	rng := xrand.New(2026)
	var live []Ptr
	addLive := func(p Ptr, i int) {
		for _, q := range live {
			if q == p {
				t.Fatalf("step %d: pointer %#x handed out twice", i, p)
			}
		}
		live = append(live, p)
	}
	for i := 0; i < 1400; i++ {
		tid := i % cfg.NumThreads
		roll := rng.Intn(100)
		switch {
		case roll < 55 || len(live) == 0:
			var size int
			switch c := rng.Intn(20); {
			case c < 13:
				size = rng.IntRange(1, smallMax)
			case c < 18:
				size = rng.IntRange(smallMax+1, largeMax)
			default:
				size = largeMax + rng.IntRange(1, 64<<10)
			}
			p, err := h.Alloc(tid, size)
			if err != nil {
				continue
			}
			addLive(p, i)
			h.Bytes(tid, p, 1)[0] = byte(i)
		case roll < 90:
			idx := rng.Intn(len(live))
			p := live[idx]
			live = append(live[:idx], live[idx+1:]...)
			h.Free(tid, p)
		case roll < 96:
			h.Bytes(tid, live[rng.Intn(len(live))], 1)
		default:
			h.Maintain(tid)
		}
	}
	for len(live) > 0 {
		p := live[len(live)-1]
		live = live[:len(live)-1]
		h.Free(0, p)
	}
	if err := h.CheckAll(0); err != nil {
		t.Fatal(err)
	}
}
