package core

// Hot-path microbenchmarks (DESIGN.md §7). These sit one layer above the
// memsim cache benchmarks: a full small-heap malloc/free pair through
// the SWcc protocol is the unit of work every figure-9 number is built
// from, so regressions here show up everywhere.

import (
	"testing"

	"cxlalloc/internal/atomicx"
	"cxlalloc/internal/memsim"
	"cxlalloc/internal/vas"
)

func benchHeap(b *testing.B, mode atomicx.Mode) *Heap {
	b.Helper()
	cfg := DefaultConfig()
	cfg.NumThreads = 2
	cfg.MaxSmallSlabs = 256
	cfg.MaxLargeSlabs = 16
	cfg.HugeRegionSize = 1 << 20
	cfg.NumReservations = 8
	cfg.DescsPerThread = 32
	cfg.NumHazards = 16
	cfg.Mode = mode
	dc, err := DeviceFor(cfg)
	if err != nil {
		b.Fatal(err)
	}
	dev := memsim.NewDevice(dc)
	h, err := NewHeap(cfg, dev)
	if err != nil {
		b.Fatal(err)
	}
	sp := vas.NewSpace(0, dev, PageSize)
	sp.SetHandler(func(tid int, s *vas.Space, page uint64) bool {
		return h.HandleFault(tid, s.Install, page)
	})
	for tid := 0; tid < cfg.NumThreads; tid++ {
		if err := h.AttachThread(tid, sp); err != nil {
			b.Fatal(err)
		}
	}
	return h
}

// BenchmarkSmallMallocFree is one thread-local 64 B allocate/free pair —
// the peak-throughput shape of fig9 threadtest — under each coherence
// model. The swcc/mcas variants pay the full SWcc cache protocol per
// metadata access; dram bypasses it.
func BenchmarkSmallMallocFree(b *testing.B) {
	for _, m := range []struct {
		name string
		mode atomicx.Mode
	}{
		{"dram", atomicx.ModeDRAM},
		{"swcc", atomicx.ModeSWFlush},
		{"mcas", atomicx.ModeMCAS},
	} {
		b.Run(m.name, func(b *testing.B) {
			h := benchHeap(b, m.mode)
			// Warm: fault in the first slab and its mappings.
			p, err := h.Alloc(0, 64)
			if err != nil {
				b.Fatal(err)
			}
			h.Free(0, p)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p, err := h.Alloc(0, 64)
				if err != nil {
					b.Fatal(err)
				}
				h.Free(0, p)
			}
		})
	}
}
