package alloc_test

import (
	"testing"

	"cxlalloc/internal/alloc"
	"cxlalloc/internal/alloc/alloctest"
	"cxlalloc/internal/core"
	"cxlalloc/internal/memsim"
	"cxlalloc/internal/vas"
)

// newCXL builds a cxlalloc-backed Allocator with 8 attached threads in
// one simulated process.
func newCXL(t *testing.T, name string, mutate func(*core.Config)) alloc.Allocator {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.NumThreads = 8
	cfg.MaxSmallSlabs = 512
	cfg.MaxLargeSlabs = 32
	cfg.HugeRegionSize = 1 << 20
	cfg.NumReservations = 16
	cfg.DescsPerThread = 64
	cfg.NumHazards = 16
	if mutate != nil {
		mutate(&cfg)
	}
	dc, err := core.DeviceFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dev := memsim.NewDevice(dc)
	h, err := core.NewHeap(cfg, dev)
	if err != nil {
		t.Fatal(err)
	}
	sp := vas.NewSpace(0, dev, core.PageSize)
	sp.SetHandler(func(tid int, s *vas.Space, page uint64) bool {
		return h.HandleFault(tid, s.Install, page)
	})
	for tid := 0; tid < cfg.NumThreads; tid++ {
		if err := h.AttachThread(tid, sp); err != nil {
			t.Fatal(err)
		}
	}
	return alloc.NewCXL(h, name)
}

func TestCXLConformance(t *testing.T) {
	alloctest.Run(t, func() alloc.Allocator {
		return newCXL(t, "cxlalloc", nil)
	}, alloctest.Options{})
}

func TestCXLNonRecoverableConformance(t *testing.T) {
	alloctest.Run(t, func() alloc.Allocator {
		return newCXL(t, "cxlalloc-nonrecoverable", func(c *core.Config) {
			c.NonRecoverable = true
		})
	}, alloctest.Options{})
}

func TestCXLProperties(t *testing.T) {
	a := newCXL(t, "cxlalloc", nil)
	pr := a.Properties()
	if !pr.CrossProcess || !pr.Mmap || !pr.FailNonBlocking || pr.Recovery != "NB" || pr.Strategy != "App" {
		t.Fatalf("cxlalloc Table 1 row wrong: %+v", pr)
	}
	// HWcc accounting flows through.
	p, err := a.Alloc(0, 64)
	if err != nil {
		t.Fatal(err)
	}
	if f := a.Footprint(); f.HWccBytes == 0 {
		t.Fatal("HWcc bytes not reported")
	}
	a.Free(0, p)
	a.Maintain(0)
}
