package ralloc

import (
	"fmt"
	"strings"
	"testing"

	"cxlalloc/internal/alloc"
	"cxlalloc/internal/alloc/alloctest"
	"cxlalloc/internal/atomicx"
)

func TestConformanceDRAM(t *testing.T) {
	alloctest.Run(t, func() alloc.Allocator {
		return New(64<<20, 8, atomicx.ModeDRAM, nil)
	}, alloctest.Options{})
}

func TestConformanceMCAS(t *testing.T) {
	alloctest.Run(t, func() alloc.Allocator {
		return New(64<<20, 8, atomicx.ModeMCAS, nil)
	}, alloctest.Options{Threads: 3})
}

func TestSharedPartialSuperblocks(t *testing.T) {
	a := New(16<<20, 2, atomicx.ModeDRAM, nil)
	// Thread 0 fills a whole superblock (64 KiB / 64 B = 1024 blocks) so
	// it goes full; the first subsequent free pushes it onto the shared
	// partial list, where thread 1 must find it instead of carving a new
	// superblock.
	var ps []alloc.Ptr
	for i := 0; i < 1024; i++ {
		p, err := a.Alloc(0, 64)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	for _, p := range ps {
		a.Free(1, p)
	}
	before := a.count.Load()
	p, err := a.Alloc(1, 64)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.count.Load(); got != before {
		t.Fatalf("thread 1 carved a new superblock (%d -> %d) with free blocks available", before, got)
	}
	a.Free(1, p)
}

// TestCyclicPartialListFailsByName pushes a superblock onto its class's
// partial list twice: its owner keeps it active and drains it again
// between two full -> partial frees, so the list becomes a self-loop of
// one exhausted superblock. A peer's Alloc must then fail naming the
// class and the list head, not spin forever.
func TestCyclicPartialListFailsByName(t *testing.T) {
	a := New(16<<20, 2, atomicx.ModeDRAM, nil)
	var ps []alloc.Ptr
	for i := 0; i < 1024; i++ { // fill the superblock: head -> 0
		p, err := a.Alloc(0, 64)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	for i := 0; i < 2; i++ {
		a.Free(1, ps[i])         // full -> partial: pushed
		p, err := a.Alloc(0, 64) // still active at thread 0: drained again
		if err != nil || p != ps[i] {
			t.Fatalf("re-alloc = %#x, %v; want %#x", p, err, ps[i])
		}
	}
	var msg string
	func() {
		defer func() { msg = fmt.Sprint(recover()) }()
		a.Alloc(1, 64)
	}()
	if !strings.Contains(msg, "class 3 (64 B)") || !strings.Contains(msg, "partial list head superblock 0") {
		t.Fatalf("Alloc on a cyclic partial list: got %q, want a panic naming class 3 and superblock 0", msg)
	}
}

func TestNameByMode(t *testing.T) {
	if got := New(1<<20, 1, atomicx.ModeDRAM, nil).Name(); got != "ralloc" {
		t.Fatalf("name = %q", got)
	}
	if got := New(1<<20, 1, atomicx.ModeMCAS, nil).Name(); got != "ralloc-mcas" {
		t.Fatalf("name = %q", got)
	}
	if got := New(1<<20, 1, atomicx.ModeHWcc, nil).Name(); got != "ralloc-hwcc" {
		t.Fatalf("name = %q", got)
	}
}

func TestCollectRebuildsFreeLists(t *testing.T) {
	a := New(16<<20, 2, atomicx.ModeDRAM, nil)
	// Simulate a crash: allocate 100 blocks, "lose" half (no free), keep
	// the other half live.
	var live, lost []alloc.Ptr
	for i := 0; i < 100; i++ {
		p, _ := a.Alloc(0, 128)
		if i%2 == 0 {
			live = append(live, p)
		} else {
			lost = append(lost, p)
		}
	}
	if leak := a.LeakedBytes(live); leak != uint64(len(lost)*128) {
		t.Fatalf("LeakedBytes = %d, want %d", leak, len(lost)*128)
	}
	elapsed, swept := a.Collect(live)
	if elapsed <= 0 {
		t.Fatal("Collect reported no elapsed time")
	}
	if swept != uint64(len(lost)*128) {
		t.Fatalf("swept %d bytes, want %d", swept, len(lost)*128)
	}
	if leak := a.LeakedBytes(live); leak != 0 {
		t.Fatalf("LeakedBytes after GC = %d", leak)
	}
	// Live data is intact and allocatable space recovered: allocate the
	// lost count again without carving new superblocks.
	before := a.count.Load()
	for range lost {
		if _, err := a.Alloc(1, 128); err != nil {
			t.Fatal(err)
		}
	}
	if got := a.count.Load(); got != before {
		t.Fatalf("superblocks grew %d -> %d after GC", before, got)
	}
	for _, p := range live {
		a.Free(0, p)
	}
}

func TestHWccFootprintLargerThanCxlalloc(t *testing.T) {
	// The reference point for the paper's "cxlalloc uses 7.1% of
	// ralloc's HWcc memory": ralloc's per-superblock metadata all needs
	// HWcc, roughly (24 + 4*4096) bytes per 64 KiB superblock vs
	// cxlalloc's 8 bytes per 32 KiB slab.
	a := New(16<<20, 1, atomicx.ModeDRAM, nil)
	var ps []alloc.Ptr
	for i := 0; i < 1000; i++ {
		p, _ := a.Alloc(0, 64)
		ps = append(ps, p)
	}
	f := a.Footprint()
	if f.HWccBytes == 0 || f.HWccBytes < 8*uint64(a.count.Load()) {
		t.Fatalf("implausible ralloc HWcc bytes: %d", f.HWccBytes)
	}
	for _, p := range ps {
		a.Free(0, p)
	}
}

func TestOversizeRejected(t *testing.T) {
	a := New(4<<20, 1, atomicx.ModeDRAM, nil)
	if _, err := a.Alloc(0, 1<<20); err != alloc.ErrUnsupportedSize {
		t.Fatalf("err = %v", err)
	}
}
