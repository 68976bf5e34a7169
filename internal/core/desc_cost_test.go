package core

import (
	"fmt"
	"slices"
	"testing"

	"cxlalloc/internal/telemetry"
)

// A slab descriptor's device cost, counted the way magazine_cost_test.go
// counts a pop: exact per-thread cache events on an incoherent pod with
// no latency model. A slab pays for the descriptor lines its class uses
// (slabHeap.lines) — word 0, the free count and ⌈blocks/64⌉ bitset words
// — plus any its owner still holds dirty from an earlier class (the
// dirty extent in word 0), not for the whole descriptor stride. The
// allocation that detaches a slab is a classic take, as every slab's
// last block is: its window gives all the others.

// warmLocal makes tid's list-head lines and oplog line resident, so an
// operation's fetches are its descriptor lines only.
func warmLocal(e *env, tid int) {
	ts := &e.h.threads[tid]
	for _, s := range []*slabHeap{e.h.small, e.h.large} {
		for c := range s.classes {
			ts.cache.Load(s.localW(tid, c))
		}
	}
	ts.cache.Load(e.h.lay.oplogW(tid))
}

// fillSlab has tid allocate class blocks of s until slab idx is full,
// and returns what the filling allocation — the one that detaches the
// slab — cost. Every block must come from slab idx.
func fillSlab(t *testing.T, e *env, s *slabHeap, tid, class, idx int) ([]Ptr, telemetry.CacheStats) {
	t.Helper()
	size, total := s.classes[class], s.blocksPer(class)
	ptrs := make([]Ptr, 0, total)
	for i := 0; i < total-1; i++ {
		ptrs = append(ptrs, e.alloc(tid, size))
	}
	var last Ptr
	c := lineCost(e, tid, func() { last = e.alloc(tid, size) })
	ptrs = append(ptrs, last)
	for _, p := range ptrs {
		if got := s.slabOf(p); got != idx {
			t.Fatalf("%d B block %#x from slab %d, want slab %d", size, p, got, idx)
		}
	}
	return ptrs, c
}

// wantDetach fails unless c, the cost of an allocation that took a
// slab's last block, is the take's record, the detach's record and
// exactly n descriptor lines.
func wantDetach(t *testing.T, what string, c telemetry.CacheStats, n int) {
	t.Helper()
	if c.Flushes != uint64(2+n) {
		t.Fatalf("%s: the detaching alloc flushed %d lines, want 2 records + %d descriptor lines",
			what, c.Flushes, n)
	}
}

// Only classes of 64 B and below span more than descriptor line 0.
func TestClassLinesTable(t *testing.T) {
	e, _ := costEnv(t)
	want := []int{1, 9, 5, 3, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1}
	if got := e.h.small.lines; !slices.Equal(got, want) {
		t.Fatalf("small lines = %v, want %v", got, want)
	}
	for c, n := range e.h.large.lines {
		if n != 1 {
			t.Fatalf("large class %d spans %d lines, want 1", c, n)
		}
	}
	if e.h.small.descLines != 9 || e.h.large.descLines != 1 {
		t.Fatalf("descriptor strides %d and %d lines, want 9 and 1",
			e.h.small.descLines, e.h.large.descLines)
	}
}

// For every class: initializing a slab whose descriptor is cold fetches
// exactly the lines the class uses, and the detach that publishes it
// when full flushes exactly those lines.
func TestDescCostFollowsClassLines(t *testing.T) {
	for _, heap := range []string{"small", "large"} {
		classes := smallClassSizes
		if heap == "large" {
			classes = largeClassSizes
		}
		for class := 1; class < len(classes); class++ {
			t.Run(fmt.Sprintf("%s/%dB", heap, classes[class]), func(t *testing.T) {
				e, _ := costEnv(t)
				s := e.h.small
				if heap == "large" {
					s = e.h.large
				}
				const tid = 0
				ts := &e.h.threads[tid]
				if !s.extend(ts, tid) {
					t.Fatal("extend failed on an empty heap")
				}
				idx := int(ts.cache.Load(s.localW(tid, 0))) - 1
				ts.cache.FlushRange(s.descW0(idx), s.descStride)
				warmLocal(e, tid)
				n := s.lines[class]
				c := lineCost(e, tid, func() { s.initSlab(ts, tid, class) })
				if c.Fetches != uint64(n) {
					t.Fatalf("initSlab fetched %d lines, want the class's %d", c.Fetches, n)
				}
				_, c = fillSlab(t, e, s, tid, class, idx)
				wantDetach(t, "fresh slab", c, n)
			})
		}
	}
}

// A slab emptied as 16 B (5 lines) and re-initialized as 1 KiB (1 line)
// keeps its owner's dirty extent: its next release publishes all 5
// lines. The acquisition that follows — a steal by the last remote
// freer — zeroes the extent, so the new owner's release publishes 1.
func TestReinitPublishesOldExtentUntilAcquired(t *testing.T) {
	e, _ := costEnv(t)
	const owner, adopter = 0, 2
	s := e.h.small
	p := e.alloc(owner, 16)
	idx := s.slabOf(p)
	e.h.Free(owner, p)
	e.h.DrainMagazines(owner) // the slab empties as 16 B
	if ext := w0Ext(s.loadW0(&e.h.threads[owner], idx)); ext != 5 {
		t.Fatalf("emptied 16 B slab has dirty extent %d, want 5", ext)
	}
	big, c := fillSlab(t, e, s, owner, smallClassOf(smallMax), idx)
	wantDetach(t, "16 B -> 1 KiB re-init", c, 5)

	for _, q := range big {
		e.h.Free(adopter, q) // the last one zeroes the countdown and steals
	}
	_, c = fillSlab(t, e, s, adopter, smallClassOf(smallMax), idx)
	wantDetach(t, "after the steal", c, 1)
}
