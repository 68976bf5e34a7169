// Package alloc defines the common interface the benchmark harness uses
// to drive cxlalloc and every baseline from the paper's evaluation
// (Table 1): mimalloc, boost.interprocess, lightning, cxl-shm, and
// ralloc. Each baseline is a from-scratch reimplementation of the
// design properties the paper's analysis attributes its results to.
package alloc

import "errors"

// Ptr is an offset pointer into an allocator's data arena; 0 is nil.
type Ptr = uint64

// ErrOutOfMemory is returned when an allocator's heap is exhausted.
var ErrOutOfMemory = errors.New("alloc: out of memory")

// ErrUnsupportedSize is returned by allocators with a maximum allocation
// size (cxl-shm caps at 1 KiB; the paper reports it "crashes" on MC-12
// and MC-37, which the harness records as a failed configuration).
var ErrUnsupportedSize = errors.New("alloc: allocation size unsupported by this allocator")

// Allocator is the harness-facing interface. Implementations must be
// safe for concurrent use by distinct thread IDs.
type Allocator interface {
	// Name returns the evaluation's name for this allocator.
	Name() string
	// Alloc allocates size bytes on behalf of thread tid.
	Alloc(tid int, size int) (Ptr, error)
	// Free releases p; any thread may free any pointer for cross-process
	// allocators (mimalloc: any thread in the single process).
	Free(tid int, p Ptr)
	// Bytes returns the allocation's bytes as seen by tid's process.
	Bytes(tid int, p Ptr, n int) []byte
	// AccessHook is invoked by shared data structures on each object
	// access. cxl-shm implements its per-object reference counting here
	// (the contention source the paper identifies); others no-op.
	AccessHook(tid int, p Ptr)
	// Maintain runs periodic housekeeping (cxlalloc's hazard sweep).
	Maintain(tid int)
	// Footprint returns the allocator's memory accounting.
	Footprint() Footprint
	// Properties returns the allocator's Table 1 row.
	Properties() Properties
}

// Footprint is the PSS-style accounting the figures report.
type Footprint struct {
	// DataBytes is touched data-region memory.
	DataBytes uint64
	// MetaBytes is allocator metadata (descriptors, headers, lists).
	MetaBytes uint64
	// HWccBytes is metadata requiring hardware cache coherence (or
	// uncachable mCAS memory). The paper's §5.2.1 "HWcc memory"
	// comparison reports this.
	HWccBytes uint64
	// TrackingBytes is auxiliary per-allocation tracking state
	// (lightning's GC array), reported separately because it dominates
	// its PSS.
	TrackingBytes uint64
}

// PSS returns the total proportional-set-size analogue.
func (f Footprint) PSS() uint64 {
	return f.DataBytes + f.MetaBytes + f.HWccBytes + f.TrackingBytes
}

// Properties is one row of the paper's Table 1.
type Properties struct {
	Name string
	// Memory kinds the allocator was designed for: "M" (volatile,
	// in-process), "XP" (cross-process), "CXL", "PM".
	Memory string
	// CrossProcess: supports cross-process allocation via pointer
	// alternatives (offset pointers).
	CrossProcess bool
	// Mmap: can use mmap to extend the heap or back large allocations.
	Mmap bool
	// FailNonBlocking: a thread crash cannot block live threads.
	FailNonBlocking bool
	// Recovery: "NB" (non-blocking), "B" (blocking), or "none".
	Recovery string
	// Strategy: "GC", "App", or "none".
	Strategy string
}

// BatchFreer is implemented by allocators that free many pointers in one
// call more cheaply than one at a time (cxlalloc: one countdown
// decrement per remote slab). FreeBatch consumes *ps from its tail and
// takes each pointer, or each group it frees as one, out of *ps before
// that free begins, so a crash leaves in *ps exactly what is still owed.
type BatchFreer interface {
	FreeBatch(tid int, ps *[]Ptr)
}

// FreeAll frees every pointer in *ps on behalf of tid, through
// FreeBatch when a implements BatchFreer and otherwise by popping and
// Freeing one pointer at a time, with the same crash contract either way.
func FreeAll(a Allocator, tid int, ps *[]Ptr) {
	if b, ok := a.(BatchFreer); ok {
		b.FreeBatch(tid, ps)
		return
	}
	for len(*ps) > 0 {
		p := (*ps)[len(*ps)-1]
		*ps = (*ps)[:len(*ps)-1]
		a.Free(tid, p)
	}
}
