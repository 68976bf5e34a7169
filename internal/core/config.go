// Package core implements cxlalloc: the pod-scale memory allocator of
// the paper, with its three heaps (small, large, huge), the split
// HWcc/SWcc metadata layout (§3.2), the software cache-coherence
// protocol (§3.2.2), cross-process pointer consistency via address-space
// reservations, fault handling, and hazard offsets (§3.3), and
// partial-failure recovery via an 8-byte redo log and detectable CAS
// (§3.4).
package core

import (
	"errors"
	"fmt"

	"cxlalloc/internal/atomicx"
	"cxlalloc/internal/crash"
	"cxlalloc/internal/memsim"
)

// Ptr is an offset pointer into the device data region (§2.3). Offsets
// are stable in every process (PC-S), and 0 is the nil pointer: the data
// region begins with a guard page that is never allocated, so no valid
// allocation has offset 0.
type Ptr = uint64

// ErrOutOfMemory is returned when a heap cannot satisfy an allocation.
var ErrOutOfMemory = errors.New("cxlalloc: out of memory")

// ErrTooLarge is returned when an allocation exceeds the configured
// huge-heap capacity.
var ErrTooLarge = errors.New("cxlalloc: allocation exceeds heap capacity")

// The slab sizes of the small and large heaps are the paper prototype's,
// and PageSize is the simulated mmap granularity. Each slab size covers
// its heap's largest size class and is a whole number of pages.
const (
	SmallSlabSize = 32 << 10
	LargeSlabSize = 512 << 10
	PageSize      = 4096
)

// Config sizes and parameterizes a heap. The zero value is invalid; use
// DefaultConfig (optionally modified) instead.
type Config struct {
	// NumThreads is the number of thread slots in the pod (NUM_THREAD in
	// the paper's Figure 3). Thread IDs are 0..NumThreads-1.
	NumThreads int

	// MaxSmallSlabs / MaxLargeSlabs bound each heap's virtual address
	// space reservation (the grey regions in Figure 2). Heaps start at
	// length 0 and extend dynamically up to these bounds.
	MaxSmallSlabs int
	MaxLargeSlabs int

	// HugeRegionSize is the granularity of the huge heap's reservation
	// array: one entry grants a thread exclusive permission to install
	// mappings in one region of this many bytes.
	HugeRegionSize uint64
	// NumReservations is the reservation array length (NUM_RESERVATION).
	NumReservations int
	// DescsPerThread is each thread's huge-descriptor pool size.
	DescsPerThread int
	// NumHazards is each thread's hazard-offset list length (NUM_HAZARD).
	NumHazards int

	// UnsizedThreshold is the thread-local unsized free list length at
	// which slabs are spilled to the global free list (§3.1.1).
	UnsizedThreshold int

	// Mode selects the coherence model for HWcc metadata (§5.4):
	// sw_cas on DRAM or HWcc CXL memory, sw_flush_cas, or NMP mCAS.
	Mode atomicx.Mode

	// Latency optionally injects memory access latencies (Figure 11/12
	// experiments). Nil means no injected latency.
	Latency *memsim.Latency

	// NonRecoverable disables recovery-state updates and detectable CAS
	// (the paper's cxlalloc-nonrecoverable ablation, §5.2).
	NonRecoverable bool

	// AlwaysFreshOwner disables the §3.2.2 owner-caching optimization:
	// every free flushes and reloads SWccDesc.owner. Ablation only.
	AlwaysFreshOwner bool

	// NoDisown disables the disowned slab state (§3.2.1): full slabs
	// always detach, keeping their owner. Slabs with mixed local and
	// remote frees then become permanently unreclaimable (the counter
	// never reaches zero and the bitset never fills). Ablation only.
	NoDisown bool

	// CheckInvariants enables the runtime invariant checks of §5.1.
	CheckInvariants bool

	// Crash is the failure-injection hook; nil disables injection.
	Crash *crash.Injector

	// TrackPersist enables per-line durability tracking in every thread
	// cache (memsim.Config.TrackPersist), the substrate the adversarial
	// persistence harness needs to resolve crashes with CrashDiscard
	// instead of WritebackAll. Off by default: it taxes the Store hot
	// path. No effect in coherent modes (stores are durable at once).
	TrackPersist bool

	// SkipOplogFlush removes the flush+fence that makes the redo log
	// entry durable before an operation's first shared-state write. This
	// deliberately breaks the §3.4 recovery protocol; it exists ONLY so
	// the persist sweep's mutation meta-test can prove it detects a
	// missing protocol flush. Never set outside that test.
	SkipOplogFlush bool

	// SkipCommitFence elides the single commit fence of the magazine pop
	// — the fence that makes the handoff record and the mask-clear
	// durable together. This deliberately breaks the coalesced-fence
	// discipline of DESIGN.md §7.1; it exists ONLY so the persist sweep's
	// mutation meta-test can prove the sweep detects a missing
	// commit-boundary fence. Never set outside that test.
	SkipCommitFence bool
}

// DefaultConfig returns a configuration sized for tests and examples:
// the same shape as the paper's prototype, scaled to run comfortably in
// a unit-test process.
func DefaultConfig() Config {
	return Config{
		NumThreads:       64,
		MaxSmallSlabs:    2048, // 64 MiB of small data
		MaxLargeSlabs:    256,  // 128 MiB of large data
		HugeRegionSize:   8 << 20,
		NumReservations:  64, // 512 MiB of huge address space
		DescsPerThread:   512,
		NumHazards:       64,
		UnsizedThreshold: 4,
		Mode:             atomicx.ModeDRAM,
	}
}

// validate rejects configurations the layout cannot represent.
func (c *Config) validate() error {
	switch {
	case c.NumThreads <= 0 || c.NumThreads > 512:
		return fmt.Errorf("core: NumThreads %d out of range (1..512)", c.NumThreads)
	case c.MaxSmallSlabs <= 0 || c.MaxLargeSlabs <= 0:
		return errors.New("core: slab capacities must be positive")
	case c.MaxSmallSlabs >= 1<<26 || c.MaxLargeSlabs >= 1<<26:
		return errors.New("core: slab capacities exceed 26-bit recovery-state field")
	case c.HugeRegionSize == 0 || c.HugeRegionSize%PageSize != 0:
		return errors.New("core: HugeRegionSize must be a positive multiple of page size")
	case c.NumReservations <= 0 || c.DescsPerThread <= 0 || c.NumHazards <= 0:
		return errors.New("core: huge heap parameters must be positive")
	case c.NumThreads*c.DescsPerThread > 1<<16:
		return errors.New("core: huge descriptor count exceeds 16-bit recovery-state field")
	case c.UnsizedThreshold <= 0:
		return errors.New("core: UnsizedThreshold must be positive")
	}
	return nil
}
