package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"cxlalloc/internal/atomicx"
	"cxlalloc/internal/interval"
	"cxlalloc/internal/memsim"
	"cxlalloc/internal/nmp"
	"cxlalloc/internal/telemetry"
	"cxlalloc/internal/vas"
)

// Heap is one cxlalloc heap living in a shared device. Every simulated
// process and thread in the pod operates on the same Heap value (it is
// the in-memory twin of the on-device metadata; all shared state lives
// in the device, so the Heap itself carries only configuration and
// volatile per-thread state).
type Heap struct {
	cfg  Config
	lay  Layout
	dev  *memsim.Device
	hw   *atomicx.HW
	dcas *atomicx.DCAS
	unit *nmp.Unit

	small *slabHeap
	large *slabHeap

	// coherent mirrors the device's Coherent flag: flush and fence are
	// semantic no-ops, so hot paths skip the calls entirely.
	coherent bool

	// magsOff is the runtime magazine toggle (SetMagazines), kept
	// inverted so the zero value means "on". See magazine.go.
	magsOff atomic.Bool

	threads []threadState

	// ops is the per-thread allocator op ledger (telemetry.AllocStats
	// source). It lives at heap level, not in threadState, because a
	// recovery replaces the threadState value and cumulative counters
	// must survive the incarnation change.
	ops []threadOps

	// Crash/recovery lifecycle counters for telemetry.Snapshot. These
	// transitions are rare, so contended atomic adds are fine.
	crashesMarked    atomic.Uint64
	recoveries       atomic.Uint64
	recoveriesFenced atomic.Uint64

	// Adversarial persistence (SetCrashPersistPolicy): when set,
	// MarkCrashed resolves the crashed cache via CrashDiscard under the
	// policy this callback returns, instead of the optimistic
	// WritebackAll. crashDiscards / linesDropped count the outcomes.
	persistPolicy func(tid int, inPlay []int32) memsim.CrashPolicy
	crashDiscards atomic.Uint64
	linesDropped  atomic.Uint64

	// Liveness-plane counters (lease renewals ride on every pod
	// Thread.Run; claims are rare).
	leaseRenews atomic.Uint64
	claimsWon   atomic.Uint64

	// recMu serializes slot-state transitions (attach, crash marking,
	// recovery, lease bookkeeping) per slot, so a fenced recovery loser
	// and the superseding winner never interleave, and watchdog
	// goroutines can race Recover/Restart safely under -race.
	recMu []sync.Mutex

	// testHookPreCommit, tests only: runs between recoverThread's rebuilds
	// and its commit fence check, so a supersede can be interposed
	// deterministically.
	testHookPreCommit func(tid int)
}

// Op-ledger indices (threadOps.counts / threadOps.pub).
const (
	ocSmallAlloc = iota
	ocSmallFree
	ocLargeAlloc
	ocLargeFree
	ocHugeAlloc
	ocHugeFree
	ocKinds
)

// opsPubEvery is how many ops a thread performs between refreshes of
// its published (atomic) counter mirror — the same staleness-for-speed
// trade the SWcc cache stats make (memsim.Cache.SharedStats).
const opsPubEvery = 64

// threadOps is one thread's allocator op ledger: plain counters written
// only by the owning thread on the hot path, and an atomically published
// mirror concurrent snapshot readers load. Padded so adjacent threads'
// mirrors never false-share.
type threadOps struct {
	counts [ocKinds]uint64
	since  uint32
	evTick uint32 // EvAlloc/EvFree trace-sampling tick (telemetry.SampleHot)
	pub    [ocKinds]atomic.Uint64
	_      [24]byte
}

// bump counts one op and refreshes the mirror on cadence. Owner only.
func (to *threadOps) bump(op int) {
	to.counts[op]++
	if to.since++; to.since >= opsPubEvery {
		to.publish()
	}
}

// publish refreshes the shared mirror. Owner only (or quiesced owner).
// The stores go in index order, each class's allocs before its frees;
// Heap.Snapshot loads frees before allocs, and the pairing is what
// keeps a concurrent snapshot from showing a thread's new frees against
// its old allocs.
func (to *threadOps) publish() {
	to.since = 0
	for i := range to.counts {
		to.pub[i].Store(to.counts[i])
	}
}

// threadState is the volatile (non-device) state of one thread slot.
// Everything here is either reconstructible on recovery (hugeFree,
// descFree are rebuilt by scanning device metadata, §3.4.2) or owned
// exclusively by the thread (cache, version counter).
type threadState struct {
	attached bool
	alive    bool
	cache    *memsim.Cache
	space    *vas.Space
	ver      uint16

	// leaseEpoch is the heartbeat-lease epoch this incarnation acquired
	// (0 = unleased). Renewals compare against it, so a handle from a
	// superseded incarnation self-fences instead of renewing the new
	// incarnation's lease. Guarded by recMu.
	leaseEpoch uint16

	hugeFree interval.Set // free virtual address ranges owned by this thread
	descFree []int        // free huge-descriptor slots

	// mags are the volatile magazine mirrors, one slice per slab heap
	// (indexed by slabHeap.magIdx), allocated lazily on first refill.
	// Deliberately NOT rebuilt by recovery: reclamation returns a dead
	// thread's magazines to their slabs instead (magazine.go).
	mags [2][]magSlot
}

// NewHeap creates (or attaches to) a heap on dev. Because zeroed memory
// is a valid heap, creating a Heap performs no device writes: any number
// of processes may construct Heaps over the same device concurrently
// with no coordination (paper §4, "Heap initialization").
func NewHeap(cfg Config, dev *memsim.Device) (*Heap, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	lay := computeLayout(&cfg)
	dc := dev.Config()
	if dc.HWccWords < lay.HWccWords || dc.SWccWords < lay.SWccWords ||
		uint64(dc.DataBytes) < lay.DataBytes {
		return nil, fmt.Errorf("core: device too small for layout (need hwcc=%d swcc=%d data=%d)",
			lay.HWccWords, lay.SWccWords, lay.DataBytes)
	}
	h := &Heap{
		cfg:      cfg,
		lay:      lay,
		dev:      dev,
		coherent: dc.Coherent,
		threads:  make([]threadState, cfg.NumThreads),
		ops:      make([]threadOps, cfg.NumThreads),
		recMu:    make([]sync.Mutex, cfg.NumThreads),
	}
	if cfg.Mode == atomicx.ModeMCAS {
		h.unit = nmp.New(dev, cfg.Latency)
	}
	h.hw = atomicx.New(dev, cfg.Mode, h.unit, cfg.Latency)
	h.dcas = atomicx.NewDCAS(h.hw, lay.HelpBase, cfg.NonRecoverable)

	h.small = &slabHeap{
		h:           h,
		name:        "small",
		slabSize:    SmallSlabSize,
		classes:     smallClassSizes,
		maxSlabs:    cfg.MaxSmallSlabs,
		lenW:        lay.SmallLenW,
		freeW:       lay.SmallFreeW,
		hwBase:      lay.SmallHWBase,
		localBase:   lay.SmallLocalBase,
		localStride: lay.SmallLocalStride,
		descBase:    lay.SmallDescBase,
		descStride:  lay.SmallDescStride,
		bitsetWords: lay.SmallBitsetWords,
		dataOff:     lay.SmallDataOff,
		opBit:       0,
		magBase:     lay.SmallMagBase,
		magIdx:      0,
	}
	h.large = &slabHeap{
		h:           h,
		name:        "large",
		slabSize:    LargeSlabSize,
		classes:     largeClassSizes,
		maxSlabs:    cfg.MaxLargeSlabs,
		lenW:        lay.LargeLenW,
		freeW:       lay.LargeFreeW,
		hwBase:      lay.LargeHWBase,
		localBase:   lay.LargeLocalBase,
		localStride: lay.LargeLocalStride,
		descBase:    lay.LargeDescBase,
		descStride:  lay.LargeDescStride,
		bitsetWords: lay.LargeBitsetWords,
		dataOff:     lay.LargeDataOff,
		opBit:       opLargeBit,
		magBase:     lay.LargeMagBase,
		magIdx:      1,
	}
	return h, nil
}

// DeviceFor returns a device config sized exactly for cfg. The caller
// creates the device once per pod and shares it among all processes.
func DeviceFor(cfg Config) (memsim.Config, error) {
	if err := cfg.validate(); err != nil {
		return memsim.Config{}, err
	}
	lay := computeLayout(&cfg)
	return memsim.Config{
		HWccWords:    lay.HWccWords,
		SWccWords:    lay.SWccWords,
		DataBytes:    int(lay.DataBytes),
		Coherent:     cfg.Mode == atomicx.ModeDRAM,
		TrackPersist: cfg.TrackPersist,
	}, nil
}

// Config returns the heap's configuration.
func (h *Heap) Config() Config { return h.cfg }

// Layout returns the heap's computed address map.
func (h *Heap) Layout() Layout { return h.lay }

// Device returns the underlying device.
func (h *Heap) Device() *memsim.Device { return h.dev }

// NMPStats returns the NMP unit's counters (zero when not in mCAS mode).
func (h *Heap) NMPStats() nmp.Stats {
	if h.unit == nil {
		return nmp.Stats{}
	}
	return h.unit.Stats()
}

// NMP returns the heap's NMP unit, or nil unless the heap runs in mCAS
// mode. Chaos harnesses use it to inject device faults.
func (h *Heap) NMP() *nmp.Unit { return h.unit }

// HWStats returns the atomic-operation layer's degraded-mode counters.
func (h *Heap) HWStats() atomicx.HWStats { return h.hw.Stats() }

// AttachThread binds thread slot tid to a process address space. The
// thread starts with a cold cache. It is the caller's responsibility
// that each live thread slot has exactly one user (the paper pins
// threads to cores).
func (h *Heap) AttachThread(tid int, space *vas.Space) error {
	if tid < 0 || tid >= h.cfg.NumThreads {
		return fmt.Errorf("core: thread ID %d out of range", tid)
	}
	h.recMu[tid].Lock()
	defer h.recMu[tid].Unlock()
	ts := &h.threads[tid]
	if ts.attached && ts.alive {
		return fmt.Errorf("core: thread slot %d already attached", tid)
	}
	*ts = threadState{
		attached: true,
		alive:    true,
		cache:    h.dev.NewCache(),
		space:    space,
	}
	ts.cache.SetOwner(tid)
	return nil
}

// ThreadSpace returns the address space thread tid is bound to.
func (h *Heap) ThreadSpace(tid int) *vas.Space { return h.threads[tid].space }

// Alive reports whether thread slot tid is attached and not crashed.
func (h *Heap) Alive(tid int) bool {
	h.recMu[tid].Lock()
	defer h.recMu[tid].Unlock()
	return h.threads[tid].attached && h.threads[tid].alive
}

// MarkCrashed records that thread tid crashed. Its CPU core survives, so
// dirty cache lines eventually drain to memory (the paper's partial
// failure model: a thread or process dies, the host and device do not).
// Shared state is left exactly as the crash left it.
//
// MarkCrashed is idempotent: marking a never-attached slot is a no-op,
// and re-marking an already-dead slot just drains whatever its current
// cache incarnation holds (which matters when a crash fires inside
// RecoverThread itself — the aborted recovery's cache must drain too).
func (h *Heap) MarkCrashed(tid int) {
	if tid < 0 || tid >= len(h.threads) {
		return
	}
	h.recMu[tid].Lock()
	defer h.recMu[tid].Unlock()
	ts := &h.threads[tid]
	if !ts.attached || ts.cache == nil {
		return
	}
	wasAlive := ts.alive
	ts.alive = false
	if h.persistPolicy != nil {
		out := ts.cache.CrashDiscard(h.persistPolicy(tid, ts.cache.InPlay()))
		h.crashDiscards.Add(1)
		h.linesDropped.Add(uint64(out.Dropped))
		if telemetry.Enabled() {
			telemetry.Emit(tid, telemetry.EvCrashDiscard,
				uint64(out.Dropped), uint32(len(out.InPlay)))
		}
	} else {
		ts.cache.WritebackAll()
	}
	if wasAlive {
		h.crashesMarked.Add(1)
		if telemetry.Enabled() {
			telemetry.Emit(tid, telemetry.EvCrash, uint64(tid), 0)
		}
	}
}

// DrainCaches writes back every attached thread's cache, modeling the
// cache drain of a fully quiesced pod (the paper's host-survives model:
// all dirt reaches the device eventually). Audits that read shared SWcc
// state through the device image — AuditEmpty — need this first, because
// the hot path deliberately leaves local-op effects unflushed. Requires
// quiescence (it touches owner-private caches).
func (h *Heap) DrainCaches() {
	for tid := range h.threads {
		h.recMu[tid].Lock()
		ts := &h.threads[tid]
		if ts.attached && ts.cache != nil {
			ts.cache.WritebackAll()
		}
		h.recMu[tid].Unlock()
	}
}

// SetCrashPersistPolicy installs (or, with nil, removes) the adversarial
// persistence decider: on every MarkCrashed, the crashed thread's cache
// is resolved by CrashDiscard under the policy fn returns for that
// thread's in-play line set, instead of the optimistic WritebackAll.
// The heap must be quiesced (no concurrent crashes) when switching.
func (h *Heap) SetCrashPersistPolicy(fn func(tid int, inPlay []int32) memsim.CrashPolicy) {
	h.persistPolicy = fn
}

// ts returns the thread state, panicking on misuse (a dead or detached
// thread calling into the allocator is a harness bug, not a runtime
// condition to tolerate).
func (h *Heap) ts(tid int) *threadState {
	ts := &h.threads[tid]
	if !ts.attached || !ts.alive {
		panic(fmt.Sprintf("core: thread %d is not attached and alive", tid))
	}
	return ts
}

func (ts *threadState) nextVer() uint16 {
	ts.ver++
	return ts.ver
}

// Alloc allocates size bytes for thread tid and returns its offset
// pointer. Allocation is lock-free: a crashed thread never blocks a live
// one (§3.4.1).
func (h *Heap) Alloc(tid int, size int) (Ptr, error) {
	if size <= 0 {
		return 0, fmt.Errorf("core: Alloc size %d must be positive", size)
	}
	ts := h.ts(tid)
	var p Ptr
	var err error
	var oc int
	var class uint32
	switch {
	case size <= smallMax:
		c := smallClassOf(size)
		p, err = h.small.alloc(ts, tid, c)
		oc, class = ocSmallAlloc, uint32(c)
	case size <= largeMax:
		c := largeClassOf(size)
		p, err = h.large.alloc(ts, tid, c)
		oc, class = ocLargeAlloc, uint32(c)|evClassLarge
	default:
		p, err = h.hugeAlloc(ts, tid, uint64(size))
		oc, class = ocHugeAlloc, evClassHuge
	}
	if err == nil {
		h.ops[tid].bump(oc)
		if telemetry.Enabled() && telemetry.SampleHot(&h.ops[tid].evTick) {
			telemetry.Emit(tid, telemetry.EvAlloc, uint64(p), class)
		}
	}
	h.maybeCheck(tid)
	return p, err
}

// Trace encoding of EvAlloc/EvFree's Arg: the size class, with a flag
// bit distinguishing the large heap's class space from the small one,
// and a huge sentinel (huge allocations have byte sizes, not classes).
const (
	evClassLarge = 1 << 8
	evClassHuge  = 1<<9 - 1
)

// Free releases the allocation at p. Any attached thread in any process
// may free any pointer (remote frees, §3.2.1).
func (h *Heap) Free(tid int, p Ptr) {
	ts := h.ts(tid)
	var oc int
	var class uint32
	switch {
	case p >= h.lay.SmallDataOff && p < h.lay.LargeDataOff:
		oc, class = ocSmallFree, uint32(h.small.free(ts, tid, p))
	case p >= h.lay.LargeDataOff && p < h.lay.HugeDataOff:
		oc, class = ocLargeFree, uint32(h.large.free(ts, tid, p))|evClassLarge
	case p >= h.lay.HugeDataOff && p < h.lay.DataBytes:
		h.hugeFreePtr(ts, tid, p)
		oc, class = ocHugeFree, evClassHuge
	default:
		panic(fmt.Sprintf("core: Free(%#x): pointer outside heap", p))
	}
	h.countFree(tid, oc, p, class)
	h.maybeCheck(tid)
}

// maxRemoteGroup caps how many blocks one remote-free record covers: the
// count rides in the record's 16-bit b field.
const maxRemoteGroup = 1<<16 - 1

// FreeBatch frees every pointer in *ps, exactly as calling Free on each
// would, except that remote frees landing in one slab share one
// countdown decrement: N blocks of a slab tid does not own cost one
// detectable CAS and one redo record, not N (slabHeap.remoteFree). Local,
// magazine and huge pointers take Free's paths one at a time.
//
// *ps is sorted, which groups blocks by slab, and then consumed from its
// tail: each pointer, or each whole remote group, is truncated out of *ps
// before its redo record is written, with no crash point in between. So
// a crash leaves in *ps exactly the pointers whose free has not begun,
// and the redo protocol completes the one that had. Nothing outlives the
// call.
func (h *Heap) FreeBatch(tid int, ps *[]Ptr) {
	ts := h.ts(tid)
	slices.Sort(*ps)
	for len(*ps) > 0 {
		v := *ps
		p := v[len(v)-1]
		var s *slabHeap
		var oc int
		var class uint32
		switch {
		case p >= h.lay.SmallDataOff && p < h.lay.LargeDataOff:
			s, oc = h.small, ocSmallFree
		case p >= h.lay.LargeDataOff && p < h.lay.HugeDataOff:
			s, oc, class = h.large, ocLargeFree, evClassLarge
		case p >= h.lay.HugeDataOff && p < h.lay.DataBytes:
			*ps = v[:len(v)-1]
			h.hugeFreePtr(ts, tid, p)
			h.countFree(tid, ocHugeFree, p, evClassHuge)
			h.maybeCheck(tid)
			continue
		default:
			panic(fmt.Sprintf("core: FreeBatch(%#x): pointer outside heap", p))
		}
		idx := s.slabOf(p)
		w0 := s.routeW0(ts, idx)
		class |= uint32(w0Class(w0))
		if w0Owner(w0) == uint16(tid+1) {
			*ps = v[:len(v)-1]
			s.freeOwned(ts, tid, idx, p, w0)
			h.countFree(tid, oc, p, class)
			h.maybeCheck(tid)
			continue
		}
		// v is sorted and p is its largest pointer, so every pointer at or
		// above the slab's base shares p's slab. The slab's countdown is at
		// least n > 0 until this group lands, so nobody can steal or
		// reinitialise it, and tid's routing cannot flip meanwhile.
		n := 1
		for n < len(v) && n < maxRemoteGroup && v[len(v)-1-n] >= s.slabData(idx) {
			n++
		}
		*ps = v[:len(v)-n]
		s.remoteFree(ts, tid, idx, n)
		for _, q := range v[len(v)-n:] {
			h.countFree(tid, oc, q, class)
		}
		h.maybeCheck(tid)
	}
}

// countFree ticks one free in tid's op ledger and, sampled, the trace.
func (h *Heap) countFree(tid, oc int, p Ptr, class uint32) {
	h.ops[tid].bump(oc)
	if telemetry.Enabled() && telemetry.SampleHot(&h.ops[tid].evTick) {
		telemetry.Emit(tid, telemetry.EvFree, uint64(p), class)
	}
}

// UsableSize returns the number of bytes usable at allocation p (the
// block size of its class, or the page-rounded huge size).
func (h *Heap) UsableSize(tid int, p Ptr) int {
	ts := h.ts(tid)
	switch {
	case p >= h.lay.SmallDataOff && p < h.lay.LargeDataOff:
		return h.small.usableSize(ts, p)
	case p >= h.lay.LargeDataOff && p < h.lay.HugeDataOff:
		return h.large.usableSize(ts, p)
	case p >= h.lay.HugeDataOff && p < h.lay.DataBytes:
		return h.hugeUsableSize(ts, tid, p)
	default:
		panic(fmt.Sprintf("core: UsableSize(%#x): pointer outside heap", p))
	}
}

// Bytes resolves p's allocation bytes in tid's process, installing
// mappings on demand via the fault handler (PC-T). n must not exceed the
// allocation size.
func (h *Heap) Bytes(tid int, p Ptr, n int) []byte {
	ts := h.ts(tid)
	return ts.space.Resolve(tid, p, uint64(n))
}

// crashPoint fires tid's injected crash, if armed. Call sites pass
// constant strings; dynamic names go through slabHeap.cp.
func (h *Heap) crashPoint(tid int, name string) {
	if h.cfg.Crash == nil {
		return
	}
	h.cfg.Crash.Point(tid, name)
}
