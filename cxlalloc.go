// Package cxlalloc is a Go reproduction of "Cxlalloc: Safe and Efficient
// Memory Allocation for a CXL Pod" (Ni, Sun, Zhu, Witchel — ASPLOS 2026):
// a user-space memory allocator for a group of hosts sharing
// CXL-attached memory at cacheline granularity.
//
// The allocator addresses the three challenges the paper identifies:
//
//   - Limited inter-host hardware cache coherence (HWcc): metadata is
//     partitioned into a minimal HWcc region (one 8-byte word per slab
//     plus constants) synchronized with CAS — or with a memory-based
//     CAS (mCAS) served by simulated near-memory-processing logic when
//     the pod has no HWcc at all — and a larger SWcc region kept
//     coherent in software with an explicit flush/fence protocol.
//
//   - Cross-process sharing: allocations are addressed by offset
//     pointers that name the same memory in every process (spatial
//     pointer consistency), and a simulated SIGSEGV handler installs
//     missing memory mappings on demand so a pointer minted in one
//     process can immediately be dereferenced in any other (temporal
//     pointer consistency). Huge allocations are reclaimed safely across
//     processes with a hazard-offset protocol.
//
//   - Partial failure: all multi-writer metadata is lock-free, every
//     operation records an 8-byte redo entry before its first effect,
//     and detectable CAS makes in-flight updates recoverable, so a
//     thread crash never blocks live threads and recovery is
//     non-blocking and leak-free.
//
// Because this is a simulation-backed reproduction, the "CXL device" is
// an in-process arena (internal/memsim) with per-thread write-back
// caches over the SWcc region, simulated per-process page tables
// (internal/vas), and an NMP mCAS unit (internal/nmp). The allocator
// code is identical across coherence models; select one with
// Config.Mode.
//
// # Quick start
//
//	pod, _ := cxlalloc.NewPod(cxlalloc.DefaultConfig())
//	proc := pod.NewProcess()
//	th, _ := proc.AttachThread()
//	p, _ := th.Alloc(128)
//	copy(th.Bytes(p, 5), "hello")
//	th.Free(p)
//
// Multiple Processes share the pod's memory: a Ptr from one process's
// thread is valid in every other.
package cxlalloc

import (
	"fmt"
	"sync"

	"cxlalloc/internal/core"
	"cxlalloc/internal/crash"
	"cxlalloc/internal/liveness"
	"cxlalloc/internal/memsim"
	"cxlalloc/internal/telemetry"
	"cxlalloc/internal/vas"
)

// Ptr is an offset pointer into the pod's shared data region. Ptr 0 is
// nil. Ptrs are valid in every process of the pod (PC-S).
type Ptr = core.Ptr

// Config parameterizes a pod; see core.Config for every knob.
type Config = core.Config

// Footprint is the pod's memory accounting (HWcc/metadata/data bytes).
type Footprint = core.Footprint

// RecoveryReport describes what thread recovery found and redid.
type RecoveryReport = core.RecoveryReport

// Crashed is returned by Thread.Run when an injected crash fired.
type Crashed = crash.Crashed

// LivenessConfig tunes the self-healing pod's heartbeat protocol.
type LivenessConfig = liveness.Config

// NoExpiryLiveness is the heartbeat configuration of a pod whose leases
// never run out: the first renewal of a slot sets a deadline 2^40 ticks
// away, the next is due 2^38 ticks later, so nothing is ever taken over
// and no renewal is ever paid for. It is what a pod runs under when
// intra-pod repair is not its subject (a fabric pod: the unit of failure
// is the pod), and what a calibrating harness starts under before it
// retunes to a measured lease (RetuneLiveness). The deadline must stay
// inside the lease word's 48 timestamp bits.
var NoExpiryLiveness = LivenessConfig{RenewInterval: 1 << 38, GraceMult: 4, PollInterval: 4}

// LivenessEvent is one observable watchdog action (claim, repair, ...).
type LivenessEvent = liveness.Event

// LivenessKind classifies a LivenessEvent.
type LivenessKind = liveness.Kind

// Re-exported watchdog event kinds.
const (
	LivenessClaim       = liveness.KindClaim
	LivenessRepair      = liveness.KindRepair
	LivenessRepairCrash = liveness.KindRepairCrash
	LivenessFenced      = liveness.KindFenced
	LivenessFalseAlarm  = liveness.KindFalseAlarm
	LivenessRescue      = liveness.KindRescue
	LivenessSelfFence   = liveness.KindSelfFence
)

// SelfFencePoint is the synthetic crash point Thread.Run reports when
// the thread's lease renewal discovered the pod declared it dead and
// recovered its slot elsewhere.
const SelfFencePoint = liveness.SelfFencePoint

// Re-exported sentinel errors.
var (
	ErrOutOfMemory = core.ErrOutOfMemory
	ErrTooLarge    = core.ErrTooLarge
	// ErrNotCrashed is returned by Process.Recover and Process.Restart
	// when the target is alive (never crashed, or already recovered).
	ErrNotCrashed = core.ErrNotCrashed
	// ErrFenced is returned by fenced recovery when the caller's claim
	// was superseded mid-repair.
	ErrFenced = core.ErrFenced
)

// ErrRestartClaimed is returned by Process.Restart when another Restart
// call holds the restart claim for the same dead process. Exactly one
// concurrent caller wins; the losers must not retry blindly — the winner
// either completes (later calls see ErrNotCrashed) or crashes (the claim
// is released and a retry can win).
var ErrRestartClaimed = fmt.Errorf("cxlalloc: restart already claimed")

// DefaultConfig returns a moderate configuration suitable for examples
// and tests.
func DefaultConfig() Config { return core.DefaultConfig() }

// PodConfig extends Config with the self-healing options of NewPodWith.
type PodConfig struct {
	Config
	// AutoRecover turns on the liveness plane: every Thread.Run ticks
	// the pod clock, renews the thread's heartbeat lease, and runs the
	// per-process watchdog, which detects expired leases and repairs
	// crashed slots automatically — no Recover/Restart calls needed.
	AutoRecover bool
	// Liveness tunes lease and poll cadence; zero fields take defaults.
	Liveness LivenessConfig
	// OnEvent, if set, receives every watchdog event synchronously (from
	// the thread whose Run triggered it).
	OnEvent func(LivenessEvent)
}

// Pod is one simulated CXL pod: a shared memory device plus the heap
// metadata living in it. All processes and threads of the pod share one
// Pod value.
type Pod struct {
	dev  *memsim.Device
	heap *core.Heap

	// Self-healing configuration (NewPodWith). auto and onEvent are
	// immutable after creation; lcfg may be swapped at a quiesce point
	// via RetuneLiveness (guarded by mu).
	auto    bool
	lcfg    liveness.Config
	onEvent func(LivenessEvent)

	mu       sync.Mutex
	nextProc int
	tidOwner []*Process // per thread slot: owning process, nil = free
	procs    []*Process // every process ever created, in creation order

	evMu   sync.Mutex
	events []LivenessEvent
}

// NewPod creates a pod with a zeroed device. Zeroed memory is a valid
// heap, so the pod is immediately usable by any number of processes.
func NewPod(cfg Config) (*Pod, error) {
	return NewPodWith(PodConfig{Config: cfg})
}

// NewPodWith creates a pod with the extended (self-healing) options.
func NewPodWith(pc PodConfig) (*Pod, error) {
	dc, err := core.DeviceFor(pc.Config)
	if err != nil {
		return nil, err
	}
	dev := memsim.NewDevice(dc)
	heap, err := core.NewHeap(pc.Config, dev)
	if err != nil {
		return nil, err
	}
	return &Pod{
		dev:      dev,
		heap:     heap,
		auto:     pc.AutoRecover,
		lcfg:     pc.Liveness.WithDefaults(),
		onEvent:  pc.OnEvent,
		tidOwner: make([]*Process, pc.NumThreads),
	}, nil
}

// AutoRecover reports whether the pod runs the liveness plane.
func (pod *Pod) AutoRecover() bool { return pod.auto }

// LivenessEvents returns a copy of every watchdog event emitted so far.
func (pod *Pod) LivenessEvents() []LivenessEvent {
	pod.evMu.Lock()
	defer pod.evMu.Unlock()
	return append([]LivenessEvent(nil), pod.events...)
}

// FalseTakeovers returns how many watchdog claims across all processes
// landed on slots that were actually alive. A correctly tuned grace
// multiple keeps this 0.
func (pod *Pod) FalseTakeovers() uint64 {
	pod.mu.Lock()
	procs := append([]*Process(nil), pod.procs...)
	pod.mu.Unlock()
	var n uint64
	for _, p := range procs {
		if p.mgr != nil {
			n += p.mgr.FalseTakeovers()
		}
	}
	return n
}

// Snapshot assembles the unified telemetry snapshot for the whole pod:
// the heap's allocator/cache/NMP/chaos counters plus the liveness
// watchdog tallies aggregated across every process's manager. It is safe
// to call concurrently with running mutators — every source is an atomic
// counter, a mutex-guarded structure, or a bounded-lag published mirror
// (call Heap().PublishStats() after quiescing for exact values).
func (pod *Pod) Snapshot() telemetry.Snapshot {
	s := pod.heap.Snapshot()
	pod.mu.Lock()
	procs := append([]*Process(nil), pod.procs...)
	pod.mu.Unlock()
	for _, p := range procs {
		if p.mgr == nil {
			continue
		}
		s.Liveness.Repairs += p.mgr.Count(liveness.KindRepair)
		s.Liveness.Fenced += p.mgr.Count(liveness.KindFenced)
		s.Liveness.FalseAlarms += p.mgr.Count(liveness.KindFalseAlarm)
		s.Liveness.Rescues += p.mgr.Count(liveness.KindRescue)
		s.Liveness.SelfFences += p.mgr.Count(liveness.KindSelfFence)
		s.Liveness.FalseTakeovers += p.mgr.FalseTakeovers()
	}
	return s
}

func (pod *Pod) emitEvent(e LivenessEvent) {
	pod.evMu.Lock()
	pod.events = append(pod.events, e)
	cb := pod.onEvent
	pod.evMu.Unlock()
	if cb != nil {
		cb(e)
	}
}

// adoptSlot rebinds slot ownership after a watchdog repair.
func (pod *Pod) adoptSlot(tid int, p *Process) {
	pod.mu.Lock()
	pod.tidOwner[tid] = p
	pod.mu.Unlock()
}

// rescueSlot re-adopts an alive-but-unleased slot to the live process
// owning the space it is bound to, reporting whether one exists.
func (pod *Pod) rescueSlot(tid int) bool {
	sp := pod.heap.ThreadSpace(tid)
	pod.mu.Lock()
	defer pod.mu.Unlock()
	for _, p := range pod.procs {
		if p.space == sp && !p.dead {
			pod.tidOwner[tid] = p
			return true
		}
	}
	return false
}

// leaseTicks is the pod's configured lease duration.
func (pod *Pod) leaseTicks() uint64 { return pod.lcfg.LeaseTicks() }

// RetuneLiveness replaces the heartbeat cadence on an AutoRecover pod
// (zero fields take defaults). Lease durations are denominated in pod
// logical-clock ticks, whose wall rate depends on load, so a harness
// that needs a wall-clock lease target must first measure the pod's
// real tick rate and then retune. Only safe at a quiesce point: no
// thread may be inside Run while the managers' configs are swapped.
// Already-granted leases keep their old deadlines until each thread's
// next Run, which renews under the new configuration.
func (pod *Pod) RetuneLiveness(cfg LivenessConfig) {
	pod.mu.Lock()
	defer pod.mu.Unlock()
	pod.lcfg = cfg.WithDefaults()
	for _, p := range pod.procs {
		if p.mgr != nil {
			p.mgr.Retune(cfg)
		}
	}
}

// Heap exposes the underlying allocator for benchmarks and tests.
func (pod *Pod) Heap() *core.Heap { return pod.heap }

// Device exposes the underlying simulated device.
func (pod *Pod) Device() *memsim.Device { return pod.dev }

// Process is one simulated OS process: its own virtual address space
// over the pod's shared memory, with the cxlalloc SIGSEGV handler
// installed (§3.3).
type Process struct {
	pod   *Pod
	space *vas.Space
	mgr   *liveness.Manager // non-nil on AutoRecover pods
	dead  bool              // guarded by pod.mu; set by Pod.KillProcess

	// Restart arbitration (guarded by pod.mu): restarting is the claim a
	// Restart call holds while it recovers slots; restarted marks a
	// completed Restart, so later calls fail with ErrNotCrashed instead
	// of "succeeding" with an empty process.
	restarting bool
	restarted  bool
}

// NewProcess attaches a new process to the pod.
func (pod *Pod) NewProcess() *Process {
	pod.mu.Lock()
	defer pod.mu.Unlock()
	return pod.newProcessLocked()
}

func (pod *Pod) newProcessLocked() *Process {
	id := pod.nextProc
	pod.nextProc++
	sp := vas.NewSpace(id, pod.dev, core.PageSize)
	sp.SetHandler(func(tid int, s *vas.Space, page uint64) bool {
		return pod.heap.HandleFault(tid, s.Install, page)
	})
	p := &Process{pod: pod, space: sp}
	if pod.auto {
		p.mgr = liveness.NewManager(pod.heap, sp, pod.lcfg, liveness.Hooks{
			Adopt:  func(victim int) { pod.adoptSlot(victim, p) },
			Rescue: pod.rescueSlot,
			Emit:   pod.emitEvent,
		})
	}
	pod.procs = append(pod.procs, p)
	return p
}

// ID returns the process identifier.
func (p *Process) ID() int { return p.space.ID() }

// Space exposes the process's address space (tests, examples).
func (p *Process) Space() *vas.Space { return p.space }

// FaultStats returns how many on-demand mapping installs this process's
// signal handler performed.
func (p *Process) FaultStats() vas.Stats { return p.space.Stats() }

// Thread is one simulated thread, pinned to a thread slot (the paper
// pins threads to cores). A Thread is NOT safe for concurrent use; give
// each goroutine its own Thread.
type Thread struct {
	proc *Process
	tid  int
	// epoch is the heartbeat-lease epoch this handle was minted under
	// (0 on non-AutoRecover pods). Renewals are scoped to it, so a
	// handle outlived by a watchdog takeover self-fences instead of
	// renewing the new incarnation's lease.
	epoch uint16
}

// AttachThread claims the lowest free thread slot in the pod for this
// process.
func (p *Process) AttachThread() (*Thread, error) {
	p.pod.mu.Lock()
	defer p.pod.mu.Unlock()
	if p.dead {
		return nil, fmt.Errorf("cxlalloc: process %d is dead", p.space.ID())
	}
	for tid, owner := range p.pod.tidOwner {
		if owner == nil {
			if err := p.pod.heap.AttachThread(tid, p.space); err != nil {
				return nil, err
			}
			p.pod.tidOwner[tid] = p
			return &Thread{proc: p, tid: tid, epoch: p.pod.leaseNew(tid)}, nil
		}
	}
	return nil, fmt.Errorf("cxlalloc: all %d thread slots in use", len(p.pod.tidOwner))
}

// AttachThreadID claims a specific thread slot.
func (p *Process) AttachThreadID(tid int) (*Thread, error) {
	p.pod.mu.Lock()
	defer p.pod.mu.Unlock()
	if p.dead {
		return nil, fmt.Errorf("cxlalloc: process %d is dead", p.space.ID())
	}
	if tid < 0 || tid >= len(p.pod.tidOwner) {
		return nil, fmt.Errorf("cxlalloc: thread ID %d out of range", tid)
	}
	if p.pod.tidOwner[tid] != nil {
		return nil, fmt.Errorf("cxlalloc: thread slot %d already in use", tid)
	}
	if err := p.pod.heap.AttachThread(tid, p.space); err != nil {
		return nil, err
	}
	p.pod.tidOwner[tid] = p
	return &Thread{proc: p, tid: tid, epoch: p.pod.leaseNew(tid)}, nil
}

// leaseNew grants a freshly attached (or manually recovered) slot its
// first lease on AutoRecover pods; inert otherwise.
func (pod *Pod) leaseNew(tid int) uint16 {
	if !pod.auto {
		return 0
	}
	return pod.heap.LeaseAcquire(tid, pod.heap.ClockNow(tid)+pod.leaseTicks())
}

// ID returns the thread slot index.
func (t *Thread) ID() int { return t.tid }

// Process returns the owning process.
func (t *Thread) Process() *Process { return t.proc }

// Alloc allocates size bytes of shared memory.
func (t *Thread) Alloc(size int) (Ptr, error) {
	return t.proc.pod.heap.Alloc(t.tid, size)
}

// Free releases an allocation made by any thread in any process.
func (t *Thread) Free(p Ptr) {
	t.proc.pod.heap.Free(t.tid, p)
}

// Bytes returns the allocation's bytes as seen by this thread's process,
// installing mappings on demand (PC-T). n must not exceed the usable
// size.
func (t *Thread) Bytes(p Ptr, n int) []byte {
	return t.proc.pod.heap.Bytes(t.tid, p, n)
}

// UsableSize reports the usable byte count of the allocation at p.
func (t *Thread) UsableSize(p Ptr) int {
	return t.proc.pod.heap.UsableSize(t.tid, p)
}

// Maintain runs the asynchronous huge-heap cleanup for this thread
// (hazard sweep + descriptor reclamation, §3.3.2). Long-running threads
// should call it occasionally.
func (t *Thread) Maintain() {
	t.proc.pod.heap.Maintain(t.tid)
}

// Footprint returns the pod's memory accounting as seen by this thread.
func (t *Thread) Footprint() Footprint {
	return t.proc.pod.heap.Footprint(t.tid)
}

// DrainMagazines returns every block this thread privatized into its
// allocation magazines (DESIGN.md §7.2) back to the shared slabs. The
// hot path never needs this — crash reclamation and the drain-time
// ledger audit account for live magazines — but harnesses and graceful
// shutdown paths use it to minimize the thread's shared-state footprint.
func (t *Thread) DrainMagazines() {
	t.proc.pod.heap.DrainMagazines(t.tid)
}

// Run executes f; if an injected crash point fires (Config.Crash), the
// panic is caught, the thread slot is marked crashed exactly as the
// crash left it, and the Crashed value is returned. The Thread must not
// be used again; recover the slot with Process.Recover.
//
// On AutoRecover pods, Run first performs the thread's liveness duties:
// tick the pod clock, renew this thread's heartbeat lease, and run the
// process watchdog when its poll is due. Three extra outcomes follow:
//
//   - A watchdog repair may crash (injected points inside recovery or
//     the claim protocol); Run returns that Crashed, whose TID may be
//     the repair victim rather than this thread.
//   - A handle whose slot was taken over by another process's watchdog
//     returns a synthetic Crashed at SelfFencePoint without touching
//     shared state; the slot itself stays alive under its new owner.
//   - A handle whose slot is dead (killed while this handle was idle)
//     returns a synthetic Crashed at "liveness.dead-handle".
func (t *Thread) Run(f func()) *Crashed {
	if m := t.proc.mgr; m != nil {
		heap := t.proc.pod.heap
		if !heap.Alive(t.tid) {
			return &Crashed{TID: t.tid, Point: "liveness.dead-handle"}
		}
		if c := crash.Run(func() {
			if m.Heartbeat(t.tid, t.epoch) {
				panic(&crash.Crashed{TID: t.tid, Point: SelfFencePoint})
			}
		}); c != nil {
			if c.Point != SelfFencePoint {
				// A real crash: this thread mid-claim, or the repair
				// victim mid-recovery. Drain the right slot's cache.
				heap.MarkCrashed(c.TID)
			}
			return c
		}
	}
	c := crash.Run(f)
	if c != nil {
		t.proc.pod.heap.MarkCrashed(t.tid)
	}
	return c
}

// Kill marks the thread as crashed immediately (outside any operation).
func (t *Thread) Kill() {
	t.proc.pod.heap.MarkCrashed(t.tid)
}

// Recover runs the non-blocking recovery protocol (§3.4.2) on a crashed
// thread slot, rebinding it to this process, and returns a fresh Thread
// plus the recovery report. Recovering a slot that is alive — never
// crashed, or already recovered — fails with ErrNotCrashed.
func (p *Process) Recover(tid int) (*Thread, RecoveryReport, error) {
	p.pod.mu.Lock()
	if p.dead {
		p.pod.mu.Unlock()
		return nil, RecoveryReport{}, fmt.Errorf("cxlalloc: process %d is dead", p.space.ID())
	}
	p.pod.mu.Unlock()
	rep, err := p.pod.heap.RecoverThread(tid, p.space)
	if err != nil {
		return nil, rep, err
	}
	p.pod.mu.Lock()
	p.pod.tidOwner[tid] = p
	p.pod.mu.Unlock()
	return &Thread{proc: p, tid: tid, epoch: p.pod.leaseNew(tid)}, rep, nil
}

// Dead reports whether the process was killed by Pod.KillProcess.
func (p *Process) Dead() bool {
	p.pod.mu.Lock()
	defer p.pod.mu.Unlock()
	return p.dead
}

// TIDs returns the thread slots currently owned by this process, in
// ascending order.
func (p *Process) TIDs() []int {
	p.pod.mu.Lock()
	defer p.pod.mu.Unlock()
	return p.pod.tidsOfLocked(p)
}

func (pod *Pod) tidsOfLocked(p *Process) []int {
	var tids []int
	for tid, owner := range pod.tidOwner {
		if owner == p {
			tids = append(tids, tid)
		}
	}
	return tids
}

// Thread returns a handle for slot tid, which must be owned by this
// process and alive. A dead process hands out nothing: a slot of its
// that is alive again was repaired by a survivor that has not adopted it
// yet, and a handle minted now would heartbeat through the dead
// process's watchdog and repair later victims into its revoked space.
// For the same reason an AutoRecover pod hands out nothing for a slot
// that is alive but not yet leased: it is mid-repair, the watchdog
// adopts it before it leases it, and a handle minted in between would
// belong to the old owner (which may die later) and carry epoch 0,
// which never renews and never self-fences.
func (p *Process) Thread(tid int) (*Thread, error) {
	p.pod.mu.Lock()
	defer p.pod.mu.Unlock()
	if tid < 0 || tid >= len(p.pod.tidOwner) || p.pod.tidOwner[tid] != p {
		return nil, fmt.Errorf("cxlalloc: thread slot %d is not owned by process %d", tid, p.space.ID())
	}
	if p.dead {
		return nil, fmt.Errorf("cxlalloc: process %d is dead", p.space.ID())
	}
	if !p.pod.heap.Alive(tid) {
		return nil, fmt.Errorf("cxlalloc: thread slot %d is crashed", tid)
	}
	epoch := p.pod.heap.LeaseEpoch(tid)
	if p.pod.auto && epoch == 0 {
		return nil, fmt.Errorf("cxlalloc: thread slot %d is being repaired (alive, not yet leased)", tid)
	}
	return &Thread{proc: p, tid: tid, epoch: epoch}, nil
}

// OwnerOf returns the process currently owning thread slot tid (nil if
// the slot is free). On AutoRecover pods ownership moves when a watchdog
// repairs a slot, so harnesses use this to find the surviving owner.
func (pod *Pod) OwnerOf(tid int) *Process {
	pod.mu.Lock()
	defer pod.mu.Unlock()
	if tid < 0 || tid >= len(pod.tidOwner) {
		return nil
	}
	return pod.tidOwner[tid]
}

// ThreadOf returns a fresh handle for slot tid under its current owner
// and lease epoch, or an error if the slot is unowned or not alive.
func (pod *Pod) ThreadOf(tid int) (*Thread, error) {
	p := pod.OwnerOf(tid)
	if p == nil {
		return nil, fmt.Errorf("cxlalloc: thread slot %d is unowned", tid)
	}
	return p.Thread(tid)
}

// KillProcess simulates whole-process death (the paper's partial failure
// model, §3.4): every thread bound to the process's address space is
// marked crashed exactly as a kill -9 would leave it — mid-operation,
// with CPU caches draining to the device because the host survives — and
// the process's memory mappings are discarded (vas.Space.Revoke), so
// stale handles segfault instead of silently touching shared memory.
// It returns the killed thread slots and is idempotent.
func (pod *Pod) KillProcess(p *Process) []int {
	pod.mu.Lock()
	defer pod.mu.Unlock()
	if p.dead {
		return nil
	}
	p.dead = true
	tids := pod.tidsOfLocked(p)
	for _, tid := range tids {
		pod.heap.MarkCrashed(tid)
	}
	p.space.Revoke()
	return tids
}

// Restart recovers a killed process: a fresh Process (new ID, fresh
// address space with the SIGSEGV handler installed) re-runs the
// non-blocking recovery protocol for every thread slot the dead process
// owned, then adopts those slots. Restarting a live process fails with
// ErrNotCrashed; restarting a process someone already restarted also
// fails with ErrNotCrashed.
//
// Restart is claim-based: concurrent calls race for the restarting flag
// under pod.mu, exactly one proceeds, and the losers fail fast with
// ErrRestartClaimed instead of both recovering the same slots (the old
// code let two callers pass the dead check and double-recover). The
// claim is released on every exit — including an injected crash panic —
// so a crashed Restart can be retried: the remaining slots are still
// dead and still owned by the dead process; MarkCrashed the victim and
// call Restart again. Slots a previous aborted attempt already revived
// are adopted as-is (they stay bound to that attempt's space, which
// resolves the same shared bytes).
func (p *Process) Restart() (*Process, []RecoveryReport, error) {
	pod := p.pod
	pod.mu.Lock()
	switch {
	case !p.dead || p.restarted:
		pod.mu.Unlock()
		return nil, nil, fmt.Errorf("cxlalloc: process %d is alive: %w", p.space.ID(), ErrNotCrashed)
	case p.restarting:
		pod.mu.Unlock()
		return nil, nil, fmt.Errorf("cxlalloc: process %d: %w", p.space.ID(), ErrRestartClaimed)
	}
	p.restarting = true
	np := pod.newProcessLocked()
	tids := pod.tidsOfLocked(p)
	pod.mu.Unlock()

	done := false
	defer func() {
		// Release the claim even when a slot recovery panics (injected
		// crash); only a completed Restart latches restarted.
		pod.mu.Lock()
		p.restarting = false
		p.restarted = done
		pod.mu.Unlock()
	}()

	// Recover outside pod.mu: per-slot recMu inside RecoverThread is the
	// serialization that matters, and holding pod.mu across recovery
	// would deadlock against a watchdog's Adopt hook.
	var reports []RecoveryReport
	for _, tid := range tids {
		if pod.heap.Alive(tid) {
			continue // revived by an earlier, aborted Restart
		}
		rep, err := pod.heap.RecoverThread(tid, np.space)
		if err != nil {
			return nil, reports, fmt.Errorf("cxlalloc: restart of process %d: %w", p.space.ID(), err)
		}
		pod.leaseNew(tid)
		reports = append(reports, rep)
	}
	// All slots alive: transfer ownership to the new process.
	pod.mu.Lock()
	for _, tid := range tids {
		pod.tidOwner[tid] = np
	}
	pod.mu.Unlock()
	done = true
	return np, reports, nil
}
