package chaos

// The online-harness kernel: the one copy of everything livechaos,
// slo/slochaos and fabricchaos share. A harness supplies its target (a
// server over a pod, a fabric of pods), its fault planner
// (plan/apply), the logical clock its faults are stamped on, and any
// gate beyond the common three (violations, lost acks, false
// takeovers). The kernel owns the rest: the gate ledger, the seeded
// tick-paced injector in record and replay mode, the kill-in-op death
// loop, the convergence wait, the tick-rate calibration, and the
// end-of-run audit — the final oracle sweep (Oracle.FinalSweep) and the
// store teardown plus heap ledger audit (Gates.Teardown).

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"cxlalloc"
	"cxlalloc/internal/alloc"
	"cxlalloc/internal/atomicx"
	"cxlalloc/internal/core"
	"cxlalloc/internal/crash"
	"cxlalloc/internal/kvstore"
	"cxlalloc/internal/xrand"
)

const (
	ArmProb      = 0.02                   // per-crash-point firing probability for armed victims
	KillWait     = 15 * time.Second       // arming → death deadline before downgrading the fault
	ConvergeWait = 60 * time.Second       // crash → repaired-and-settled deadline (violation past this)
	TailGrace    = 2 * time.Second        // injection stops this early so repairs land in-window
	Calibrate    = 250 * time.Millisecond // fault-free warmup a harness measures its clock's tick rate over

	gateCap = 64 // entries kept per gate: enough to diagnose, bounded under a storm
)

// --- gates -------------------------------------------------------------

// Gates is a run's ledger of invariant violations and lost acknowledged
// writes, safe for every goroutine of the harness.
type Gates struct {
	mu         sync.Mutex
	violations []string
	lostAcks   []string
}

func (g *Gates) add(list *[]string, format string, args ...any) {
	g.mu.Lock()
	if len(*list) < gateCap {
		*list = append(*list, fmt.Sprintf(format, args...))
	}
	g.mu.Unlock()
}

// Violationf records a broken invariant: heap, codec, convergence, or
// the harness's own protocol.
func (g *Gates) Violationf(format string, args ...any) { g.add(&g.violations, format, args...) }

// LostAckf records an acknowledged write the store no longer reflects.
func (g *Gates) LostAckf(format string, args ...any) { g.add(&g.lostAcks, format, args...) }

// Violations returns the violations recorded so far.
func (g *Gates) Violations() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.violations
}

// LostAcks returns the lost acks recorded so far.
func (g *Gates) LostAcks() []string {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.lostAcks
}

// --- injector ----------------------------------------------------------

// Injector paces faults over a traffic window. In record mode it draws
// a seeded gap, asks the harness to Plan fault i from the same stream,
// stamps it with the harness's logical Clock and Applies it; in replay
// mode it waits for each loaded spec's tick and applies it verbatim.
// Either way it logs the schedule and what each spec actually did.
type Injector struct {
	Seed      uint64        // rng seed, salted per harness
	FaultRate float64       // record mode: mean injections per second
	Duration  time.Duration // the traffic window
	Replay    []FaultSpec   // non-nil: execute this schedule instead of drawing
	Clock     func() uint64 // logical clock AtTick is stamped from and replay paces on
	Stop      *atomic.Bool  // the harness's stop-issuing flag; Window sets it
	Gates     *Gates

	// Plan draws fault i from rng; false means nothing is eligible right
	// now (retry after another gap). Apply executes one spec, re-checking
	// eligibility: under replay the target may have drifted, and a skip
	// is an outcome, never a change to the schedule.
	Plan  func(i int, rng *xrand.Rand) (FaultSpec, bool)
	Apply func(spec FaultSpec) FaultOutcome

	Schedule []FaultSpec
	Outcomes []FaultOutcome
}

// Window runs the injector beside the harness's traffic and returns
// once the window is over and the injector has stopped: record mode
// sleeps out Duration; replay runs until the schedule is exhausted
// (plus a tail for the last repair), bounded by 4x Duration.
func (in *Injector) Window(start time.Time) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		in.Run(start)
	}()
	if in.Replay == nil {
		time.Sleep(in.Duration)
	} else {
		select {
		case <-done:
			time.Sleep(TailGrace)
		case <-time.After(4 * in.Duration):
			in.Gates.Violationf("replay: schedule not exhausted within 4x duration")
		}
	}
	in.Stop.Store(true)
	<-done
}

// Run paces and applies faults until the window (or the replay
// schedule) is exhausted or Stop is set.
func (in *Injector) Run(start time.Time) {
	if in.Replay != nil {
		for _, spec := range in.Replay {
			if in.Stop.Load() {
				return
			}
			in.WaitTick(spec.AtTick)
			in.fire(spec)
		}
		return
	}
	rng := xrand.New(in.Seed)
	// Stop injecting before the window closes so the last fault's repair
	// lands in-window; short runs scale the tail down.
	tail := TailGrace
	if tail > in.Duration/4 {
		tail = in.Duration / 4
	}
	end := start.Add(in.Duration - tail)
	mean := time.Duration(float64(time.Second) / in.FaultRate)
	for i := 0; ; {
		gap := time.Duration((0.5 + rng.Float64()) * float64(mean))
		if !in.sleepUnlessStopped(gap) || time.Now().After(end) {
			return
		}
		spec, ok := in.Plan(i, rng)
		if !ok {
			continue
		}
		spec.AtTick = in.Clock()
		in.fire(spec)
		i++
	}
}

func (in *Injector) fire(spec FaultSpec) {
	out := in.Apply(spec)
	in.Schedule = append(in.Schedule, spec)
	in.Outcomes = append(in.Outcomes, out)
}

func (in *Injector) sleepUnlessStopped(d time.Duration) bool {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if in.Stop.Load() {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
	return !in.Stop.Load()
}

// WaitTick blocks until the clock reaches at (replay pacing, and
// anything else a harness schedules in ticks). The clock advances as
// long as traffic runs, so a healthy run cannot spin here; the wall
// deadline bounds a stuck clock, which the caller's own gates surface.
func (in *Injector) WaitTick(at uint64) {
	deadline := time.Now().Add(KillWait)
	for in.Clock() < at && time.Now().Before(deadline) && !in.Stop.Load() {
		time.Sleep(200 * time.Microsecond)
	}
}

// ReplayOK is the replay gate: the emitted schedule must equal the
// loaded one. It is false (and gates nothing) in record mode.
func (in *Injector) ReplayOK() bool {
	if in.Replay == nil {
		return false
	}
	ok := SameSchedule(in.Replay, in.Schedule)
	if !ok {
		in.Gates.Violationf("replay: emitted schedule differs from loaded schedule")
	}
	return ok
}

// KillInOp arms the victims' random crash points and waits until each
// has died inside its own operation or the deadline passes — the crash
// model forbids marking a running thread crashed out of band. Death
// observation is sticky: a victim that died counts even if the watchdog
// revives it before the next poll. The injector is disarmed on every
// path; the victims that died are returned in the order given.
func KillInOp(inj *crash.Injector, prob float64, seed uint64, victims []int, alive func(tid int) bool, deadline time.Time) (died []int) {
	if len(victims) == 0 {
		return nil // ArmRandom with no tids would arm every thread
	}
	inj.ArmRandom(prob, seed, victims...)
	defer inj.Disarm()
	dead := make([]bool, len(victims))
	for n := 0; ; {
		for i, v := range victims {
			if !dead[i] && !alive(v) {
				dead[i] = true
				n++
			}
		}
		if n == len(victims) || time.Now().After(deadline) {
			break
		}
		time.Sleep(200 * time.Microsecond)
	}
	for i, v := range victims {
		if dead[i] {
			died = append(died, v)
		}
	}
	return died
}

// --- convergence -------------------------------------------------------

// Converge polls pending every millisecond until it reports nothing
// outstanding; whatever is still outstanding after wait becomes one
// violation each.
func (g *Gates) Converge(wait time.Duration, pending func() []string) {
	deadline := time.Now().Add(wait)
	for {
		out := pending()
		if len(out) == 0 {
			return
		}
		if time.Now().After(deadline) {
			for _, m := range out {
				g.Violationf("convergence: %s after %v", m, wait)
			}
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// SlotsDown lists, as Converge complaints, the slots of [0, tids) the
// watchdog has not yet brought back alive and leased.
func SlotsDown(heap *core.Heap, tids int) (out []string) {
	for tid := 0; tid < tids; tid++ {
		if !heap.Alive(tid) || !heap.Leased(tid) {
			out = append(out, fmt.Sprintf("slot %d not alive+leased", tid))
		}
	}
	return out
}

// LeaseTicks converts a wall-clock lease target into pod ticks at the
// calibrated tick rate. A harness starts under NoExpiryLiveness, measures
// the rate in a fault-free warmup, and retunes from this at a quiesce
// barrier — the calibration a deployment would do against its SLO.
func LeaseTicks(tickHz float64, wall time.Duration) uint64 {
	ticks := uint64(tickHz * wall.Seconds())
	if ticks < 4096 {
		ticks = 4096 // floor: never let a lease shrink to a handful of ops
	}
	return ticks
}

// TickRate measures clock in ticks per wall second over d of fault-free
// traffic: the calibration a harness sizes every tick-denominated
// quantity of its run from (leases, heal timers, repair pacing).
func TickRate(clock func() uint64, d time.Duration) float64 {
	c0, t0 := clock(), time.Now()
	time.Sleep(d)
	return float64(clock()-c0) / time.Since(t0).Seconds()
}

// MTTR summarizes repair spans as their median, 99th percentile and
// longest; no spans give zeroes. It sorts spans in place.
func MTTR(spans []time.Duration) (p50, p99, longest time.Duration) {
	if len(spans) == 0 {
		return 0, 0, 0
	}
	slices.Sort(spans)
	return spans[len(spans)/2], spans[len(spans)*99/100], spans[len(spans)-1]
}

// OwnedLive lists the live slots of [0, tids) process p owns. A process
// may be killed only once it owns none: KillProcess would otherwise mark
// a slot crashed under a running worker, an out-of-band kill the crash
// model forbids.
func OwnedLive(pod *cxlalloc.Pod, p *cxlalloc.Process, tids int) (owned []int) {
	heap := pod.Heap()
	for tid := 0; tid < tids; tid++ {
		if heap.Alive(tid) && pod.OwnerOf(tid) == p {
			owned = append(owned, tid)
		}
	}
	return owned
}

// SettleRound runs one empty Run per live slot from this goroutine — a
// deterministic quiesce-time way to tick the clock and renew every
// lease, so after a retune no slot carries a stale infinite deadline
// and MTTR clocks start from realistic lease ages.
func SettleRound(pod *cxlalloc.Pod, tids int) {
	for tid := 0; tid < tids; tid++ {
		if th, err := pod.ThreadOf(tid); err == nil {
			th.Run(func() {})
		}
	}
}

// --- the single-pod target -----------------------------------------------

// PodTarget is the target livechaos and the slo harness share: one
// auto-recovering pod in mCAS mode (the NMP data path is live, so NMP
// faults bite) that starts under NoExpiryLiveness until the harness
// has calibrated a lease, procs processes with thread tid attached to
// process tid%procs, a kvstore over the pod, and the orphans its
// repairs hand back. A non-nil inj arms crash points and, with them,
// the adversarial persist-subset drop at every crash.
type PodTarget struct {
	Pod     *cxlalloc.Pod
	Procs   []*cxlalloc.Process
	Store   *kvstore.Store
	Orphans Orphans
}

// NewPodTarget builds the target. The slab caps size the arena: the
// steady working set must sit well under the server's soft watermark.
func NewPodTarget(threads, procs, keys, smallSlabs, largeSlabs int, inj *crash.Injector) (*PodTarget, error) {
	pc := cxlalloc.DefaultConfig()
	pc.NumThreads = threads
	pc.MaxSmallSlabs = smallSlabs
	pc.MaxLargeSlabs = largeSlabs
	pc.HugeRegionSize = 1 << 20
	pc.NumReservations = 8
	pc.DescsPerThread = 16
	pc.NumHazards = 8
	pc.UnsizedThreshold = 2
	pc.Mode = atomicx.ModeMCAS
	if inj != nil {
		pc.Crash = inj
		pc.TrackPersist = true
	}
	t := &PodTarget{Procs: make([]*cxlalloc.Process, procs)}
	pod, err := cxlalloc.NewPodWith(cxlalloc.PodConfig{
		Config:      pc,
		AutoRecover: true,
		Liveness:    cxlalloc.NoExpiryLiveness,
		OnEvent:     t.Orphans.OnEvent,
	})
	if err != nil {
		return nil, err
	}
	t.Pod = pod
	for i := range t.Procs {
		t.Procs[i] = pod.NewProcess()
	}
	for tid := 0; tid < threads; tid++ {
		if _, err := t.Procs[tid%procs].AttachThreadID(tid); err != nil {
			return nil, err
		}
	}
	t.Store = kvstore.New(alloc.NewCXL(pod.Heap(), "cxlalloc"), keys*2, threads)
	return t, nil
}

// Audit is the end-of-run authoritative check at quiescence, from slot
// 0: the final oracle sweep, then the teardown and heap ledger audit.
// It returns how many adopted pending allocations were freed.
func (t *PodTarget) Audit(g *Gates, o *Oracle, keys, threads int) (orphans int) {
	o.FinalSweep(g, KeyRange(keys), "", func(key, buf []byte) ([]byte, bool) {
		return t.Store.Get(0, key, buf)
	})
	return g.Teardown(Target{
		Heap: t.Pod.Heap(), Store: t.Store, Keys: keys, Tids: threads,
		Orphans: t.Orphans.Take,
	})
}

// --- end-of-run audit --------------------------------------------------

// KeyRange returns the key ids [0, n).
func KeyRange(n int) []int {
	keys := make([]int, n)
	for k := range keys {
		keys[k] = k
	}
	return keys
}

// FinalSweep is the authoritative lost-ack check, run at quiescence:
// each key's store content must exactly equal its settled shadow state.
// get reads one key from wherever it lives now; where ("" or " on pod
// 2") says so in the messages.
func (o *Oracle) FinalSweep(g *Gates, keys []int, where string, get func(key, buf []byte) ([]byte, bool)) {
	var keyb, getb []byte
	for _, k := range keys {
		exp, settled := o.Final(k)
		if !settled {
			g.Violationf("key %d: op still unresolved at audit", k)
			continue
		}
		keyb = KeyBytes(keyb, k)
		got, found := get(keyb, getb)
		getb = got
		if !found {
			if exp.Present {
				g.LostAckf("final: key %d acked ver %d missing%s", k, exp.Ver, where)
			}
			continue
		}
		ver, err := DecodeVal(k, got)
		if err != nil {
			g.Violationf("final: key %d corrupt%s: %v", k, where, err)
			continue
		}
		if !exp.matches(ver, true) {
			g.LostAckf("final: key %d has ver %d%s, oracle has {ver %d present %v}", k, ver, where, exp.Ver, exp.Present)
		}
	}
}

// Orphans collects the allocations repairs hand to the harness: a
// victim that crashed between taking a block and receiving the pointer
// leaves a pending allocation the oracle never saw — it cannot be a
// committed write — so the harness adopts it and frees it at teardown.
type Orphans struct {
	mu   sync.Mutex
	ptrs []cxlalloc.Ptr
}

// OnEvent is the pod's liveness event hook.
func (o *Orphans) OnEvent(ev cxlalloc.LivenessEvent) {
	if ev.Kind == cxlalloc.LivenessRepair && ev.Report.PendingAlloc != 0 {
		o.mu.Lock()
		o.ptrs = append(o.ptrs, ev.Report.PendingAlloc)
		o.mu.Unlock()
	}
}

// Take hands over what has been collected.
func (o *Orphans) Take() []cxlalloc.Ptr {
	o.mu.Lock()
	defer o.mu.Unlock()
	out := o.ptrs
	o.ptrs = nil
	return out
}

// Target is one pod as the end-of-run teardown sees it.
type Target struct {
	Label string // violation prefix: "" or "pod 2 "
	Heap  *core.Heap
	Store *kvstore.Store
	Keys  int // key ids [0, Keys) the run may have written
	Tids  int // thread slots to maintain
	// On runs fn on a thread of the pod that may touch the store; nil
	// calls fn(0) directly (at quiescence slot 0 is alive and idle).
	On func(fn func(tid int)) error
	// Orphans hands over the adopted pending allocations. It is called
	// once On has its thread, because reviving that thread can adopt one
	// more.
	Orphans func() []cxlalloc.Ptr
}

// Teardown empties the store and audits the heap ledger: everything the
// workload ever allocated must come back. It returns how many adopted
// pending allocations it freed.
func (g *Gates) Teardown(t Target) (orphans int) {
	empty := func(tid int) {
		var keyb []byte
		for k := 0; k < t.Keys; k++ {
			keyb = KeyBytes(keyb, k)
			for t.Store.Delete(tid, keyb) {
			}
		}
		ptrs := t.Orphans()
		orphans = len(ptrs)
		for _, p := range ptrs {
			t.Store.FreeOrphan(tid, p)
		}
	}
	if t.On == nil {
		empty(0)
	} else if err := t.On(empty); err != nil {
		g.Violationf("%steardown: %v", t.Label, err)
		return orphans
	}
	t.Store.Drain()
	for round := 0; round < 3; round++ {
		for tid := 0; tid < t.Tids; tid++ {
			t.Heap.Maintain(tid)
		}
	}
	t.Heap.PublishStats()
	if err := t.Heap.CheckAll(0); err != nil {
		g.Violationf("%sinvariants: %v", t.Label, err)
	}
	t.Heap.DrainCaches()
	if err := t.Heap.AuditEmpty(0); err != nil {
		g.Violationf("%sledger audit: %v", t.Label, err)
	}
	return orphans
}
