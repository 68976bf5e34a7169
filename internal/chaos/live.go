package chaos

// Online chaos mode (ROADMAP item 5): N worker goroutines drive the
// kvstore workload continuously — no quiesce, no scripted crash points —
// while a seeded injector concurrently kills threads and whole
// processes at random crash points, resolves every crash with an
// adversarial persist-subset drop, and fires NMP fault bursts. The ONLY
// recovery path is the liveness watchdog (lease expiry → fenced claim →
// repair); the harness never calls Recover or Restart.
//
// The harness is the first client of the kernel in kernel.go, which owns
// the gates ledger, injection pacing and record/replay, the death loop
// and the end-of-run audit; what is livechaos's own is the in-process
// worker (it talks to kvstore directly and validates reads against
// bracketing oracle snapshots), plan/apply for thread, process and NMP
// faults, and the persist adversary.
//
// Correctness is gated three ways at run end: the heap's full invariant
// check plus ledger audit (every byte accounted, nothing leaked to a
// crash), the lost-ack oracle (oracle.go — an acknowledged write the
// pod lost fails the run), and zero false takeovers from the watchdog's
// ground truth (a live, leased thread must never be torn down).
//
// Leases are denominated in pod logical-clock ticks, which makes them
// load-adaptive (a globally descheduled pod stalls its own clock), but
// the wall rate of ticks varies with host load and -race. The run
// therefore starts with an effectively infinite grace, measures the
// real tick rate during a fault-free warmup, and retunes the lease to a
// wall-clock target before the injector starts — the same calibration a
// deployment would do against its SLO.

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cxlalloc"
	"cxlalloc/internal/crash"
	"cxlalloc/internal/memsim"
	"cxlalloc/internal/nmp"
	"cxlalloc/internal/telemetry"
	"cxlalloc/internal/xrand"
)

// LiveConfig parameterizes an online chaos run. Start from
// DefaultLiveConfig.
type LiveConfig struct {
	Keys int
	Seed uint64
	// Duration is the live-traffic window (injection stops a little
	// earlier so the last fault's repair lands inside the window).
	Duration time.Duration
	// FaultRate is the mean injections per second in record mode.
	FaultRate float64
	// Replay, when non-nil, executes this schedule verbatim instead of
	// drawing faults; the run ends when the schedule is exhausted.
	Replay []FaultSpec
	// LeaseWall is the wall-clock lease target the calibration phase
	// tunes toward; Calibrate is the fault-free warmup used to measure
	// the pod's tick rate.
	LeaseWall time.Duration
	Calibrate time.Duration
}

// A livechaos pod: four worker slots spread over two processes. The kill
// guard keeps two slots alive (the watchdog needs survivors), so a
// thread kill needs three live, and a process kill leaves the other
// process's slots.
const (
	liveThreads = 4
	liveProcs   = 2
)

// DefaultLiveConfig sizes a run for the CLI default: ~12 faults over
// 10s with sub-second MTTR.
func DefaultLiveConfig() LiveConfig {
	return LiveConfig{
		Keys:      384,
		Seed:      2026,
		Duration:  10 * time.Second,
		FaultRate: 1.2,
		LeaseWall: 400 * time.Millisecond,
		Calibrate: 250 * time.Millisecond,
	}
}

func (c *LiveConfig) validate() error {
	if c.Keys < liveThreads {
		return fmt.Errorf("chaos: need at least one key per worker (keys %d, threads %d)", c.Keys, liveThreads)
	}
	if c.Duration <= 0 || c.FaultRate <= 0 || c.LeaseWall <= 0 || c.Calibrate <= 0 {
		return fmt.Errorf("chaos: livechaos needs a positive Duration, FaultRate, LeaseWall and Calibrate (got %v/%g/%v/%v)",
			c.Duration, c.FaultRate, c.LeaseWall, c.Calibrate)
	}
	return nil
}

// LiveReport is one online chaos run's full outcome.
type LiveReport struct {
	Threads, Procs, Keys int
	Seed                 uint64
	Duration             time.Duration // configured traffic window
	Elapsed              time.Duration // measured traffic wall time
	Replayed             bool

	// Traffic.
	Ops, Acked                 uint64 // completed ops; acked writes
	Puts, Gets, Deletes        uint64
	Failed                     uint64 // ops rejected without a crash (e.g. transient OOM)
	Crashes                    uint64 // worker-visible own-thread crashes
	ReadsChecked, ReadsSkipped uint64
	Throughput                 float64 // completed ops per second of traffic
	LatencyP50, LatencyP99     time.Duration

	// Injection coverage.
	ThreadKills, ProcKills, NMPBursts int
	NMPFaults                         uint64 // mCAS faults actually fired
	CrashDiscards, LinesDropped       uint64 // adversarial persist resolutions
	PendingAllocs                     int    // allocations adopted from repair reports

	// Watchdog activity (all recovery is watchdog-only).
	Repairs, Fenced, FalseAlarms, Rescues, SelfFences uint64
	FalseTakeovers                                    uint64

	// Derived from telemetry crash→repair spans.
	MTTRCount        int
	MTTRP50, MTTRP99 time.Duration
	MTTRMax          time.Duration
	Availability     float64 // fraction of the window with all slots live
	KeptLost         uint64  // retention overflow: metrics approximate if nonzero

	// CrashPoints tallies where the injected crashes actually landed.
	CrashPoints map[string]int

	// Schedule (record or replayed) and per-spec outcomes.
	Schedule []FaultSpec
	Outcomes []FaultOutcome
	ReplayOK bool // replay mode: emitted schedule == loaded schedule

	// Gates.
	Violations []string
	LostAcks   []string
}

// Ok reports whether all three correctness gates passed.
func (r *LiveReport) Ok() bool {
	return len(r.Violations) == 0 && len(r.LostAcks) == 0 && r.FalseTakeovers == 0
}

// liveRun is the shared runtime state of one online chaos run.
type liveRun struct {
	*PodTarget // the pod, its processes, the store, adopted orphans

	cfg       LiveConfig
	inj       *crash.Injector
	orc       *Oracle
	gates     Gates
	faults    *Injector
	tracer    *telemetry.Tracer
	ownTracer bool

	stop atomic.Bool // stop issuing new ops; keep ticking
	done atomic.Bool // convergence reached; workers may exit

	// Per-tid adversarial persist state, read by the heap's crash policy
	// from whichever goroutine marks the crash.
	persistSeed []atomic.Uint64
	crashSeq    []atomic.Uint64

	cpMu        sync.Mutex
	crashPoints map[string]int

	workers []*liveWorker
}

// liveWorker drives one thread slot's traffic from its own goroutine.
type liveWorker struct {
	run  *liveRun
	tid  int
	rng  *xrand.Rand
	hist *telemetry.Hist
	keyb []byte
	valb []byte
	getb []byte

	// pend is the in-flight op to settle after a crash. It lives in Go
	// memory, so a panic unwind leaves it exactly as the crash did.
	pend       *livePend
	unresolved atomic.Bool

	ops, acked, puts, gets, dels uint64
	failed, crashes              uint64
	readsChecked, readsSkipped   uint64
}

type livePend struct {
	put bool
	key int
	ver uint64       // put: target version; delete: the displaced version
	ptr cxlalloc.Ptr // put: captured allocation (0 = Alloc never returned)
}

// RunLive executes one online chaos run.
func RunLive(cfg LiveConfig) (*LiveReport, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}

	inj := crash.NewInjector()
	target, err := NewPodTarget(liveThreads, liveProcs, cfg.Keys, 64, 16, inj)
	if err != nil {
		return nil, err
	}
	pod := target.Pod
	r := &liveRun{
		cfg: cfg, inj: inj, PodTarget: target,
		orc:         NewOracle(cfg.Keys),
		persistSeed: make([]atomic.Uint64, liveThreads),
		crashSeq:    make([]atomic.Uint64, liveThreads),
	}

	// Per-crash adversarial persistence: every MarkCrashed resolves the
	// victim's cache with a seeded random persist subset. The seed base
	// is set by the injector when it arms the victim (recorded in the
	// schedule), perturbed by the victim's crash ordinal so repeated
	// crashes of one victim draw fresh subsets.
	pod.Heap().SetCrashPersistPolicy(func(tid int, inPlay []int32) memsim.CrashPolicy {
		seq := r.crashSeq[tid].Add(1)
		base := r.persistSeed[tid].Load()
		if base == 0 {
			return memsim.CrashPolicy{Kind: memsim.PersistAll}
		}
		draw := xrand.Mix(base + seq*0x9e3779b97f4a7c15)
		// Every third crash loses everything in-play (the pessimistic
		// extreme); otherwise a seeded per-line coin. Crashes landing
		// right after a fence have nothing in play either way.
		if draw%3 == 0 {
			return memsim.CrashPolicy{Kind: memsim.PersistNone}
		}
		return memsim.CrashPolicy{Kind: memsim.PersistRandom, Seed: draw}
	})

	// Tracer: reuse an installed one (its rings cover our tids), else
	// install our own for the run. Keep() retains the rare crash and
	// recovery markers losslessly — ring wraparound under live traffic
	// would otherwise overwrite them long before the run ends, and MTTR
	// and availability are derived from exactly those events.
	if t := telemetry.Active(); t != nil {
		r.tracer = t
	} else {
		r.tracer = telemetry.Start(liveThreads, 1<<14)
		r.ownTracer = true
	}
	r.tracer.Keep(telemetry.EvCrash, telemetry.EvRecoveryExit)
	snap0 := pod.Snapshot()
	kept0 := len(r.tracer.Kept())

	r.workers = make([]*liveWorker, liveThreads)
	for tid := 0; tid < liveThreads; tid++ {
		r.workers[tid] = &liveWorker{
			run:  r,
			tid:  tid,
			rng:  xrand.New(xrand.Mix(cfg.Seed ^ uint64(tid)*0xa076_1d64_78bd_642f)),
			hist: new(telemetry.Hist),
		}
	}

	// Phase 1 — calibration: fault-free traffic under the infinite
	// lease, measuring the pod's wall tick rate; then, at a quiesce
	// barrier, retune the lease to the wall-clock target.
	var wg sync.WaitGroup
	warmStop := &atomic.Bool{}
	for _, w := range r.workers {
		wg.Add(1)
		go func(w *liveWorker) {
			defer wg.Done()
			th, err := r.Pod.ThreadOf(w.tid)
			if err != nil {
				r.gates.Violationf("warmup: no handle for tid %d: %v", w.tid, err)
				return
			}
			for !warmStop.Load() {
				th.Run(func() { w.step() })
			}
		}(w)
	}
	t0, c0 := time.Now(), r.clockNow()
	time.Sleep(cfg.Calibrate)
	t1, c1 := time.Now(), r.clockNow()
	warmStop.Store(true)
	wg.Wait()
	if len(r.gates.Violations()) > 0 {
		return r.finishEarly(), nil
	}
	tickHz := float64(c1-c0) / t1.Sub(t0).Seconds()
	pod.RetuneLiveness(cxlalloc.LivenessConfig{RenewInterval: 4, GraceMult: LeaseTicks(tickHz, cfg.LeaseWall) / 4, PollInterval: 4})
	// Leases are monotone, so the old long deadlines are harmless for
	// expiry-based takeover only in the "too late" direction; settle
	// them before any fault.
	SettleRound(pod, liveThreads)

	// Phase 2 — live traffic with the injector.
	start := time.Now()
	for _, w := range r.workers {
		wg.Add(1)
		go w.loop(&wg)
	}
	r.faults = &Injector{
		Seed: xrand.Mix(cfg.Seed ^ 0xfa117c0de), FaultRate: cfg.FaultRate,
		Duration: cfg.Duration, Replay: cfg.Replay,
		Clock: r.clockNow, Stop: &r.stop, Gates: &r.gates,
		Plan: r.plan, Apply: r.apply,
	}
	r.faults.Window(start)

	// Phase 3 — convergence: ops have stopped; clear all fault sources,
	// then keep every worker ticking (heartbeats drive the watchdog)
	// until all slots are alive+leased and every crashed op has been
	// settled against ground truth.
	r.inj.Disarm()
	pod.Heap().NMP().ClearFaults()
	elapsed := time.Since(start)
	r.gates.Converge(ConvergeWait, func() []string {
		down := SlotsDown(pod.Heap(), liveThreads)
		for _, w := range r.workers {
			if w.unresolved.Load() {
				down = append(down, fmt.Sprintf("tid %d op still unresolved", w.tid))
			}
		}
		return down
	})
	r.done.Store(true)
	wg.Wait()

	// Phase 4 — audit at quiescence.
	rep := r.audit(snap0, kept0, elapsed)
	if r.ownTracer {
		telemetry.Stop()
	}
	return rep, nil
}

// finishEarly aborts after a warmup failure with whatever gates fired.
func (r *liveRun) finishEarly() *LiveReport {
	rep := &LiveReport{
		Threads: liveThreads, Procs: liveProcs, Keys: r.cfg.Keys,
		Seed: r.cfg.Seed, Duration: r.cfg.Duration,
		Violations: r.gates.Violations(), LostAcks: r.gates.LostAcks(),
	}
	if r.ownTracer {
		telemetry.Stop()
	}
	return rep
}

func (r *liveRun) clockNow() uint64 {
	// HWcc load through the device; safe from any goroutine.
	return r.Pod.Heap().ClockNow(0)
}

// --- worker ----------------------------------------------------------

func (w *liveWorker) loop(wg *sync.WaitGroup) {
	defer wg.Done()
	r := w.run
	th, err := r.Pod.ThreadOf(w.tid)
	if err != nil {
		th = w.awaitRepair()
	}
	for {
		if r.done.Load() && w.pend == nil {
			return
		}
		if th == nil {
			if th = w.awaitRepair(); th == nil {
				return // run aborted; violation already recorded
			}
		}
		ranOp := false
		begin := time.Now()
		c := th.Run(func() {
			if w.pend != nil {
				w.resolve()
				return
			}
			if r.stop.Load() {
				return // benign tick: convergence mode
			}
			ranOp = true
			w.step()
		})
		if c != nil {
			if c.TID == w.tid {
				r.cpMu.Lock()
				if r.crashPoints == nil {
					r.crashPoints = make(map[string]int)
				}
				r.crashPoints[c.Point]++
				r.cpMu.Unlock()
				// Our own crash — injected mid-op, or a self-fence. The
				// slot is dead (or taken over); drop the handle and wait
				// for the watchdog. pend, if set, survives in Go memory
				// for ground-truth resolution after repair.
				w.crashes++
				if w.pend != nil {
					w.unresolved.Store(true)
				}
				th = nil
			}
			// c.TID != w.tid: a watchdog repair our heartbeat was running
			// crashed (the victim was armed). Our slot is untouched and
			// our op never ran; just continue.
			continue
		}
		if ranOp {
			w.hist.Observe(time.Since(begin))
			w.ops++
		}
	}
}

// awaitRepair blocks until the watchdog has repaired this worker's slot
// (driven by the surviving workers' heartbeats) and returns a fresh
// handle. nil means the run is over or the repair never came.
func (w *liveWorker) awaitRepair() *cxlalloc.Thread {
	r := w.run
	deadline := time.Now().Add(ConvergeWait)
	for {
		if th, err := r.Pod.ThreadOf(w.tid); err == nil {
			return th
		}
		if r.done.Load() {
			return nil
		}
		if time.Now().After(deadline) {
			r.gates.Violationf("tid %d: watchdog repair did not arrive within %v", w.tid, ConvergeWait)
			return nil
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// step runs one workload op. Runs inside th.Run: an injected crash
// unwinds from anywhere in here, leaving pend for resolution.
func (w *liveWorker) step() {
	roll := w.rng.Intn(100)
	switch {
	case roll < 50:
		w.stepWrite()
	case roll < 85:
		w.stepReadForeign()
	default:
		w.stepReadOwn()
	}
}

// ownKey picks one of this worker's keys (single-writer partition).
func (w *liveWorker) ownKey() int {
	n := w.run.cfg.Keys / liveThreads
	return w.rng.Intn(n)*liveThreads + w.tid
}

func (w *liveWorker) stepWrite() {
	r := w.run
	k := w.ownKey()
	cur := r.orc.Current(k)
	w.keyb = KeyBytes(w.keyb, k)
	if cur.Present && w.rng.Intn(100) < 30 {
		// Delete. Issue → probe result → ack. A miss on a key the oracle
		// has as present is a synchronously detected lost ack.
		w.pend = &livePend{put: false, key: k, ver: cur.Ver}
		r.orc.Begin(k, KVState{})
		found := r.Store.Delete(w.tid, w.keyb)
		if !found {
			r.gates.LostAckf("key %d: acked ver %d vanished before delete", k, cur.Ver)
		}
		r.orc.Ack(k)
		w.pend = nil
		w.dels++
		w.acked++
		return
	}
	// Put (insert or replace).
	ver := r.orc.NextVersion(k)
	w.valb = EncodeVal(w.valb, k, ver)
	pend := &livePend{put: true, key: k, ver: ver}
	w.pend = pend
	r.orc.Begin(k, KVState{Ver: ver, Present: true})
	err := r.Store.PutTracked(w.tid, w.keyb, w.valb, func(p cxlalloc.Ptr) { pend.ptr = p })
	if err != nil {
		// Rejected without linking (e.g. transient OOM while a dead
		// process's memory awaits repair): the op did not happen.
		if pend.ptr != 0 {
			// Alloc succeeded but a later stage failed — cannot happen in
			// the current kvstore (only Alloc returns errors), so treat a
			// future drift loudly.
			r.gates.Violationf("key %d: Put error %v after alloc", k, err)
		}
		r.orc.Resolve(k, false)
		w.pend = nil
		w.failed++
		return
	}
	r.orc.Ack(k)
	w.pend = nil
	w.puts++
	w.acked++
}

func (w *liveWorker) stepReadOwn() {
	r := w.run
	k := w.ownKey()
	cur := r.orc.Current(k) // we are the writer: state is settled
	w.keyb = KeyBytes(w.keyb, k)
	got, found := r.Store.Get(w.tid, w.keyb, w.getb)
	w.getb = got
	w.gets++
	if !found {
		if cur.Present {
			r.gates.LostAckf("key %d: own read missed acked ver %d", k, cur.Ver)
		} else {
			w.readsChecked++
		}
		return
	}
	ver, err := DecodeVal(k, got)
	if err != nil {
		r.gates.Violationf("key %d: own read corrupt: %v", k, err)
		return
	}
	if !cur.matches(ver, true) {
		r.gates.LostAckf("key %d: own read saw ver %d, oracle has {ver %d present %v}", k, ver, cur.Ver, cur.Present)
		return
	}
	w.readsChecked++
}

func (w *liveWorker) stepReadForeign() {
	r := w.run
	k := w.rng.Intn(r.cfg.Keys)
	w.keyb = KeyBytes(w.keyb, k)
	s1 := r.orc.snapshot(k)
	got, found := r.Store.Get(w.tid, w.keyb, w.getb)
	w.getb = got
	w.gets++
	var ver uint64
	if found {
		var err error
		if ver, err = DecodeVal(k, got); err != nil {
			// Linked values are fully written before the head CAS, so
			// corruption here is real — never a racing writer.
			r.gates.Violationf("key %d: foreign read corrupt: %v", k, err)
			return
		}
	}
	s2 := r.orc.snapshot(k)
	if s2.gen-s1.gen > 1 {
		// More than one shadow transition raced this read; the bracketing
		// pair no longer covers every intermediate state. Skip, and count
		// the skip so a pathological run cannot silently check nothing.
		w.readsSkipped++
		return
	}
	if s1.admits(ver, found) || s2.admits(ver, found) {
		w.readsChecked++
		return
	}
	r.gates.LostAckf("key %d: foreign read saw {ver %d found %v}, not admissible under gens %d-%d", k, ver, found, s1.gen, s2.gen)
}

// resolve settles the crashed op against ground truth. Runs inside
// th.Run on the repaired slot; it may itself crash (the injector may
// have re-armed us), in which case it re-runs — every step here is
// idempotent.
func (w *liveWorker) resolve() {
	r := w.run
	p := w.pend
	w.keyb = KeyBytes(w.keyb, p.key)
	if p.put {
		r.orc.Resolve(p.key, r.Store.ResolvePut(w.tid, w.keyb, &p.ptr))
	} else {
		// Delete: applied iff the displaced version is no longer
		// readable. The keyspace is single-writer, so any other surviving
		// version is impossible.
		got, found := r.Store.Get(w.tid, w.keyb, w.getb)
		w.getb = got
		applied := true
		if found {
			ver, err := DecodeVal(p.key, got)
			switch {
			case err != nil:
				r.gates.Violationf("key %d: delete-resolve read corrupt: %v", p.key, err)
			case ver == p.ver:
				applied = false
			default:
				r.gates.Violationf("key %d: delete-resolve saw ver %d, expected %d or absent", p.key, ver, p.ver)
			}
		}
		r.orc.Resolve(p.key, applied)
	}
	w.pend = nil
	w.unresolved.Store(false)
}

// --- injector --------------------------------------------------------

// aliveTids returns the currently-live slots.
func (r *liveRun) aliveTids() []int {
	heap := r.Pod.Heap()
	var out []int
	for tid := 0; tid < liveThreads; tid++ {
		if heap.Alive(tid) {
			out = append(out, tid)
		}
	}
	return out
}

// killProcessSafely lands the process-level kill once the process owns
// no live thread, so KillProcess never marks a slot with a live worker
// mid-op (an out-of-band kill the crash model forbids — a real kill -9
// takes the OS thread with it). The planned victims have died in-op,
// but the watchdog may since have repaired some and adopted them — or
// other repaired slots — INTO the dying process (a repair rebinds the
// slot to the repairing thread's process). Each round arms whatever
// live tids the process still owns and waits for them to die in-op like
// any victim. Adoption into the process needs one of its own threads
// alive and not mid-repair — and a mid-repair thread shows as alive
// here — so the no-live-tids check cannot race a pending adoption.
func (r *liveRun) killProcessSafely(spec FaultSpec, out *FaultOutcome) {
	heap := r.Pod.Heap()
	p := r.Procs[spec.Proc]
	deadline := time.Now().Add(KillWait)
	for round := 0; !p.Dead(); round++ {
		var extra []int
		for tid := 0; tid < liveThreads; tid++ {
			if heap.Alive(tid) && r.Pod.OwnerOf(tid) == p {
				extra = append(extra, tid)
			}
		}
		if len(extra) == 0 {
			r.Pod.KillProcess(p)
			out.ProcKilled = true
			return
		}
		if len(r.aliveTids())-len(extra) < 2 {
			out.Note = "skipped: killing adopted slots would leave <2 survivors"
			return
		}
		if time.Now().After(deadline) {
			out.Note = "partial: adopted slots did not die before deadline"
			return
		}
		r.armPersist(spec, extra)
		KillInOp(r.inj, spec.ArmProb, spec.ArmSeed+uint64(round+1), extra, heap.Alive, deadline)
	}
}

// armPersist sets the victims' adversarial persist seed base, which the
// heap's crash policy reads when each of them dies.
func (r *liveRun) armPersist(spec FaultSpec, victims []int) {
	for _, v := range victims {
		r.persistSeed[v].Store(spec.PersistSeed + uint64(v)<<48)
	}
}

// plan draws fault i from the seeded stream. The first three faults are
// a fixed rotation — thread-kill, nmp-burst, proc-kill — so even a
// short run covers every fault class; afterwards the mix is random.
func (r *liveRun) plan(i int, rng *xrand.Rand) (FaultSpec, bool) {
	var kind FaultKind
	switch {
	case i == 0:
		kind = FaultThreadKill
	case i == 1:
		kind = FaultNMPBurst
	case i == 2:
		kind = FaultProcKill
	default:
		switch roll := rng.Intn(100); {
		case roll < 50:
			kind = FaultThreadKill
		case roll < 75:
			kind = FaultNMPBurst
		default:
			kind = FaultProcKill
		}
	}

	spec := FaultSpec{I: i, Kind: kind}
	switch kind {
	case FaultNMPBurst:
		if rng.Intn(2) == 0 {
			spec.NMPMode = "timeout"
		} else {
			spec.NMPMode = "unavailable"
		}
		spec.NMPCount = 8 + rng.Intn(57)
		return spec, true

	case FaultProcKill:
		// Eligible: a live process whose death leaves >= 2 live slots.
		alive := r.aliveTids()
		var cands []int
		for pi, p := range r.Procs {
			if p.Dead() {
				continue
			}
			owned := 0
			for _, tid := range alive {
				if r.Pod.OwnerOf(tid) == p {
					owned++
				}
			}
			if owned > 0 && len(alive)-owned >= 2 {
				cands = append(cands, pi)
			}
		}
		if len(cands) == 0 {
			// Downgrade to a thread kill so the stream stays productive.
			return r.planThreadKill(i, rng)
		}
		pi := cands[rng.Intn(len(cands))]
		spec.Proc = pi
		for _, tid := range alive {
			if r.Pod.OwnerOf(tid) == r.Procs[pi] {
				spec.Victims = append(spec.Victims, tid)
			}
		}
		spec.ArmProb = ArmProb
		spec.ArmSeed = rng.Uint64()
		spec.PersistSeed = rng.Uint64() | 1
		return spec, true

	default:
		return r.planThreadKill(i, rng)
	}
}

func (r *liveRun) planThreadKill(i int, rng *xrand.Rand) (FaultSpec, bool) {
	alive := r.aliveTids()
	if len(alive) < 3 {
		return FaultSpec{}, false // keep >= 2 survivors
	}
	v := alive[rng.Intn(len(alive))]
	return FaultSpec{
		I:           i,
		Kind:        FaultThreadKill,
		Victims:     []int{v},
		ArmProb:     ArmProb,
		ArmSeed:     rng.Uint64(),
		PersistSeed: rng.Uint64() | 1,
	}, true
}

// apply executes one spec. Kills arm the victims' random crash points
// and wait for the deaths to happen inside the victims' own operations;
// the injector itself never marks a running thread crashed.
func (r *liveRun) apply(spec FaultSpec) FaultOutcome {
	out := FaultOutcome{I: spec.I, Kind: spec.Kind}
	heap := r.Pod.Heap()
	switch spec.Kind {
	case FaultNMPBurst:
		mode := nmp.FaultUnavailable
		if spec.NMPMode == "timeout" {
			mode = nmp.FaultTimeout
		}
		heap.NMP().InjectFaults(nmp.FaultPlan{Mode: mode, Count: spec.NMPCount})
		return out

	case FaultThreadKill, FaultProcKill:
		// Filter to victims still alive (replay drift), keeping the
		// >=2-survivors guard even when replaying.
		alive := r.aliveTids()
		aliveSet := make(map[int]bool, len(alive))
		for _, tid := range alive {
			aliveSet[tid] = true
		}
		var targets []int
		for _, v := range spec.Victims {
			if aliveSet[v] {
				targets = append(targets, v)
			}
		}
		if len(alive)-len(targets) < 2 {
			out.Note = "skipped: would leave <2 survivors"
			return out
		}
		if len(targets) == 0 {
			out.Note = "victims already dead"
			return out
		}
		r.armPersist(spec, targets)
		out.Died = KillInOp(r.inj, spec.ArmProb, spec.ArmSeed, targets, heap.Alive, time.Now().Add(KillWait))
		if len(out.Died) < len(targets) {
			out.Note = "partial: not all victims died before deadline"
		}
		if spec.Kind == FaultProcKill && len(out.Died) == len(targets) {
			r.killProcessSafely(spec, &out)
		}
		return out
	}
	out.Note = "unknown fault kind"
	return out
}

// --- audit and reporting ---------------------------------------------

func (r *liveRun) audit(snap0 telemetry.Snapshot, kept0 int, elapsed time.Duration) *LiveReport {
	cfg := r.cfg
	rep := &LiveReport{
		Threads: liveThreads, Procs: liveProcs, Keys: cfg.Keys,
		Seed: cfg.Seed, Duration: cfg.Duration, Elapsed: elapsed,
		Replayed: cfg.Replay != nil,
		Schedule: r.faults.Schedule, Outcomes: r.faults.Outcomes,
	}

	rep.PendingAllocs = r.Audit(&r.gates, r.orc, cfg.Keys, liveThreads)

	// Traffic counters.
	for _, w := range r.workers {
		rep.Ops += w.ops
		rep.Acked += w.acked
		rep.Puts += w.puts
		rep.Gets += w.gets
		rep.Deletes += w.dels
		rep.Failed += w.failed
		rep.Crashes += w.crashes
		rep.ReadsChecked += w.readsChecked
		rep.ReadsSkipped += w.readsSkipped
	}
	if elapsed > 0 {
		rep.Throughput = float64(rep.Ops) / elapsed.Seconds()
	}
	merged := new(telemetry.Hist)
	for _, w := range r.workers {
		merged.Merge(w.hist)
	}
	rep.LatencyP50 = time.Duration(merged.Quantile(0.50))
	rep.LatencyP99 = time.Duration(merged.Quantile(0.99))

	// Injection coverage and watchdog tallies (delta over the run).
	for i, spec := range rep.Schedule {
		switch spec.Kind {
		case FaultThreadKill:
			rep.ThreadKills++
		case FaultProcKill:
			if rep.Outcomes[i].ProcKilled {
				rep.ProcKills++
			} else {
				rep.ThreadKills++ // armed but not escalated
			}
		case FaultNMPBurst:
			rep.NMPBursts++
		}
	}
	snap := r.Pod.Snapshot()
	rep.NMPFaults = snap.NMP.FaultsInjected - snap0.NMP.FaultsInjected
	rep.CrashDiscards = snap.Chaos.CrashDiscards - snap0.Chaos.CrashDiscards
	rep.LinesDropped = snap.Chaos.LinesDroppedAtCrash - snap0.Chaos.LinesDroppedAtCrash
	rep.Repairs = snap.Liveness.Repairs
	rep.Fenced = snap.Liveness.Fenced
	rep.FalseAlarms = snap.Liveness.FalseAlarms
	rep.Rescues = snap.Liveness.Rescues
	rep.SelfFences = snap.Liveness.SelfFences
	rep.FalseTakeovers = r.Pod.FalseTakeovers()

	// MTTR and availability from the retained crash→repair spans.
	kept := r.tracer.Kept()
	if kept0 > 0 && kept0 <= len(kept) {
		kept = kept[kept0:]
	}
	spans := telemetry.CrashRepairSpans(kept)
	rep.MTTRCount = len(spans)
	rep.KeptLost = r.tracer.KeptLost()
	if len(spans) > 0 {
		durs := make([]time.Duration, 0, len(spans))
		type iv struct{ s, e int64 }
		ivs := make([]iv, 0, len(spans))
		for _, sp := range spans {
			durs = append(durs, time.Duration(sp.End-sp.Start))
			ivs = append(ivs, iv{sp.Start, sp.End})
		}
		sort.Slice(durs, func(a, b int) bool { return durs[a] < durs[b] })
		rep.MTTRP50 = durs[len(durs)/2]
		rep.MTTRP99 = durs[(len(durs)*99)/100]
		rep.MTTRMax = durs[len(durs)-1]
		// Availability: 1 - union(crash→repair intervals)/window. The
		// union length is offset-invariant, so span timestamps need no
		// rebasing onto the traffic window.
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].s < ivs[b].s })
		var covered, curS, curE int64
		curS, curE = ivs[0].s, ivs[0].e
		for _, v := range ivs[1:] {
			if v.s > curE {
				covered += curE - curS
				curS, curE = v.s, v.e
			} else if v.e > curE {
				curE = v.e
			}
		}
		covered += curE - curS
		if win := elapsed.Nanoseconds(); win > 0 {
			av := 1 - float64(covered)/float64(win)
			if av < 0 {
				av = 0
			}
			rep.Availability = av
		}
	} else {
		rep.Availability = 1
	}

	rep.ReplayOK = r.faults.ReplayOK()
	rep.Violations, rep.LostAcks = r.gates.Violations(), r.gates.LostAcks()
	rep.CrashPoints = r.crashPoints // workers have exited
	return rep
}

// FormatLiveReport renders a human-readable summary.
func FormatLiveReport(r *LiveReport) string {
	var b strings.Builder
	mode := "record"
	if r.Replayed {
		mode = "replay"
	}
	fmt.Fprintf(&b, "livechaos: %d threads / %d procs / %d keys, seed %d, %v traffic (%s mode)\n",
		r.Threads, r.Procs, r.Keys, r.Seed, r.Elapsed.Round(time.Millisecond), mode)
	fmt.Fprintf(&b, "  traffic:   %d ops (%.0f ops/s), %d acked writes (%d puts, %d deletes), %d gets, %d failed\n",
		r.Ops, r.Throughput, r.Acked, r.Puts, r.Deletes, r.Gets, r.Failed)
	fmt.Fprintf(&b, "  latency:   p50 %v  p99 %v\n", r.LatencyP50, r.LatencyP99)
	fmt.Fprintf(&b, "  oracle:    %d reads checked, %d skipped (raced >1 transition)\n", r.ReadsChecked, r.ReadsSkipped)
	fmt.Fprintf(&b, "  injected:  %d thread kills, %d proc kills, %d nmp bursts -> %d crashes, %d mCAS faults, %d crash-discards (%d lines dropped), %d pending allocs adopted\n",
		r.ThreadKills, r.ProcKills, r.NMPBursts, r.Crashes, r.NMPFaults, r.CrashDiscards, r.LinesDropped, r.PendingAllocs)
	if len(r.CrashPoints) > 0 {
		pts := make([]string, 0, len(r.CrashPoints))
		for p, n := range r.CrashPoints {
			pts = append(pts, fmt.Sprintf("%s x%d", p, n))
		}
		sort.Strings(pts)
		fmt.Fprintf(&b, "  crash at:  %s\n", strings.Join(pts, ", "))
	}
	fmt.Fprintf(&b, "  watchdog:  %d repairs, %d fenced, %d false alarms, %d rescues, %d self-fences\n",
		r.Repairs, r.Fenced, r.FalseAlarms, r.Rescues, r.SelfFences)
	fmt.Fprintf(&b, "  mttr:      %d spans, p50 %v  p99 %v  max %v; availability %.4f\n",
		r.MTTRCount, r.MTTRP50.Round(time.Millisecond), r.MTTRP99.Round(time.Millisecond), r.MTTRMax.Round(time.Millisecond), r.Availability)
	if r.KeptLost > 0 {
		fmt.Fprintf(&b, "  WARNING:   %d retained events lost; MTTR/availability approximate\n", r.KeptLost)
	}
	if r.Replayed {
		fmt.Fprintf(&b, "  replay:    schedule match = %v (%d faults)\n", r.ReplayOK, len(r.Schedule))
	}
	fmt.Fprintf(&b, "  gates:     %d invariant violations, %d lost acks, %d false takeovers -> %s\n",
		len(r.Violations), len(r.LostAcks), r.FalseTakeovers, map[bool]string{true: "PASS", false: "FAIL"}[r.Ok()])
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "    violation: %s\n", v)
	}
	for _, v := range r.LostAcks {
		fmt.Fprintf(&b, "    lost-ack:  %s\n", v)
	}
	return b.String()
}
