package server

// Online chaos mode (ROADMAP item 5): closed-loop Issuer lanes drive a
// Server over a four-slot pod continuously — no quiesce, no scripted
// crash points — while a seeded injector concurrently kills threads and
// whole processes at random crash points, resolves every crash with an
// adversarial persist-subset drop, and fires NMP fault bursts. The ONLY
// recovery path is the liveness watchdog (lease expiry → fenced claim →
// repair); the harness never calls Recover or Restart.
//
// The harness is a client of the server, like slochaos and fabricchaos:
// the crash discipline is worker.serve's (a crashed write settles
// against ground truth after the watchdog's repair), the write protocol
// and the bracketed read checks are Issuer's, and the gates ledger,
// injection pacing and record/replay, the death loop and the end-of-run
// audit are the chaos kernel's. What is livechaos's own is plan/apply
// for thread, process and NMP faults, and the persist adversary.
//
// Correctness is gated three ways at run end: the heap's full invariant
// check plus ledger audit (every byte accounted, nothing leaked to a
// crash), the lost-ack oracle (an acknowledged write the pod lost fails
// the run), and zero false takeovers from the watchdog's ground truth
// (a live, leased thread must never be torn down).
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
	"sync/atomic"
	"time"

	"cxlalloc"
	"cxlalloc/internal/chaos"
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
	Replay []chaos.FaultSpec
	// LeaseWall is the wall-clock lease target the calibration phase
	// tunes toward.
	LeaseWall time.Duration
}

// A livechaos pod: four worker slots spread over two processes, each
// process one server group. The kill guard keeps two slots alive (the
// watchdog needs survivors), so a thread kill needs three live, and a
// process kill leaves the other process's slots. One issuer per slot
// owns a key partition; each runs two lanes, so a worker finds the next
// request queued while its lane handles the last response.
const (
	liveThreads = 4
	liveProcs   = 2
	liveLanes   = 2
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
	}
}

func (c *LiveConfig) validate() error {
	if c.Keys < liveThreads {
		return fmt.Errorf("server: livechaos needs at least one key per worker (keys %d, threads %d)", c.Keys, liveThreads)
	}
	if c.Duration <= 0 || c.FaultRate <= 0 || c.LeaseWall <= 0 {
		return fmt.Errorf("server: livechaos needs a positive Duration, FaultRate and LeaseWall (got %v/%g/%v)",
			c.Duration, c.FaultRate, c.LeaseWall)
	}
	return nil
}

// LiveReport is one online chaos run's full outcome. Its Failed ops were
// rejected without a crash (e.g. transient out-of-memory).
type LiveReport struct {
	Report
	Threads, Procs, Keys int

	// Injection coverage.
	Crashes                           uint64 // ops the server saw crash mid-execution
	ThreadKills, ProcKills, NMPBursts int
	NMPFaults                         uint64 // mCAS faults actually fired
	CrashDiscards, LinesDropped       uint64 // adversarial persist resolutions

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
	CrashPoints map[string]uint64
}

// Ok reports whether all three correctness gates passed.
func (r *LiveReport) Ok() bool { return r.Verdict.Ok() && r.FalseTakeovers == 0 }

// liveRun is the shared runtime state of one online chaos run.
type liveRun struct {
	*podService

	cfg       LiveConfig
	inj       *crash.Injector
	faults    *chaos.Injector
	tracer    *telemetry.Tracer
	ownTracer bool
	stop      atomic.Bool // the injector's stop-issuing flag

	// Per-tid adversarial persist state, read by the heap's crash policy
	// from whichever goroutine marks the crash.
	persistSeed []atomic.Uint64
	crashSeq    []atomic.Uint64
}

// RunLive executes one online chaos run.
func RunLive(cfg LiveConfig) (*LiveReport, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}

	inj := crash.NewInjector()
	target, err := chaos.NewPodTarget(liveThreads, liveProcs, cfg.Keys, 64, 16, inj)
	if err != nil {
		return nil, err
	}
	pod := target.Pod
	r := &liveRun{
		cfg: cfg, inj: inj,
		podService: &podService{
			PodTarget: target,
			threads:   liveThreads, procs: liveProcs, keys: cfg.Keys, seed: cfg.Seed,
			full: true, orc: chaos.NewOracle(cfg.Keys),
		},
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

	// One issuer per slot, owning the keys congruent to it; uniform key
	// draws over the whole keyspace (reads) and the partition (writes).
	// Requests carry no deadline: the run gates crash safety, not latency.
	keysPer := cfg.Keys / liveThreads
	for i := 0; i < liveThreads; i++ {
		rng := xrand.New(xrand.Mix(cfg.Seed ^ uint64(i)*0xa076_1d64_78bd_642f))
		r.issuers = append(r.issuers, NewIssuer(nil, r.orc, &r.gates, 0, rng,
			func() int { return rng.Intn(cfg.Keys) },
			func() int { return rng.Intn(keysPer)*liveThreads + i }))
	}
	r.startServer()

	// Phase 1 — calibration: fault-free traffic under the infinite
	// lease, measuring the pod's wall tick rate; then, at a quiesce
	// barrier, retune the lease to the wall-clock target, renewing every
	// 4 ticks.
	var warmStop atomic.Bool
	warm := Lanes(r.issuers, liveLanes, &warmStop)
	tickHz := chaos.TickRate(r.clockNow, chaos.Calibrate)
	warmStop.Store(true)
	<-warm
	r.retune(cxlalloc.LivenessConfig{RenewInterval: 4, GraceMult: chaos.LeaseTicks(tickHz, cfg.LeaseWall) / 4, PollInterval: 4}, tickHz)

	// Phase 2 — live traffic with the injector.
	start := time.Now()
	lanes := Lanes(r.issuers, liveLanes, &r.stop)
	r.faults = &chaos.Injector{
		Seed: xrand.Mix(cfg.Seed ^ 0xfa117c0de), FaultRate: cfg.FaultRate,
		Duration: cfg.Duration, Replay: cfg.Replay,
		Clock: r.clockNow, Stop: &r.stop, Gates: &r.gates,
		Plan: r.plan, Apply: r.apply,
	}
	r.faults.Window(start)

	// Phase 3 — convergence: issuing has stopped; clear all fault
	// sources, then let the server's idle ticks drive the watchdog until
	// every slot is alive+leased and every lane has its last response —
	// a crashed write's comes once it is settled against ground truth.
	r.inj.Disarm()
	pod.Heap().NMP().ClearFaults()
	elapsed := time.Since(start)
	tally := EndWindow(&r.gates, chaos.ConvergeWait, lanes, r.srv.Stop, func() []string {
		return chaos.SlotsDown(pod.Heap(), liveThreads)
	})

	// Phase 4 — audit at quiescence.
	rep := r.report(tally, snap0, kept0, elapsed)
	if r.ownTracer {
		telemetry.Stop()
	}
	return rep, nil
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
func (r *liveRun) killProcessSafely(spec chaos.FaultSpec, out *chaos.FaultOutcome) {
	p := r.Procs[spec.Proc]
	deadline := time.Now().Add(chaos.KillWait)
	for round := 0; !p.Dead(); round++ {
		extra := chaos.OwnedLive(r.Pod, p, liveThreads)
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
		chaos.KillInOp(r.inj, spec.ArmProb, spec.ArmSeed+uint64(round+1), extra, r.Pod.Heap().Alive, deadline)
	}
}

// armPersist sets the victims' adversarial persist seed base, which the
// heap's crash policy reads when each of them dies.
func (r *liveRun) armPersist(spec chaos.FaultSpec, victims []int) {
	for _, v := range victims {
		r.persistSeed[v].Store(spec.PersistSeed + uint64(v)<<48)
	}
}

// plan draws fault i from the seeded stream. The first three faults are
// a fixed rotation — thread-kill, nmp-burst, proc-kill — so even a
// short run covers every fault class; afterwards the mix is random.
func (r *liveRun) plan(i int, rng *xrand.Rand) (chaos.FaultSpec, bool) {
	var kind chaos.FaultKind
	switch {
	case i == 0:
		kind = chaos.FaultThreadKill
	case i == 1:
		kind = chaos.FaultNMPBurst
	case i == 2:
		kind = chaos.FaultProcKill
	default:
		switch roll := rng.Intn(100); {
		case roll < 50:
			kind = chaos.FaultThreadKill
		case roll < 75:
			kind = chaos.FaultNMPBurst
		default:
			kind = chaos.FaultProcKill
		}
	}

	spec := chaos.FaultSpec{I: i, Kind: kind}
	switch kind {
	case chaos.FaultNMPBurst:
		if rng.Intn(2) == 0 {
			spec.NMPMode = "timeout"
		} else {
			spec.NMPMode = "unavailable"
		}
		spec.NMPCount = 8 + rng.Intn(57)
		return spec, true

	case chaos.FaultProcKill:
		// Eligible: a live process whose death leaves >= 2 live slots.
		alive := len(r.aliveTids())
		var cands []int
		for pi, p := range r.Procs {
			if p.Dead() {
				continue
			}
			if owned := chaos.OwnedLive(r.Pod, p, liveThreads); len(owned) > 0 && alive-len(owned) >= 2 {
				cands = append(cands, pi)
			}
		}
		if len(cands) == 0 {
			// Downgrade to a thread kill so the stream stays productive.
			return r.planThreadKill(i, rng)
		}
		spec.Proc = cands[rng.Intn(len(cands))]
		spec.Victims = chaos.OwnedLive(r.Pod, r.Procs[spec.Proc], liveThreads)
		spec.ArmProb = chaos.ArmProb
		spec.ArmSeed = rng.Uint64()
		spec.PersistSeed = rng.Uint64() | 1
		return spec, true

	default:
		return r.planThreadKill(i, rng)
	}
}

func (r *liveRun) planThreadKill(i int, rng *xrand.Rand) (chaos.FaultSpec, bool) {
	alive := r.aliveTids()
	if len(alive) < 3 {
		return chaos.FaultSpec{}, false // keep >= 2 survivors
	}
	v := alive[rng.Intn(len(alive))]
	return chaos.FaultSpec{
		I:           i,
		Kind:        chaos.FaultThreadKill,
		Victims:     []int{v},
		ArmProb:     chaos.ArmProb,
		ArmSeed:     rng.Uint64(),
		PersistSeed: rng.Uint64() | 1,
	}, true
}

// apply executes one spec. Kills arm the victims' random crash points
// and wait for the deaths to happen inside the victims' own operations;
// the injector itself never marks a running thread crashed.
func (r *liveRun) apply(spec chaos.FaultSpec) chaos.FaultOutcome {
	out := chaos.FaultOutcome{I: spec.I, Kind: spec.Kind}
	heap := r.Pod.Heap()
	switch spec.Kind {
	case chaos.FaultNMPBurst:
		mode := nmp.FaultUnavailable
		if spec.NMPMode == "timeout" {
			mode = nmp.FaultTimeout
		}
		heap.NMP().InjectFaults(nmp.FaultPlan{Mode: mode, Count: spec.NMPCount})
		return out

	case chaos.FaultThreadKill, chaos.FaultProcKill:
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
		out.Died = chaos.KillInOp(r.inj, spec.ArmProb, spec.ArmSeed, targets, heap.Alive, time.Now().Add(chaos.KillWait))
		if len(out.Died) < len(targets) {
			out.Note = "partial: not all victims died before deadline"
		}
		if spec.Kind == chaos.FaultProcKill && len(out.Died) == len(targets) {
			r.killProcessSafely(spec, &out)
		}
		return out
	}
	out.Note = "unknown fault kind"
	return out
}

// --- audit and reporting ---------------------------------------------

func (r *liveRun) report(t *Tally, snap0 telemetry.Snapshot, kept0 int, elapsed time.Duration) *LiveReport {
	cfg := r.cfg
	rep := &LiveReport{
		Report:  NewReport(cfg.Seed, elapsed, t, r.issuers, r.faults, r.audit()),
		Threads: liveThreads, Procs: liveProcs, Keys: cfg.Keys,
		Crashes: r.srv.Stats().WorkerCrashes,
	}

	// Injection coverage and watchdog tallies (delta over the run).
	for i, spec := range rep.Schedule {
		switch spec.Kind {
		case chaos.FaultThreadKill:
			rep.ThreadKills++
		case chaos.FaultProcKill:
			if rep.Outcomes[i].ProcKilled {
				rep.ProcKills++
			} else {
				rep.ThreadKills++ // armed but not escalated
			}
		case chaos.FaultNMPBurst:
			rep.NMPBursts++
		}
	}
	d := r.Pod.Snapshot().Delta(snap0)
	rep.NMPFaults = d.NMP.FaultsInjected
	rep.CrashDiscards, rep.LinesDropped = d.Chaos.CrashDiscards, d.Chaos.LinesDroppedAtCrash
	rep.Repairs, rep.Fenced, rep.FalseAlarms = d.Liveness.Repairs, d.Liveness.Fenced, d.Liveness.FalseAlarms
	rep.Rescues, rep.SelfFences = d.Liveness.Rescues, d.Liveness.SelfFences
	rep.FalseTakeovers = r.Pod.FalseTakeovers()
	rep.CrashPoints = r.inj.Fired()

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
		rep.MTTRP50, rep.MTTRP99, rep.MTTRMax = chaos.MTTR(durs)
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
			rep.Availability = max(0, 1-float64(covered)/float64(win))
		}
	} else {
		rep.Availability = 1
	}
	return rep
}

// FormatLiveReport renders a human-readable summary.
func FormatLiveReport(r *LiveReport) string {
	var b strings.Builder
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
	return r.Format(Lines{
		Head:    fmt.Sprintf("livechaos: %d threads / %d procs / %d keys", r.Threads, r.Procs, r.Keys),
		Traffic: fmt.Sprintf("%d acked writes (%d puts, %d deletes), %d gets, %d failed", r.Puts+r.Deletes, r.Puts, r.Deletes, r.Gets, r.Failed),
		Body:    b.String(),
		Gates:   fmt.Sprintf("%d invariant violations, %d lost acks, %d false takeovers", len(r.Violations), len(r.LostAcks), r.FalseTakeovers),
		Ok:      r.Ok(),
	})
}
