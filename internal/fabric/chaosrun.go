package fabric

// The fabricchaos experiment: live closed-loop traffic through the
// fabric router while a seeded injector kills whole pods, fences pods
// off, and crashes migrators mid-handoff. Recovery is monitor-only —
// the harness never moves a shard or rescues a slot itself. Gates: no
// acked write lost (fabric-wide oracle), no invariant violation on any
// surviving pod, zero false shard takeovers, bounded failover MTTR,
// and bit-for-bit schedule reproduction under -replay.
//
// Crash persistence stays at the default PersistAll: the adversarial
// persist-subset drop is livechaos's subject (single-pod recovery);
// here the adversary is placement — which pod is dark, which handoff
// was interrupted where — and PersistAll keeps the two experiments'
// failure surfaces disjoint.
//
// The harness lives in package fabric (not chaos) because the import
// DAG runs fabric -> server -> chaos. It is a client of the harness
// kernel (chaos/kernel.go: gates, injector, kill-in-op, audit) and of
// server.Issuer and its closed-loop server.Lanes; what is its own is the
// fabric as target, the fabric tick as clock, and plan/apply for the
// three fabric faults.

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cxlalloc"
	"cxlalloc/internal/chaos"
	"cxlalloc/internal/crash"
	"cxlalloc/internal/server"
	"cxlalloc/internal/xrand"
)

// ChaosConfig parameterizes one fabricchaos run. Start from
// DefaultChaosConfig.
type ChaosConfig struct {
	Keys    int
	Issuers int // client connections (single-writer key partitions)
	Seed    uint64

	// Duration is the live-traffic window (injection stops a little
	// earlier so the last failover lands inside the window).
	Duration time.Duration
	// FaultRate is the mean injections per second in record mode.
	FaultRate float64
	// Replay, when non-nil, executes this schedule verbatim instead of
	// drawing faults; the run ends when the schedule is exhausted.
	Replay []chaos.FaultSpec

	DarkGrace time.Duration // fabric monitor: heartbeat stall before dark
	MigStall  time.Duration // fabric monitor: claim age before retake
}

// The fabric every fabricchaos run drives: a pod kill must leave >= 2
// survivors, so three pods.
const (
	chaosPods    = 3
	chaosThreads = 4
	chaosProcs   = 2
	chaosShards  = 16

	chaosDeadline  = 50 * time.Millisecond  // per-request budget
	chaosFenceWall = 600 * time.Millisecond // wall-clock target a pod-fence stays up (converted to HealTicks)
	chaosMTTRBound = 10 * time.Second       // gate: max acceptable failover MTTR
)

// DefaultChaosConfig sizes a run for the CLI default: ~7 faults over
// 10s across 3 pods.
func DefaultChaosConfig() ChaosConfig {
	return ChaosConfig{
		Keys:      384,
		Issuers:   6,
		Seed:      2026,
		Duration:  10 * time.Second,
		FaultRate: 0.8,
		DarkGrace: 250 * time.Millisecond,
		MigStall:  100 * time.Millisecond,
	}
}

func (c ChaosConfig) validate() error {
	if c.Issuers < 1 || c.Keys < 2*c.Issuers {
		return fmt.Errorf("fabric: fabricchaos needs Issuers >= 1 and Keys >= 2*Issuers (got %d/%d)", c.Keys, c.Issuers)
	}
	if c.Duration <= 0 || c.FaultRate <= 0 {
		return fmt.Errorf("fabric: fabricchaos needs a positive Duration and FaultRate (got %v/%g)", c.Duration, c.FaultRate)
	}
	return nil
}

// ChaosReport is one fabricchaos run's full outcome.
type ChaosReport struct {
	server.Report
	Pods, Threads, Procs, Shards, Keys, Issuers int

	Retries uint64 // client resubmissions (reroutes included)

	// Injection coverage (faults that fully applied).
	PodKills, PodFences, MigInterrupts int

	// Fabric counters and recovery metrics.
	Fabric               Stats
	ThreadFalseTakeovers uint64 // intra-pod watchdog ground truth, summed
	MTTRCount            int
	MTTRP50, MTTRMax     time.Duration
	MTTRBound            time.Duration
}

// Ok reports whether every correctness gate passed. An MTTR past its
// bound is a violation.
func (r *ChaosReport) Ok() bool {
	return r.Verdict.Ok() && r.Fabric.FalseShardTakeovers == 0 && r.ThreadFalseTakeovers == 0
}

const fcLanes = 4 // connection lanes per issuer

// chaosRun is the shared runtime state of one fabricchaos run.
type chaosRun struct {
	cfg    ChaosConfig
	f      *Fabric
	injs   []*crash.Injector
	orc    *chaos.Oracle
	gates  chaos.Gates
	faults *chaos.Injector

	// Client connections: each an oracle-checked issuer over a
	// single-writer key partition, driven by fcLanes closed-loop lanes
	// through one retry-budgeted Client.
	issuers []*server.Issuer
	stop    atomic.Bool

	tickRate float64 // fabric ticks per wall second, from calibration

	healWG sync.WaitGroup
	dying  [chaosPods]bool // pods a kill marked dying; written by apply only
}

// RunChaos executes one fabricchaos run.
func RunChaos(cfg ChaosConfig) (*ChaosReport, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	injs := make([]*crash.Injector, chaosPods)
	for i := range injs {
		injs[i] = crash.NewInjector()
	}
	f, err := New(Config{
		Pods: chaosPods, Threads: chaosThreads, Procs: chaosProcs, Shards: chaosShards,
		Seed: cfg.Seed, DarkGrace: cfg.DarkGrace, MigStall: cfg.MigStall,
		DecodeVer: chaos.DecodeVal, Injectors: injs,
	})
	if err != nil {
		return nil, err
	}
	r := &chaosRun{cfg: cfg, f: f, injs: injs, orc: chaos.NewOracle(cfg.Keys)}
	defer f.Stop()

	// Uniform keys: reads over the whole keyspace, writes over the
	// issuer's own partition (keys congruent to its id).
	keysPer := cfg.Keys / cfg.Issuers
	for i := 0; i < cfg.Issuers; i++ {
		rng := xrand.New(xrand.Mix(cfg.Seed) ^ xrand.Mix(uint64(i)+0xfab))
		r.issuers = append(r.issuers, server.NewIssuer(server.NewClient(f, cfg.Seed^uint64(i)*0xa0761d6478bd642f),
			r.orc, &r.gates, chaosDeadline, rng,
			func() int { return rng.Intn(cfg.Keys) },
			func() int { return rng.Intn(keysPer)*cfg.Issuers + i }))
	}
	// Half the keyspace goes in through the router first, so every shard
	// starts with data on its placed owner.
	if err := server.Preload(f, r.orc, cfg.Keys/2, cfg.Seed^0x9a7e); err != nil {
		return nil, err
	}

	// Phase 1 — traffic starts, and a fault-free warmup measures the
	// fabric tick rate (pod-fence heal times are denominated in fabric
	// ticks so replay paces on the same logical timeline).
	start := time.Now()
	lanes := server.Lanes(r.issuers, fcLanes, &r.stop)
	r.tickRate = chaos.TickRate(f.Tick, chaos.Calibrate)
	if r.tickRate <= 0 {
		r.gates.Violationf("calibration: fabric clock did not advance under traffic")
	}

	// Phase 2 — injection.
	r.faults = &chaos.Injector{
		Seed: xrand.Mix(cfg.Seed ^ 0xfab81cc0de), FaultRate: cfg.FaultRate,
		Duration: cfg.Duration, Replay: cfg.Replay,
		Clock: f.Tick, Stop: &r.stop, Gates: &r.gates,
		Plan: r.plan, Apply: r.apply,
	}
	r.faults.Window(start)

	// Phase 3 — convergence: issuing has stopped; let scheduled heals
	// land (then force any stragglers), and wait for the fabric to
	// quiesce — no handoff in flight, every shard serving from a
	// routable owner, every crashed write settled, every lane answered.
	r.healWG.Wait()
	for i := 0; i < chaosPods; i++ {
		f.HealPod(i) // no-op unless a fence survived the window
	}
	elapsed := time.Since(start)
	tally := server.EndWindow(&r.gates, chaos.ConvergeWait, lanes, f.Stop, r.outstanding)

	// Phase 4 — audit at quiescence.
	return r.audit(tally, elapsed), nil
}

// outstanding is the convergence complaint list. A pod a kill left dying
// but not dark (a victim that never died in its own op, nothing
// repairing its dead slots, its live ones keeping its clock moving) is
// named with its slots: its lanes' crashed writes wait on it.
func (r *chaosRun) outstanding() (out []string) {
	f := r.f
	if !f.Quiesced() {
		out = append(out, "fabric not quiesced")
	}
	var pends int64
	for i := 0; i < chaosPods; i++ {
		pends += f.Server(i).PendingCrashed()
		if r.dying[i] && !f.Decommissioned(i) {
			var dead, live []int
			for tid := 0; tid < chaosThreads; tid++ {
				if f.Pod(i).Heap().Alive(tid) {
					live = append(live, tid)
				} else {
					dead = append(dead, tid)
				}
			}
			out = append(out, fmt.Sprintf("pod %d dying but not dark (slots %v dead, %v live)", i, dead, live))
		}
	}
	if pends > 0 {
		out = append(out, fmt.Sprintf("%d crashed writes unsettled", pends))
	}
	return out
}

// --- injector --------------------------------------------------------

func (r *chaosRun) healthyPods() []int {
	var out []int
	for p := 0; p < chaosPods; p++ {
		if r.f.Endpoint(p) {
			out = append(out, p)
		}
	}
	return out
}

// plan draws fault i from the seeded stream. The first three faults
// are a fixed rotation — mig-interrupt, pod-kill, pod-fence — so even
// a short run covers every fault class; afterwards the mix is random.
// Ineligible kinds downgrade to mig-interrupt so the stream stays
// productive.
func (r *chaosRun) plan(i int, rng *xrand.Rand) (chaos.FaultSpec, bool) {
	var kind chaos.FaultKind
	switch {
	case i == 0:
		kind = chaos.FaultMigInterrupt
	case i == 1:
		kind = chaos.FaultPodKill
	case i == 2:
		kind = chaos.FaultPodFence
	default:
		switch roll := rng.Intn(100); {
		case roll < 45:
			kind = chaos.FaultMigInterrupt
		case roll < 75:
			kind = chaos.FaultPodFence
		default:
			kind = chaos.FaultPodKill
		}
	}

	switch kind {
	case chaos.FaultPodKill:
		// Eligible: a healthy pod whose death leaves >= 2 healthy pods.
		cands := r.healthyPods()
		if len(cands) < 3 {
			return r.planMigInterrupt(i, rng)
		}
		pod := cands[rng.Intn(len(cands))]
		spec := chaos.FaultSpec{
			I: i, Kind: kind, Pod: pod,
			ArmProb: chaos.ArmProb, ArmSeed: rng.Uint64(),
		}
		heap := r.f.Pod(pod).Heap()
		for tid := 0; tid < chaosThreads; tid++ {
			if heap.Alive(tid) {
				spec.Victims = append(spec.Victims, tid)
			}
		}
		if len(spec.Victims) == 0 {
			return r.planMigInterrupt(i, rng)
		}
		return spec, true

	case chaos.FaultPodFence:
		// Keep >= 2 unfenced pods so kills stay plannable and darked
		// shards always have a failover target.
		cands := r.healthyPods()
		if len(cands) < 3 {
			return r.planMigInterrupt(i, rng)
		}
		ht := uint64(r.tickRate * chaosFenceWall.Seconds())
		if ht < 1 {
			ht = 1
		}
		return chaos.FaultSpec{I: i, Kind: kind, Pod: cands[rng.Intn(len(cands))], HealTicks: ht}, true

	default:
		return r.planMigInterrupt(i, rng)
	}
}

func (r *chaosRun) planMigInterrupt(i int, rng *xrand.Rand) (chaos.FaultSpec, bool) {
	var shards []int
	for s := 0; s < chaosShards; s++ {
		owner, _, frozen, claimed := r.f.ShardState(s)
		if !frozen && !claimed && r.f.Endpoint(owner) {
			shards = append(shards, s)
		}
	}
	if len(shards) == 0 {
		return chaos.FaultSpec{}, false
	}
	s := shards[rng.Intn(len(shards))]
	owner, _, _, _ := r.f.ShardState(s)
	var targets []int
	for p := 0; p < chaosPods; p++ {
		if p != owner && r.f.Endpoint(p) {
			targets = append(targets, p)
		}
	}
	if len(targets) == 0 {
		return chaos.FaultSpec{}, false
	}
	return chaos.FaultSpec{
		I: i, Kind: chaos.FaultMigInterrupt, Shard: s,
		TargetPod: targets[rng.Intn(len(targets))],
		Step:      MigrationSteps[rng.Intn(len(MigrationSteps))],
	}, true
}

// apply executes one spec, re-checking eligibility (replay drift: the
// fabric may be in a different transient state than when the spec was
// recorded). Skips are outcomes, not plan changes — the schedule stays
// byte-identical.
func (r *chaosRun) apply(spec chaos.FaultSpec) chaos.FaultOutcome {
	out := chaos.FaultOutcome{I: spec.I, Kind: spec.Kind}
	switch spec.Kind {
	case chaos.FaultPodKill:
		r.applyPodKill(spec, &out)
	case chaos.FaultPodFence:
		r.applyPodFence(spec, &out)
	case chaos.FaultMigInterrupt:
		// Migrate interrupts itself after spec.Step: the "migrator dies"
		// with the claim held and the shard frozen; the monitor's
		// stalled-claim sweep must re-drive the handoff.
		if err := r.f.Migrate(spec.Shard, spec.TargetPod, spec.Step); err != nil {
			out.Note = err.Error()
		}
	default:
		out.Note = "unknown fault kind"
	}
	return out
}

func (r *chaosRun) applyPodFence(spec chaos.FaultSpec, out *chaos.FaultOutcome) {
	if !r.f.Endpoint(spec.Pod) {
		out.Note = "skipped: pod not serving"
		return
	}
	r.f.FencePod(spec.Pod)
	r.healWG.Add(1)
	go func() {
		defer r.healWG.Done()
		r.faults.WaitTick(spec.AtTick + spec.HealTicks)
		r.f.HealPod(spec.Pod)
	}()
}

// applyPodKill kills a whole pod under the crash model: mark it dying
// (the dark declaration is now expected, not a false takeover), arm
// every serving thread's random crash points and wait for each to die
// inside its own op, then kill the worker processes (which own no live
// slot anymore) and the control process (agent quiesced under its
// lock). The pod's heartbeat plane stalls; the monitor must do the
// rest.
func (r *chaosRun) applyPodKill(spec chaos.FaultSpec, out *chaos.FaultOutcome) {
	i := spec.Pod
	if !r.f.Endpoint(i) || len(r.healthyPods()) < 3 {
		out.Note = "skipped: pod not serving or too few survivors"
		return
	}
	pod := r.f.Pod(i)
	heap := pod.Heap()
	procs := make(map[*cxlalloc.Process]bool)
	var targets []int
	for _, v := range spec.Victims {
		if v >= 0 && v < chaosThreads && heap.Alive(v) {
			targets = append(targets, v)
			procs[pod.OwnerOf(v)] = true
		}
	}
	r.f.MarkDying(i)
	r.dying[i] = true
	out.Died = chaos.KillInOp(r.injs[i], spec.ArmProb, spec.ArmSeed, targets, heap.Alive, time.Now().Add(chaos.KillWait))
	if len(out.Died) < len(targets) {
		out.Note = "partial: not all victims died before deadline"
		return // pod stays dying; never KillProcess over a live slot
	}
	for p := range procs {
		if p == nil || p.Dead() {
			continue
		}
		if len(chaos.OwnedLive(pod, p, chaosThreads)) > 0 {
			out.Note = "partial: process still owns live slots"
			continue
		}
		pod.KillProcess(p)
	}
	// Control process: the agent lock guarantees no Run is in flight, so
	// the out-of-band kill never marks a running thread crashed.
	r.f.AgentQuiesce(i, func() {
		if heap.Alive(r.f.AgentTid()) {
			if cp := pod.OwnerOf(r.f.AgentTid()); cp != nil && !cp.Dead() {
				pod.KillProcess(cp)
			}
		}
	})
	out.ProcKilled = out.Note == ""
}

// --- audit and reporting ---------------------------------------------

func (r *chaosRun) audit(t *server.Tally, elapsed time.Duration) *ChaosReport {
	cfg := r.cfg

	// Final oracle sweep: every key read from its current owner pod's
	// control thread, at quiescence, and byte-validated by the codec.
	byPod := make([][]int, chaosPods)
	var keyb []byte
	for k := 0; k < cfg.Keys; k++ {
		keyb = chaos.KeyBytes(keyb, k)
		owner, _ := r.f.Owner(r.f.ShardOfKey(keyb))
		byPod[owner] = append(byPod[owner], k)
	}
	for p, keys := range byPod {
		if len(keys) == 0 {
			continue
		}
		if err := r.f.AgentRun(p, func(tid int) {
			r.orc.FinalSweep(&r.gates, keys, fmt.Sprintf(" on pod %d", p), func(key, buf []byte) ([]byte, bool) {
				return r.f.Store(p).Get(tid, key, buf)
			})
		}); err != nil {
			r.gates.Violationf("final sweep: pod %d agent: %v", p, err)
		}
	}

	// Teardown: delete every key from every pod's store (a stray copy a
	// drain missed is a leak the ledger audit would catch anyway — but
	// deleting from all pods makes the audit's verdict about bytes, not
	// placement), free adopted orphans, and audit each heap to empty.
	// Decommissioned pods audit too: their memory outlived them.
	pending := 0
	for p := 0; p < chaosPods; p++ {
		pending += r.gates.Teardown(chaos.Target{
			Label: fmt.Sprintf("pod %d ", p),
			Heap:  r.f.Pod(p).Heap(), Store: r.f.Store(p),
			Keys: cfg.Keys, Tids: chaosThreads + 1, // the control slot too
			On:      func(fn func(tid int)) error { return r.f.AgentRun(p, fn) },
			Orphans: func() []cxlalloc.Ptr { return r.f.Orphans(p) },
		})
	}

	// The fabric's own invariants and the failover bound are violations.
	for _, v := range r.f.Violations() {
		r.gates.Violationf("fabric: %s", v)
	}
	rep := &ChaosReport{
		Pods: chaosPods, Threads: chaosThreads, Procs: chaosProcs,
		Shards: chaosShards, Keys: cfg.Keys, Issuers: cfg.Issuers,
		MTTRBound: chaosMTTRBound,
	}
	mttrs := r.f.MTTRs()
	rep.MTTRCount = len(mttrs)
	rep.MTTRP50, _, rep.MTTRMax = chaos.MTTR(mttrs)
	if rep.MTTRMax > chaosMTTRBound {
		r.gates.Violationf("failover MTTR %v exceeds bound %v", rep.MTTRMax, chaosMTTRBound)
	}
	rep.Report = server.NewReport(cfg.Seed, elapsed, t, r.issuers, r.faults, pending)

	for _, is := range r.issuers {
		rep.Retries += is.Client.Retries()
	}
	// Injection coverage: a fault counts only when it fully applied.
	for i, spec := range rep.Schedule {
		switch spec.Kind {
		case chaos.FaultPodKill:
			if rep.Outcomes[i].ProcKilled {
				rep.PodKills++
			}
		case chaos.FaultPodFence:
			if rep.Outcomes[i].Note == "" {
				rep.PodFences++
			}
		case chaos.FaultMigInterrupt:
			if rep.Outcomes[i].Note == "" {
				rep.MigInterrupts++
			}
		}
	}
	rep.Fabric = r.f.Stats()
	rep.ThreadFalseTakeovers = r.f.FalseTakeovers()
	return rep
}

// FormatChaosReport renders a human-readable summary.
func FormatChaosReport(r *ChaosReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "  injected:  %d pod kills, %d pod fences, %d mig interrupts (%d faults scheduled)\n",
		r.PodKills, r.PodFences, r.MigInterrupts, len(r.Schedule))
	s := r.Fabric
	fmt.Fprintf(&b, "  fabric:    %d darks, %d fences, %d heals, %d failovers; migrations %d started, %d flipped, %d retaken, %d interrupted, %d aborted; %d router rejects\n",
		s.PodDarks, s.PodFences, s.PodHeals, s.Failovers, s.MigStarts, s.MigFlips, s.MigRetakes, s.MigInterrupts, s.MigAborts, s.RouterRejects)
	fmt.Fprintf(&b, "  failover:  %d MTTR spans, p50 %v  max %v (bound %v)\n",
		r.MTTRCount, r.MTTRP50.Round(time.Millisecond), r.MTTRMax.Round(time.Millisecond), r.MTTRBound)
	if r.PendingAllocs > 0 {
		fmt.Fprintf(&b, "  pending allocs adopted from rescues: %d\n", r.PendingAllocs)
	}
	return r.Format(server.Lines{
		Head: fmt.Sprintf("fabricchaos: %d pods x %d threads, %d shards, %d keys, %d issuers",
			r.Pods, r.Threads, r.Shards, r.Keys, r.Issuers),
		Traffic: fmt.Sprintf("%d acked (%d puts, %d deletes), %d gets, %d failed, %d crashed, %d retries",
			r.Acked, r.Puts, r.Deletes, r.Gets, r.Failed, r.Crashed, r.Retries),
		Body: b.String(),
		Gates: fmt.Sprintf("%d violations, %d lost acks, %d false shard takeovers, %d thread false takeovers",
			len(r.Violations), len(r.LostAcks), r.Fabric.FalseShardTakeovers, r.ThreadFalseTakeovers),
		Ok: r.Ok(),
	})
}
