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
// server.Issuer; what is its own is the fabric as target, the fabric
// tick as clock, and plan/apply for the three fabric faults.

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cxlalloc"
	"cxlalloc/internal/chaos"
	"cxlalloc/internal/crash"
	"cxlalloc/internal/server"
	"cxlalloc/internal/telemetry"
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
	chaosCalibrate = 250 * time.Millisecond // fault-free warmup measuring the fabric tick rate
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
	Pods, Threads, Procs, Shards, Keys, Issuers int
	Seed                                        uint64
	Duration, Elapsed                           time.Duration
	Replayed                                    bool

	// Traffic.
	Ops, Acked, Failed, Crashed uint64
	Puts, Gets, Deletes         uint64
	Retries                     uint64 // client resubmissions (reroutes included)
	Throughput                  float64
	LatencyP50, LatencyP99      time.Duration

	// Injection coverage (faults that fully applied).
	PodKills, PodFences, MigInterrupts int

	// Fabric counters and recovery metrics.
	Fabric               Stats
	ThreadFalseTakeovers uint64 // intra-pod watchdog ground truth, summed
	MTTRCount            int
	MTTRP50, MTTRMax     time.Duration
	MTTRBound            time.Duration
	PendingAllocs        int

	// Schedule (record or replayed) and per-spec outcomes.
	Schedule []chaos.FaultSpec
	Outcomes []chaos.FaultOutcome
	ReplayOK bool

	// Gates.
	Violations []string
	LostAcks   []string
}

// Ok reports whether every correctness gate passed.
func (r *ChaosReport) Ok() bool {
	return len(r.Violations) == 0 && len(r.LostAcks) == 0 &&
		r.Fabric.FalseShardTakeovers == 0 && r.ThreadFalseTakeovers == 0 &&
		(r.MTTRCount == 0 || r.MTTRMax <= r.MTTRBound) &&
		(!r.Replayed || r.ReplayOK)
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

	issuers []*chaosIssuer
	stop    atomic.Bool

	tickRate float64 // fabric ticks per wall second, from calibration

	healWG sync.WaitGroup
}

// chaosIssuer is one client connection — the shared oracle-checked
// issuer over a single-writer key partition, driven by fcLanes
// closed-loop lanes through one retry-budgeted Client — and its traffic
// tally.
type chaosIssuer struct {
	*server.Issuer

	histMu sync.Mutex
	hist   *telemetry.Hist

	ops, acked, failed, crashed atomic.Uint64
	puts, gets, dels            atomic.Uint64
}

func (r *chaosRun) lane(is *chaosIssuer, wg *sync.WaitGroup) {
	defer wg.Done()
	req := server.NewRequest()
	for !r.stop.Load() {
		is.Prepare(req)
		fired := time.Now()
		resp := is.Client.Do(req)
		is.ops.Add(1)
		switch is.Finalize(req, resp) {
		case server.Acked:
			is.histMu.Lock()
			is.hist.Observe(resp.DoneWall.Sub(fired))
			is.histMu.Unlock()
			is.acked.Add(1)
			switch req.Op {
			case server.OpPut:
				is.puts.Add(1)
			case server.OpDelete:
				is.dels.Add(1)
			default:
				is.gets.Add(1)
			}
		case server.Crashed:
			is.crashed.Add(1)
		default:
			is.failed.Add(1)
		}
	}
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
		r.issuers = append(r.issuers, &chaosIssuer{
			Issuer: server.NewIssuer(server.NewClient(f, cfg.Seed^uint64(i)*0xa0761d6478bd642f),
				r.orc, &r.gates, chaosDeadline, rng,
				func() int { return rng.Intn(cfg.Keys) },
				func() int { return rng.Intn(keysPer)*cfg.Issuers + i }),
			hist: new(telemetry.Hist),
		})
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
	var wg sync.WaitGroup
	for _, is := range r.issuers {
		for l := 0; l < fcLanes; l++ {
			wg.Add(1)
			go r.lane(is, &wg)
		}
	}
	c0, t0 := f.Tick(), time.Now()
	time.Sleep(chaosCalibrate)
	c1, t1 := f.Tick(), time.Now()
	r.tickRate = float64(c1-c0) / t1.Sub(t0).Seconds()
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
	// routable owner, every crashed write settled.
	r.healWG.Wait()
	for i := 0; i < chaosPods; i++ {
		f.HealPod(i) // no-op unless a fence survived the window
	}
	wg.Wait()
	elapsed := time.Since(start)
	r.gates.Converge(chaos.ConvergeWait, func() (out []string) {
		if !f.Quiesced() {
			out = append(out, "fabric not quiesced")
		}
		var pends int64
		for i := 0; i < chaosPods; i++ {
			pends += f.Server(i).PendingCrashed()
		}
		if pends > 0 {
			out = append(out, fmt.Sprintf("%d crashed writes unsettled", pends))
		}
		return out
	})
	f.Stop()

	// Phase 4 — audit at quiescence.
	return r.audit(elapsed), nil
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
	out.Died = chaos.KillInOp(r.injs[i], spec.ArmProb, spec.ArmSeed, targets, heap.Alive, time.Now().Add(chaos.KillWait))
	if len(out.Died) < len(targets) {
		out.Note = "partial: not all victims died before deadline"
		return // pod stays dying; never KillProcess over a live slot
	}
	for p := range procs {
		if p == nil || p.Dead() {
			continue
		}
		owns := false
		for tid := 0; tid < chaosThreads; tid++ {
			if heap.Alive(tid) && pod.OwnerOf(tid) == p {
				owns = true
				break
			}
		}
		if owns {
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

func (r *chaosRun) audit(elapsed time.Duration) *ChaosReport {
	cfg := r.cfg
	rep := &ChaosReport{
		Pods: chaosPods, Threads: chaosThreads, Procs: chaosProcs,
		Shards: chaosShards, Keys: cfg.Keys, Issuers: cfg.Issuers,
		Seed: cfg.Seed, Duration: cfg.Duration, Elapsed: elapsed,
		Replayed:  cfg.Replay != nil,
		MTTRBound: chaosMTTRBound,
		Schedule:  r.faults.Schedule, Outcomes: r.faults.Outcomes,
	}

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
	for p := 0; p < chaosPods; p++ {
		rep.PendingAllocs += r.gates.Teardown(chaos.Target{
			Label: fmt.Sprintf("pod %d ", p),
			Heap:  r.f.Pod(p).Heap(), Store: r.f.Store(p),
			Keys: cfg.Keys, Tids: chaosThreads + 1, // the control slot too
			On:      func(fn func(tid int)) error { return r.f.AgentRun(p, fn) },
			Orphans: func() []cxlalloc.Ptr { return r.f.Orphans(p) },
		})
	}

	// Traffic counters.
	merged := new(telemetry.Hist)
	for _, is := range r.issuers {
		rep.Ops += is.ops.Load()
		rep.Acked += is.acked.Load()
		rep.Failed += is.failed.Load()
		rep.Crashed += is.crashed.Load()
		rep.Puts += is.puts.Load()
		rep.Gets += is.gets.Load()
		rep.Deletes += is.dels.Load()
		rep.Retries += is.Client.Retries()
		is.histMu.Lock()
		merged.Merge(is.hist)
		is.histMu.Unlock()
	}
	if elapsed > 0 {
		rep.Throughput = float64(rep.Ops) / elapsed.Seconds()
	}
	rep.LatencyP50 = time.Duration(merged.Quantile(0.50))
	rep.LatencyP99 = time.Duration(merged.Quantile(0.99))

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
	for _, v := range r.f.Violations() {
		r.gates.Violationf("fabric: %s", v)
	}
	mttrs := r.f.MTTRs()
	rep.MTTRCount = len(mttrs)
	if len(mttrs) > 0 {
		sort.Slice(mttrs, func(a, b int) bool { return mttrs[a] < mttrs[b] })
		rep.MTTRP50 = mttrs[len(mttrs)/2]
		rep.MTTRMax = mttrs[len(mttrs)-1]
		if rep.MTTRMax > chaosMTTRBound {
			r.gates.Violationf("failover MTTR %v exceeds bound %v", rep.MTTRMax, chaosMTTRBound)
		}
	}

	rep.ReplayOK = r.faults.ReplayOK()
	rep.Violations, rep.LostAcks = r.gates.Violations(), r.gates.LostAcks()
	return rep
}

// FormatChaosReport renders a human-readable summary.
func FormatChaosReport(r *ChaosReport) string {
	var b strings.Builder
	mode := "record"
	if r.Replayed {
		mode = "replay"
	}
	fmt.Fprintf(&b, "fabricchaos: %d pods x %d threads, %d shards, %d keys, %d issuers, seed %d, %v traffic (%s mode)\n",
		r.Pods, r.Threads, r.Shards, r.Keys, r.Issuers, r.Seed, r.Elapsed.Round(time.Millisecond), mode)
	fmt.Fprintf(&b, "  traffic:   %d ops (%.0f ops/s), %d acked (%d puts, %d deletes), %d gets, %d failed, %d crashed, %d retries\n",
		r.Ops, r.Throughput, r.Acked, r.Puts, r.Deletes, r.Gets, r.Failed, r.Crashed, r.Retries)
	fmt.Fprintf(&b, "  latency:   p50 %v  p99 %v\n", r.LatencyP50, r.LatencyP99)
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
	if r.Replayed {
		fmt.Fprintf(&b, "  replay:    schedule match = %v (%d faults)\n", r.ReplayOK, len(r.Schedule))
	}
	fmt.Fprintf(&b, "  gates:     %d violations, %d lost acks, %d false shard takeovers, %d thread false takeovers -> %s\n",
		len(r.Violations), len(r.LostAcks), r.Fabric.FalseShardTakeovers, r.ThreadFalseTakeovers,
		map[bool]string{true: "PASS", false: "FAIL"}[r.Ok()])
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "    violation: %s\n", v)
	}
	for _, v := range r.LostAcks {
		fmt.Fprintf(&b, "    lost-ack:  %s\n", v)
	}
	return b.String()
}
