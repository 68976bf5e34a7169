package server

import (
	"sync/atomic"
	"time"

	"cxlalloc"
	"cxlalloc/internal/chaos"
	"cxlalloc/internal/crash"
	"cxlalloc/internal/xrand"
)

// RunSLOChaos is the resilience half of the slo experiment: the same
// service and oracle-tracked traffic, run at 2x measured capacity while
// whole process groups are killed out from under it. Kills follow the
// livechaos crash model — victims are armed and die inside their own
// operations, never marked crashed out of band — and recovery is
// watchdog-only: the harness never repairs anything, it only checks
// that the breaker opened (requests re-routed to live processes instead
// of queueing behind the ~lease-length repair), that every acked write
// survived, and that the heap ledger audits back to empty.
func RunSLOChaos(cfg SLOConfig) (*SLOReport, error) {
	// Phase 1 — capacity + clock calibration under the infinite lease.
	r, rep, err := openSLO(cfg, crash.NewInjector())
	if err != nil {
		return rep, err
	}
	cfg = r.cfg

	// The fault phase runs on a fresh server under the lease retuned to
	// the wall target. Renew at a sixth of the lease (the package
	// default's grace ratio), not every few ticks: an mCAS per renewal is
	// only worth paying as often as the lease in force needs it.
	r.retune(cxlalloc.LivenessConfig{RenewInterval: chaos.LeaseTicks(rep.TickRate, cfg.LeaseWall) / 6, GraceMult: 6, PollInterval: 4}, rep.TickRate)

	// Phase 2 — open loop at 2x capacity with group kills in parallel,
	// one every FaultEvery on average.
	window := 2 * cfg.Window
	s0, r0 := r.srv.Stats(), r.retriesNow()
	start := time.Now()
	p := SLOPoint{Mult: 2, TargetRate: 2 * rep.Capacity}
	lanes := r.openLoop(&p, window, 0xc4a05)
	var stop atomic.Bool
	faults := &chaos.Injector{
		Seed: xrand.Mix(cfg.Seed ^ 0x5105fa11), FaultRate: float64(time.Second) / float64(cfg.FaultEvery),
		Duration: window, Clock: r.clockNow, Stop: &stop, Gates: &r.gates,
		Plan: r.plan,
		Apply: func(spec chaos.FaultSpec) chaos.FaultOutcome {
			return r.apply(spec, start.Add(window))
		},
	}
	faults.Window(start)

	// Phase 3 — convergence: the pacers have stopped; the workers' idle
	// ticks keep the watchdog advancing until every slot is repaired and
	// every lane has its last response.
	t := EndWindow(&r.gates, chaos.ConvergeWait, lanes, r.srv.Stop, func() []string {
		return chaos.SlotsDown(r.Pod.Heap(), cfg.Threads)
	})
	r.summarize(&p, t, s0, r0)
	rep.ChaosPoint = &p
	rep.Schedule, rep.Outcomes = faults.Schedule, faults.Outcomes
	for _, out := range faults.Outcomes {
		rep.Kills += len(out.Died)
		if out.ProcKilled {
			rep.ProcKills++
		}
	}
	rep.FalseTakeovers = r.Pod.FalseTakeovers()
	r.report(rep)
	return rep, nil
}

// plan draws group kill i: every live tid of one process group, so the
// group goes fully dark and the breaker must open. Fault i takes the
// first group, from i%Procs on, whose kill leaves at least 2 live slots
// pod-wide (someone has to run the watchdog). Fault 0 is a process kill.
func (r *sloRun) plan(i int, rng *xrand.Rand) (chaos.FaultSpec, bool) {
	heap := r.Pod.Heap()
	alive := 0
	for tid := 0; tid < r.cfg.Threads; tid++ {
		if heap.Alive(tid) {
			alive++
		}
	}
	for k := 0; k < r.cfg.Procs; k++ {
		g := (i + k) % r.cfg.Procs
		var targets []int
		for tid := g; tid < r.cfg.Threads; tid += r.cfg.Procs {
			if heap.Alive(tid) {
				targets = append(targets, tid)
			}
		}
		if len(targets) == 0 || alive-len(targets) < 2 {
			continue
		}
		spec := chaos.FaultSpec{I: i, Kind: chaos.FaultThreadKill, Victims: targets, ArmProb: chaos.ArmProb, ArmSeed: rng.Uint64()}
		if i == 0 {
			spec.Kind, spec.Proc = chaos.FaultProcKill, g
		}
		return spec, true
	}
	return chaos.FaultSpec{}, false
}

// apply kills spec's victims in their own ops, giving up at the kill
// deadline or end, whichever comes first. A process kill escalates,
// livechaos-style, only once the process owns no live slot: adoption may
// have rebound repaired slots into it, and if so it is left be — the
// thread kills alone already opened the breaker.
func (r *sloRun) apply(spec chaos.FaultSpec, end time.Time) chaos.FaultOutcome {
	out := chaos.FaultOutcome{I: spec.I, Kind: spec.Kind}
	deadline := time.Now().Add(chaos.KillWait)
	if end.Before(deadline) {
		deadline = end
	}
	out.Died = chaos.KillInOp(r.inj, spec.ArmProb, spec.ArmSeed, spec.Victims, r.Pod.Heap().Alive, deadline)
	if len(out.Died) < len(spec.Victims) {
		out.Note = "partial: not all victims died before deadline"
		return out
	}
	if p := r.Procs[spec.Proc]; spec.Kind == chaos.FaultProcKill && !p.Dead() && len(chaos.OwnedLive(r.Pod, p, r.cfg.Threads)) == 0 {
		r.Pod.KillProcess(p)
		out.ProcKilled = true
	}
	return out
}
