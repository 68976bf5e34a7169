package server

import (
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
const sloTailGrace = 1 * time.Second // stop injecting this early

// RunSLOChaos executes the fault-injected run.
func RunSLOChaos(cfg SLOConfig) (*SLOReport, error) {
	// Phase 1 — capacity + clock calibration under the infinite lease.
	r, rep, err := openSLO(cfg, crash.NewInjector())
	if err != nil {
		return rep, err
	}
	cfg = r.cfg

	// Quiesce point: RetuneLiveness requires no thread inside Run, and
	// Server.Stop waiting out its workers is exactly that barrier. The
	// fault phase then runs a fresh server over the same pod and store,
	// with the lease retuned from ticks-per-wall-second so expiry-based
	// takeover lands near the configured wall target.
	r.srv.Stop()
	// Renew at a sixth of the lease (the package default's grace ratio),
	// not every few ticks: an mCAS per renewal is only worth paying as
	// often as the lease in force needs it.
	r.Pod.RetuneLiveness(cxlalloc.LivenessConfig{RenewInterval: chaos.LeaseTicks(rep.TickRate, cfg.LeaseWall) / 6, GraceMult: 6, PollInterval: 4})
	chaos.SettleRound(r.Pod, cfg.Threads)
	r.startServer()
	r.srv.SetTickRate(rep.TickRate)

	// Phase 2 — open loop at 2x capacity with group kills in parallel.
	window := 2 * cfg.Window
	s0, r0 := r.srv.Stats(), r.retriesNow()
	injDone := make(chan struct{})
	go func() {
		defer close(injDone)
		r.injectFaults(rep, window)
	}()
	t, elapsed := r.openLoop(2*rep.Capacity, window, 0xc4a05)
	<-injDone
	p := r.summarize(2, 2*rep.Capacity, t, elapsed, s0, r0)
	rep.ChaosPoint = &p

	// Phase 3 — convergence: traffic has drained; the workers' idle
	// ticks keep the watchdog advancing until every slot is repaired.
	r.gates.Converge(chaos.ConvergeWait, func() []string {
		return chaos.SlotsDown(r.Pod.Heap(), cfg.Threads)
	})

	rep.FalseTakeovers = r.Pod.FalseTakeovers()
	r.audit(rep)
	return rep, nil
}

// injectFaults kills one whole process group roughly every FaultEvery:
// every live tid of the group is armed and dies inside its own op, so
// the group goes fully dark and the breaker must open. The first fault
// escalates to a process kill once the group owns no live slot. Groups
// are skipped when killing them would leave fewer than 2 live slots
// pod-wide (someone has to run the watchdog).
func (r *sloRun) injectFaults(rep *SLOReport, window time.Duration) {
	cfg := r.cfg
	heap := r.Pod.Heap()
	grace := sloTailGrace
	if grace > window/4 {
		grace = window / 4
	}
	stop := time.Now().Add(window - grace)
	for i := 0; time.Now().Before(stop); i++ {
		time.Sleep(cfg.FaultEvery)
		if !time.Now().Before(stop) {
			return
		}
		g := i % cfg.Procs
		var targets []int
		alive := 0
		for tid := 0; tid < cfg.Threads; tid++ {
			if !heap.Alive(tid) {
				continue
			}
			alive++
			if tid%cfg.Procs == g {
				targets = append(targets, tid)
			}
		}
		if len(targets) == 0 || alive-len(targets) < 2 {
			continue
		}
		// Give up on a victim at the kill deadline or the end of the
		// window, whichever comes first.
		deadline := time.Now().Add(chaos.KillWait)
		if end := stop.Add(grace); end.Before(deadline) {
			deadline = end
		}
		died := chaos.KillInOp(r.inj, chaos.ArmProb, xrand.Mix(cfg.Seed)^xrand.Mix(uint64(i)+0xfa11), targets, heap.Alive, deadline)
		rep.Kills += len(died)
		if i == 0 && len(died) == len(targets) {
			// Escalate to a process kill, livechaos-style: only once the
			// process owns no live slot (adoption may have rebound repaired
			// slots into it — if so, leave it be; the thread kills alone
			// already opened the breaker).
			p := r.Procs[g]
			owned := 0
			for tid := 0; tid < cfg.Threads; tid++ {
				if heap.Alive(tid) && r.Pod.OwnerOf(tid) == p {
					owned++
				}
			}
			if !p.Dead() && owned == 0 {
				r.Pod.KillProcess(p)
				rep.ProcKills++
			}
		}
	}
}
