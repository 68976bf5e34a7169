// Package chaos is the pod-wide fault-injection harness behind the
// paper's safety claim (§3.4, §5.1): any thread or any whole process may
// die at any instrumented point — including inside recovery itself — and
// the rest of the pod keeps allocating while non-blocking recovery
// converges; a faulting NMP unit degrades service instead of hanging it.
//
// The harness is systematic, not sampled. Sweep first runs a profiling
// pass that discovers every crash point the workload visits (the
// injector's coverage counters), then replays the same deterministic
// workload once per point × failure mode with that point armed for every
// thread. Determinism guarantees the armed point fires at the same
// sequence position profiling saw it, so a point that never fires is a
// coverage failure, not bad luck. After each crash the harness proves
// the §3.4.1 non-blocking property (survivors keep allocating), recovers
// (thread recovery or whole-process kill/restart), runs the full
// invariant check, and drives the workload to completion with a leak
// audit at the end.
package chaos

import (
	"errors"
	"fmt"
	"strings"

	"cxlalloc"
	"cxlalloc/internal/atomicx"
	"cxlalloc/internal/core"
	"cxlalloc/internal/crash"
	"cxlalloc/internal/memsim"
	"cxlalloc/internal/nmp"
	"cxlalloc/internal/telemetry"
	"cxlalloc/internal/xrand"
)

// Mode is a failure mode the sweep applies at each crash point.
type Mode string

const (
	// ModeThreadCrash kills only the thread that hits the armed point;
	// its slot is recovered into its surviving process.
	ModeThreadCrash Mode = "thread-crash"
	// ModeProcessCrash escalates the crash to whole-process death: every
	// thread of the victim's process is killed, its mappings discarded,
	// and the process restarted into a fresh address space.
	ModeProcessCrash Mode = "process-crash"
)

// Script is the canonical workload's shape, shared by the chaos and
// persist sweeps.
type Script struct {
	Threads int    // simulated threads, round-robin across Procs processes
	Procs   int    // simulated processes (>= 2 so process death has survivors)
	Ops     int    // workload steps in the main phase
	Seed    uint64 // workload RNG seed: rerun with it to replay verbatim
}

// defaultScript is sized for CI: small enough to run every point × mode
// in seconds, large enough to visit every instrumented point (slab
// fill/spill, steal, huge alloc/free/reclaim, cross-process faults and
// hazards, and recovery itself).
var defaultScript = Script{Threads: 4, Procs: 2, Ops: 600, Seed: 2026}

func (s *Script) validate() error {
	if s.Threads < 2 || s.Procs < 2 || s.Threads < s.Procs {
		return fmt.Errorf("chaos: need Threads >= Procs >= 2, got %d/%d", s.Threads, s.Procs)
	}
	if s.Ops < 50 {
		return fmt.Errorf("chaos: Ops %d too small to reach the slab transition points", s.Ops)
	}
	return nil
}

// Config parameterizes a sweep.
type Config struct {
	Script
	Modes []Mode // nil = both modes

	// AutoRecover runs the sweep on a self-healing pod: the harness makes
	// NO Recover/Restart calls at all — after every crash (including
	// crashes injected inside recovery and inside the claim protocol) it
	// only keeps running live threads until the watchdog has converged the
	// pod back to fully alive. The sweep additionally covers the liveness
	// crash points and requires them visited.
	AutoRecover bool
}

// DefaultConfig returns a sweep sized for CI.
func DefaultConfig() Config { return Config{Script: defaultScript} }

func (c *Config) modes() []Mode {
	if len(c.Modes) == 0 {
		return []Mode{ModeThreadCrash, ModeProcessCrash}
	}
	return c.Modes
}

// cell is c's sweep cell: point armed on a DRAM pod, answered with mode
// and recovered the way c says.
func (c *Config) cell(point string, mode Mode) cell {
	return cell{Script: c.Script, auto: c.AutoRecover, point: point, mode: mode}
}

// PointRun is the outcome of one point × mode sweep run.
type PointRun struct {
	Point    string `json:"point"`
	Mode     Mode   `json:"mode"`
	Fired    bool   `json:"fired"`
	CrashTID int    `json:"crash_tid"`
	Err      string `json:"err,omitempty"`
}

// NMPResult is the degraded-mode phase: a seeded device-fault run that
// must complete through the sw_flush_cas fallback instead of hanging.
type NMPResult struct {
	Completed bool   `json:"completed"`
	Fallbacks uint64 `json:"fallbacks"`
	Retries   uint64 `json:"retries"`
	Faults    uint64 `json:"faults"`
	Err       string `json:"err,omitempty"`
}

// Report is a sweep's full outcome.
type Report struct {
	Auto       bool       // sweep ran on a self-healing pod (no recovery calls)
	Seed       uint64     // workload seed: rerun with this to replay verbatim
	Points     []string   // every crash point discovered by profiling
	Runs       []PointRun // one per point × mode
	Unswept    []string   // "point/mode" combos whose crash never fired
	Violations []string   // invariant or recovery failures
	NMP        NMPResult
}

// Ok reports whether the sweep met the robustness gate: every discovered
// point swept under every mode with zero violations, and the NMP fault
// run completed degraded.
func (r *Report) Ok() bool {
	return len(r.Unswept) == 0 && len(r.Violations) == 0 &&
		r.NMP.Completed && r.NMP.Fallbacks > 0
}

// swept counts the points whose crash fired under every mode.
func (r *Report) swept() int {
	missed := make(map[string]bool)
	for _, run := range r.Runs {
		if !run.Fired {
			missed[run.Point] = true
		}
	}
	return len(r.Points) - len(missed)
}

// Summary returns a one-line outcome for logs.
func (r *Report) Summary() string {
	status := "OK"
	if !r.Ok() {
		status = "FAIL"
	}
	kind := "chaos"
	if r.Auto {
		kind = "chaos[auto]"
	}
	return fmt.Sprintf("%s %s: %d points x %d runs, %d unswept, %d violations, nmp fallbacks=%d, seed=%d",
		kind, status, len(r.Points), len(r.Runs), len(r.Unswept), len(r.Violations), r.NMP.Fallbacks, r.Seed)
}

// Sweep runs the full chaos gate: profile, sweep every discovered point
// under every mode, then the NMP fault phase. It returns a Report; the
// error is non-nil only for harness misconfiguration.
func Sweep(cfg Config) (*Report, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rep := &Report{Auto: cfg.AutoRecover, Seed: cfg.Seed}

	// The profiling workload must reach the allocator's interesting
	// transitions and the recovery path; otherwise the sweep would
	// vacuously pass over a too-gentle workload. A self-healing sweep must
	// additionally route through the claim protocol.
	musts := append([]string{"small.alloc.post-take", "huge.alloc.post-link"},
		core.RecoveryCrashPoints...)
	if cfg.AutoRecover {
		musts = append(musts, core.LivenessCrashPoints...)
	}
	points, missing, err := discover(cfg.cell("", ""), musts)
	if err != nil {
		return nil, err
	}
	rep.Points, rep.Violations = points, missing

	for _, point := range points {
		for _, mode := range cfg.modes() {
			res := runCell(cfg.cell(point, mode))
			rep.Runs = append(rep.Runs, PointRun{
				Point: point, Mode: mode, Fired: res.fired, CrashTID: res.tid, Err: res.err,
			})
			if !res.fired {
				rep.Unswept = append(rep.Unswept, point+"/"+string(mode))
			}
			if res.err != "" {
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("%s/%s: %s", point, mode, res.err))
			}
		}
	}

	// The degraded-mode phase: the script on an mCAS pod whose NMP unit is
	// unavailable for the whole run. Every CAS must retry, fall back to
	// sw_flush_cas, and the workload must complete invariant-clean.
	nc := cfg.cell("", "")
	nc.device, nc.nmpFaults = atomicx.ModeMCAS, true
	if res := runCell(nc); res.err != "" {
		rep.NMP.Err = res.err
	} else {
		rep.NMP = NMPResult{Completed: true, Fallbacks: res.snap.HW.HWCASFallbacks,
			Retries: res.snap.HW.MCASRetries, Faults: res.snap.NMP.FaultsInjected}
	}
	return rep, nil
}

// discover runs c's script with nothing armed and returns every crash
// point it visits, plus one error line per point of musts it never
// reached.
func discover(c cell, musts []string) (points, missing []string, err error) {
	res := runCell(c)
	if res.err != "" {
		return nil, nil, fmt.Errorf("chaos: profiling run failed: %s", res.err)
	}
	for _, must := range musts {
		if !contains(res.points, must) {
			missing = append(missing, fmt.Sprintf("profiling never visited %q: workload too gentle", must))
		}
	}
	return res.points, missing, nil
}

func contains(ss []string, s string) bool {
	for _, v := range ss {
		if v == s {
			return true
		}
	}
	return false
}

// cell is one scripted run of the canonical workload: the pod it runs
// on, the crash point armed for every thread, and how the harness
// answers that crash.
type cell struct {
	Script
	auto      bool          // self-healing pod: the watchdog, not the harness, recovers
	device    atomicx.Mode  // coherence mode of the pod
	point     string        // armed for every thread; "" arms nothing
	mode      Mode          // failure response when point fires
	policy    persistPolicy // resolves the armed crash's in-play lines; nil = writeback-all
	nmpFaults bool          // the NMP unit is unavailable for the whole run (ModeMCAS)

	// The deliberate protocol mutations the persist sweep must catch:
	// the redo log's durability flush removed, or the magazine pop's
	// handoff record stored after its commit fence.
	skipOplogFlush, lateHandoffRecord bool
}

// cellResult is one cell's outcome.
type cellResult struct {
	points []string // every crash point the run visited
	fired  bool
	tid    int     // thread the armed point crashed (-1 if it never fired)
	window []int32 // in-play lines at the armed crash (policy cells)
	mask   uint64  // effective persist mask (valid when sized)
	sized  bool    // the window fit a 64-bit mask
	snap   telemetry.Snapshot
	err    string
}

// runCell is the only way a scripted crash runs: build c's pod, arm
// c.point on every thread, run the script answering the crash with
// c.mode, and end with the invariants after the drain plus the ledger
// audit. A panic (the heap's corruption detector) is captured as the
// cell's error, not allowed to abort the whole gate. snap holds the
// heap's counters once the script has stopped, whether or not it failed.
func runCell(c cell) (res cellResult) {
	res.tid = -1
	defer func() {
		if r := recover(); r != nil {
			res.err = fmt.Sprintf("panic: %v", r)
		}
	}()
	inj := crash.NewInjector()
	inj.EnableCoverage()
	h, err := newHarness(c, inj)
	if err != nil {
		res.err = err.Error()
		return res
	}
	heap := h.pod.Heap()
	if c.policy != nil {
		// Apply the adversarial policy exactly once, at the armed crash:
		// FiredTotal is bumped before the crash panic unwinds into
		// MarkCrashed, so this recognizes it even though the decider
		// cannot see the crash record itself. Scripted kills and any
		// secondary crashes resolve as PersistAll: they happen between
		// operations (or after the policy's one shot), where the drain
		// model — not the adversary — applies.
		applied := false
		heap.SetCrashPersistPolicy(func(tid int, inPlay []int32) memsim.CrashPolicy {
			if !applied && inj.FiredTotal() == 1 {
				applied = true
				res.window = append([]int32(nil), inPlay...)
				pol := c.policy(len(inPlay))
				res.mask, res.sized = effectiveMask(pol, len(inPlay))
				return pol
			}
			return memsim.CrashPolicy{Kind: memsim.PersistAll}
		})
	}
	if c.nmpFaults {
		heap.NMP().InjectFaults(nmp.FaultPlan{Mode: nmp.FaultUnavailable, Seed: c.Seed})
	}
	if c.point != "" {
		for tid := 0; tid < c.Threads; tid++ {
			inj.Arm(c.point, tid, 0)
		}
	}
	err = h.runScript(func(cr *crash.Crashed) error {
		if cr.Point != c.point {
			return fmt.Errorf("crashed at %q while sweeping %q", cr.Point, c.point)
		}
		res.fired, res.tid = true, cr.TID
		return h.handleCrash(cr)
	})
	res.points = inj.PointNames()
	res.snap = heap.Snapshot()
	if err == nil {
		err = h.audit()
	}
	if err != nil {
		res.err = err.Error()
	}
	return res
}

// crashHandler responds to a fired crash.
type crashHandler func(*crash.Crashed) error

// harness drives one cell's pod through the canonical script. All
// simulated threads run from a single goroutine (round-robin), so runs
// are deterministic given the seed and the heap is quiescent whenever
// the invariant checker runs.
type harness struct {
	cell
	inj  *crash.Injector
	pod  *cxlalloc.Pod
	rng  *xrand.Rand
	live []cxlalloc.Ptr
	// batch is freeRun's FreeBatch argument: after a crash in it, the
	// pointers whose free had not begun, still the application's.
	batch []cxlalloc.Ptr
}

func newHarness(c cell, inj *crash.Injector) (*harness, error) {
	pc := cxlalloc.DefaultConfig()
	pc.NumThreads = c.Threads
	pc.MaxSmallSlabs = 64
	pc.MaxLargeSlabs = 16
	pc.HugeRegionSize = 1 << 20
	pc.NumReservations = 8
	pc.DescsPerThread = 16
	pc.NumHazards = 8
	pc.UnsizedThreshold = 2
	pc.Mode = c.device
	pc.Crash = inj
	// Per-line durability tracking lets MarkCrashed resolve the armed
	// crash with CrashDiscard (persist.go).
	pc.TrackPersist = c.policy != nil
	pc.SkipOplogFlush = c.skipOplogFlush
	pc.LateHandoffRecord = c.lateHandoffRecord
	h := &harness{cell: c, inj: inj, rng: xrand.New(c.Seed)}
	pod, err := cxlalloc.NewPodWith(cxlalloc.PodConfig{
		Config:      pc,
		AutoRecover: c.auto,
		// A watchdog repair that finds a pending allocation (the victim
		// crashed between taking a block and receiving the pointer) hands
		// it to the application here — the auto-mode twin of recover's
		// PendingAlloc adoption.
		OnEvent: func(ev cxlalloc.LivenessEvent) {
			if ev.Kind == cxlalloc.LivenessRepair && ev.Report.PendingAlloc != 0 {
				h.addLive(ev.Report.PendingAlloc)
			}
		},
	})
	if err != nil {
		return nil, err
	}
	h.pod = pod
	procs := make([]*cxlalloc.Process, c.Procs)
	for i := range procs {
		procs[i] = pod.NewProcess()
	}
	for tid := 0; tid < c.Threads; tid++ {
		if _, err := procs[tid%c.Procs].AttachThreadID(tid); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// th returns a handle for slot tid under its current owner and lease
// epoch — ownership moves whenever a slot is recovered, restarted or
// repaired. nil means the slot is currently dead.
func (h *harness) th(tid int) *cxlalloc.Thread {
	th, err := h.pod.ThreadOf(tid)
	if err != nil {
		return nil
	}
	return th
}

// killTID is the scripted kill victim: the highest tid, so tid 0 (the
// invariant checker's vantage point) survives the scripted segment.
func (h *harness) killTID() int { return h.Threads - 1 }

// aliveTID returns a live thread slot to check invariants from.
func (h *harness) aliveTID() int {
	heap := h.pod.Heap()
	for tid := 0; tid < h.Threads; tid++ {
		if heap.Alive(tid) {
			return tid
		}
	}
	return -1
}

// runScript is the canonical deterministic workload: a main phase, a
// scripted thread kill + recovery (so the recover.* points are visited
// in every run — in auto mode the watchdog, not the harness, recovers),
// a tail phase, and a full drain.
func (h *harness) runScript(onCrash crashHandler) error {
	if err := h.driveOps(h.Ops, onCrash); err != nil {
		return err
	}
	if err := h.scriptedKill(onCrash); err != nil {
		return err
	}
	if err := h.driveOps(h.Ops/2, onCrash); err != nil {
		return err
	}
	return h.drain(onCrash)
}

// step is one workload operation by thread tid through handle th. Sizes
// cover all three heaps; free bursts drive empty/spill/pop-global;
// cross-process reads publish hazards; Maintain reclaims huge space.
func (h *harness) step(th *cxlalloc.Thread, i int) {
	// Exercise the magazine machinery deterministically, keyed on the op
	// index rather than the rng so the random stream — and with it every
	// persist probe and cell window — is byte-identical whether or not
	// magazines exist. Periodic drains visit the magdrain.* points; they
	// are no-ops on coherent devices.
	if i > 0 && i%97 == 0 {
		th.DrainMagazines()
	}
	if i < h.Threads {
		h.freeRun(th, i == 0)
	}
	r := h.rng
	roll := r.Intn(100)
	switch {
	case roll < 55 || len(h.live) == 0:
		var size int
		switch c := r.Intn(20); {
		case c < 13:
			size = r.IntRange(1, core.SmallMax())
		case c < 18:
			size = r.IntRange(core.SmallMax()+1, core.LargeMax())
		default:
			size = core.LargeMax() + r.IntRange(1, 64<<10)
		}
		p, err := th.Alloc(size)
		if err != nil {
			return // heap pressure: fine, frees will catch up
		}
		// Append before touching bytes: Alloc has returned (its oplog is
		// clean), so a crash in the write below must not lose the pointer.
		h.addLive(p)
		th.Bytes(p, 1)[0] = byte(i)
	case roll < 90:
		// Free a random live pointer — often a remote free, since any
		// thread may have allocated it. Remove from live first: once a
		// free is requested it is irrevocable (a crash mid-free is
		// completed by the redo protocol).
		idx := r.Intn(len(h.live))
		p := h.live[idx]
		h.live = append(h.live[:idx], h.live[idx+1:]...)
		th.Free(p)
	case roll < 96:
		// Cross-process read: faults mappings in (PC-T) and publishes
		// hazard offsets for huge pointers.
		th.Bytes(h.live[r.Intn(len(h.live))], 1)
	default:
		th.Maintain()
	}
}

// freeRun has th allocate a run of blocks and free them in one
// FreeBatch: a run of its own blocks in one bitset word, which one
// record in its class magazine line commits. Each thread's first step
// runs one, so the first visits of the local-free.* points, the visits
// the sweeps crash, are runs. Thread 0's (fill) takes every block of
// one largest-small-class slab, and the last take detaches it: on an
// incoherent pod a window gives all blocks but that last one, which
// the classic take gives, as production reaches the classic take. The
// batch then reattaches the slab and empties it. The other threads' runs are four 64 B blocks inside
// their magazines' windows, which keep their masks. (The magfree.*
// points are Free's alone.) Like the drains above it draws nothing from
// the rng. A crash inside FreeBatch leaves in h.batch the pointers
// whose free had not begun (dispatch).
func (h *harness) freeRun(th *cxlalloc.Thread, fill bool) {
	size, runLen := 64, 4
	if fill {
		size = core.SmallMax()
		runLen = core.SmallSlabSize / size
	}
	n := 0
	for ; n < runLen; n++ {
		p, err := th.Alloc(size)
		if err != nil {
			break
		}
		h.addLive(p)
	}
	h.batch = append(h.batch[:0], h.live[len(h.live)-n:]...)
	h.live = h.live[:len(h.live)-n]
	h.pod.Heap().FreeBatch(th.ID(), &h.batch)
}

// addLive tracks a pointer the application now owns. A pointer that is
// already live means the allocator handed the same block out twice (or
// a recovery reported a pending allocation the application already
// adopted) — caught here, at the moment of the duplication, rather than
// as a double free at drain time.
func (h *harness) addLive(p cxlalloc.Ptr) {
	for _, q := range h.live {
		if q == p {
			panic(fmt.Sprintf("chaos: pointer %#x handed out twice", p))
		}
	}
	h.live = append(h.live, p)
}

// driveOps runs n steps round-robin, routing crashes to onCrash.
func (h *harness) driveOps(n int, onCrash crashHandler) error {
	for i := 0; i < n; i++ {
		tid := i % h.Threads
		th := h.th(tid)
		if th == nil {
			continue // dead slot mid-convergence; the watchdog will revive it
		}
		if c := th.Run(func() { h.step(th, i) }); c != nil {
			if err := h.dispatch(c, onCrash); err != nil {
				return err
			}
		}
	}
	return nil
}

// scriptedKill kills one thread cleanly and brings it back, which routes
// every profiling and sweep run through recovery (and therefore through
// the recover.* crash points). In manual mode the harness calls Recover;
// an auto pod gets no recovery call at all — the survivors keep running
// until the watchdog has claimed and repaired the slot. An armed point
// that fires inside either recovery routes to onCrash like any other
// crash.
func (h *harness) scriptedKill(onCrash crashHandler) error {
	tid := h.killTID()
	if th := h.th(tid); th != nil {
		th.Kill()
	}
	if h.auto {
		if err := h.awaitRepair(onCrash); err != nil {
			return err
		}
		return h.checkAll()
	}
	var err error
	if c := crash.Run(func() { err = h.recoverManual(tid, nil) }); c != nil {
		// The armed point fired inside recovery itself. Drain the aborted
		// recovery's cache and let the failure-mode handler converge —
		// proving recovery is re-runnable.
		h.pod.Heap().MarkCrashed(c.TID)
		return h.dispatch(c, onCrash)
	}
	if errors.Is(err, cxlalloc.ErrNotCrashed) {
		return nil // an earlier crash handler already revived the slot
	}
	if err != nil {
		return fmt.Errorf("scripted recovery: %w", err)
	}
	return h.checkAll()
}

// awaitRepair drives benign Runs on live threads until every slot is
// alive and leased again. The harness makes no recovery calls: repair
// happens inside the survivors' heartbeats. Crashes injected into those
// repairs dispatch to onCrash, whose handler recurses here with the
// injector disarmed, so the recursion is bounded at one level.
func (h *harness) awaitRepair(onCrash crashHandler) error {
	heap := h.pod.Heap()
	for round := 0; round < 512; round++ {
		converged := true
		for tid := 0; tid < h.Threads; tid++ {
			if !heap.Alive(tid) || !heap.Leased(tid) {
				converged = false
			}
			th := h.th(tid)
			if th == nil {
				continue
			}
			if c := th.Run(func() {}); c != nil {
				if err := h.dispatch(c, onCrash); err != nil {
					return err
				}
			}
		}
		if converged {
			return nil
		}
	}
	return errors.New("watchdog did not converge the pod within its budget")
}

// drain frees every live pointer, runs Maintain everywhere, and checks
// every invariant.
func (h *harness) drain(onCrash crashHandler) error {
	for i := 0; len(h.live) > 0; i++ {
		p := h.live[len(h.live)-1]
		h.live = h.live[:len(h.live)-1]
		tid := i % h.Threads
		th := h.th(tid)
		if th == nil {
			h.live = append(h.live, p) // retry from another slot
			continue
		}
		if c := th.Run(func() { th.Free(p) }); c != nil {
			if err := h.dispatch(c, onCrash); err != nil {
				return err
			}
		}
	}
	// Two rounds reach the reclamation fixpoint: round one's hazard
	// sweeps retire every hazard over freed allocations, which unblocks
	// round two's descriptor reclaims in the owners — a single round
	// leaves a descriptor in use whenever the owner's Maintain ran
	// before the hazard holder's.
	for round := 0; round < 2; round++ {
		for tid := 0; tid < h.Threads; tid++ {
			th := h.th(tid)
			if th == nil {
				continue
			}
			if c := th.Run(th.Maintain); c != nil {
				if err := h.dispatch(c, onCrash); err != nil {
					return err
				}
				// Re-run the interrupted maintenance after recovery.
				th = h.th(tid)
				if c2 := th.Run(th.Maintain); c2 != nil {
					return fmt.Errorf("maintenance crashed twice: %v", c2)
				}
			}
		}
	}
	return h.checkAll()
}

// dispatch routes a fired crash to the handler, which must leave every
// thread slot alive again.
func (h *harness) dispatch(c *crash.Crashed, onCrash crashHandler) error {
	if onCrash == nil {
		return fmt.Errorf("unexpected crash: %v", c)
	}
	h.live = append(h.live, h.batch...)
	h.batch = h.batch[:0]
	if err := onCrash(c); err != nil {
		return err
	}
	for tid := 0; tid < h.Threads; tid++ {
		if !h.pod.Heap().Alive(tid) {
			return fmt.Errorf("thread %d still dead after crash handling", tid)
		}
	}
	return nil
}

// handleCrash is the one failure response: disarm, escalate (process
// mode kills the victim's whole process), prove the survivors keep
// allocating, recover, and check every invariant. Manual recovery is an
// explicit Recover or Restart; an auto pod is only waited on until the
// watchdog has converged it.
func (h *harness) handleCrash(c *crash.Crashed) error {
	h.inj.Disarm()
	var killed *cxlalloc.Process
	switch h.mode {
	case ModeThreadCrash:
		// Nothing: only the crashed thread is dead.
	case ModeProcessCrash:
		if killed = h.pod.OwnerOf(c.TID); killed != nil {
			h.pod.KillProcess(killed)
		}
	default:
		return fmt.Errorf("unknown mode %q", h.mode)
	}
	if err := h.survivorOps(40); err != nil {
		return err
	}
	// The injector is disarmed, so this recovery cannot crash again.
	var err error
	if h.auto {
		err = h.awaitRepair(nil)
	} else {
		err = h.recoverManual(c.TID, killed)
	}
	if err != nil {
		return err
	}
	return h.checkAll()
}

// recoverManual Restarts the killed process, or else Recovers slot tid
// through its owner. Pending allocations the recovery reports are
// adopted as live.
func (h *harness) recoverManual(tid int, killed *cxlalloc.Process) error {
	var reports []cxlalloc.RecoveryReport
	if killed != nil {
		_, reps, err := killed.Restart()
		if err != nil {
			return fmt.Errorf("process restart: %w", err)
		}
		reports = reps
	} else {
		_, rep, err := h.pod.OwnerOf(tid).Recover(tid)
		if err != nil {
			return fmt.Errorf("thread recovery: %w", err)
		}
		reports = append(reports, rep)
	}
	for _, rep := range reports {
		if rep.PendingAlloc != 0 {
			h.addLive(rep.PendingAlloc)
		}
	}
	return nil
}

// survivorOps proves the non-blocking property: while the victim is
// dead, every surviving thread keeps allocating and freeing.
func (h *harness) survivorOps(n int) error {
	heap := h.pod.Heap()
	done := 0
	for i := 0; done < n && i < 10*n; i++ {
		tid := i % h.Threads
		if !heap.Alive(tid) {
			continue
		}
		th := h.th(tid)
		if th == nil {
			continue
		}
		if c := th.Run(func() { h.step(th, i) }); c != nil {
			return fmt.Errorf("survivor crashed with injector disarmed: %v", c)
		}
		done++
	}
	if done == 0 {
		return errors.New("no surviving threads: non-blocking property unprovable")
	}
	return nil
}

// checkAll runs the full §5.1 invariant checker from a live thread.
func (h *harness) checkAll() error {
	tid := h.aliveTID()
	if tid < 0 {
		return errors.New("no live thread to check invariants from")
	}
	if err := h.pod.Heap().CheckAll(tid); err != nil {
		return fmt.Errorf("invariant violation: %w", err)
	}
	return nil
}

// audit is every cell's end-of-cell ledger check: the script drained
// every allocation, so nothing may still be marked allocated. A dropped
// line that silently leaked a block (or resurrected one) is invisible to
// shape invariants and shows up only here. Every cache drains first —
// the audit reads the device image, and local-op effects are
// deliberately unflushed.
func (h *harness) audit() error {
	heap := h.pod.Heap()
	heap.DrainCaches()
	tid := h.aliveTID()
	if tid < 0 {
		return errors.New("no live thread to audit from")
	}
	if err := heap.AuditEmpty(tid); err != nil {
		return fmt.Errorf("ledger audit: %w", err)
	}
	return nil
}

// FormatReport renders the report for cxlbench.
func FormatReport(r *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", r.Summary())
	fmt.Fprintf(&b, "  points instrumented: %d, fully swept: %d (modes: thread-crash, process-crash)\n",
		len(r.Points), r.swept())
	fmt.Fprintf(&b, "  nmp fault phase: faults=%d retries=%d fallbacks=%d completed=%v\n",
		r.NMP.Faults, r.NMP.Retries, r.NMP.Fallbacks, r.NMP.Completed)
	if len(r.Unswept) > 0 {
		fmt.Fprintf(&b, "  UNSWEPT: %s\n", strings.Join(r.Unswept, ", "))
	}
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  VIOLATION: %s\n", v)
	}
	return b.String()
}
