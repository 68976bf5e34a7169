// Package liveness is the pod's self-healing layer (DESIGN.md §6.2):
// survivor-driven failure detection and repair over the core heap's
// lease/claim plane, so a pod keeps serving traffic through crashes
// without a harness calling Recover or Restart by hand.
//
// Every live thread renews a heartbeat lease in the HWcc region as a
// side effect of running; a per-process Manager sweeps the lease table,
// and when a lease expires it wins a fenced recovery claim, repairs the
// slot with RecoverThreadFenced, re-leases it, and hands it to its own
// process. Claims are recorded in the claimant's redo log, so a claimant
// that dies mid-repair is itself repaired — and its orphaned claim
// released — by the next survivor (recovery of the recoverer).
//
// Time is the pod's logical clock: one tick per Thread.Run anywhere in
// the pod. Lease durations are therefore measured in pod-wide operations
// rather than wall time, which keeps deterministic single-goroutine
// harnesses (chaos, mttr) exactly reproducible while still being honest
// about the protocol: a slot is declared dead only after the whole pod
// has made LeaseTicks of progress without a renewal from it.
package liveness

import (
	"errors"
	"sync"
	"sync/atomic"

	"cxlalloc/internal/core"
	"cxlalloc/internal/crash"
	"cxlalloc/internal/telemetry"
	"cxlalloc/internal/vas"
)

// SelfFencePoint is the synthetic crash-point name reported when a
// thread's lease renewal observes a foreign epoch: the pod declared this
// incarnation dead and recovered the slot elsewhere, so the handle must
// stop touching shared state immediately.
const SelfFencePoint = "liveness.self-fence"

// Config tunes the heartbeat protocol. All values are logical-clock
// ticks; zero fields take the defaults.
type Config struct {
	// RenewInterval is how often a running thread renews its lease.
	RenewInterval uint64
	// GraceMult scales the lease length: a lease lasts
	// RenewInterval*GraceMult ticks, so a thread must miss GraceMult
	// consecutive renewal windows before the watchdog may declare it
	// dead. This is the false-takeover guard — a merely slow thread
	// renews long before its deadline.
	GraceMult uint64
	// PollInterval is how often each process's watchdog sweeps the
	// lease table.
	PollInterval uint64
}

// WithDefaults fills zero fields: renew every 4 ticks, 6x grace
// (leases last 24 ticks), poll every 4 ticks.
func (c Config) WithDefaults() Config {
	if c.RenewInterval == 0 {
		c.RenewInterval = 4
	}
	if c.GraceMult == 0 {
		c.GraceMult = 6
	}
	if c.PollInterval == 0 {
		c.PollInterval = 4
	}
	return c
}

// LeaseTicks is the lease duration: RenewInterval * GraceMult.
func (c Config) LeaseTicks() uint64 { return c.RenewInterval * c.GraceMult }

// Kind classifies a watchdog event.
type Kind int

const (
	// KindClaim: the watchdog won the recovery claim for an expired slot.
	KindClaim Kind = iota
	// KindRepair: a claimed repair committed; the slot is re-leased and
	// adopted by the claimant's process.
	KindRepair
	// KindRepairCrash: an injected crash fired inside a claimed repair;
	// the claim is kept and the repair retried on a later poll.
	KindRepairCrash
	// KindFenced: this claimant lost its claim mid-repair to a
	// superseding survivor and aborted without committing.
	KindFenced
	// KindFalseAlarm: the claimed slot turned out to be alive (or was
	// already repaired); the claim was released without a teardown.
	KindFalseAlarm
	// KindRescue: an alive-but-unleased slot (its repairer died between
	// committing and re-leasing) was re-leased and re-adopted.
	KindRescue
	// KindSelfFence: a thread's own renewal observed a foreign epoch.
	KindSelfFence
)

func (k Kind) String() string {
	switch k {
	case KindClaim:
		return "claim"
	case KindRepair:
		return "repair"
	case KindRepairCrash:
		return "repair-crash"
	case KindFenced:
		return "fenced"
	case KindFalseAlarm:
		return "false-alarm"
	case KindRescue:
		return "rescue"
	case KindSelfFence:
		return "self-fence"
	default:
		return "unknown"
	}
}

// Event is one observable watchdog action. Events are emitted
// synchronously from the thread whose Run triggered them, so a
// single-goroutine harness sees them in deterministic order.
type Event struct {
	Kind     Kind
	Tick     uint64 // logical-clock time of the poll
	Victim   int    // thread slot acted on
	Claimant int    // thread that ran the watchdog step
	Gen      uint16 // claim generation (claim-related kinds)
	// WasAlive records whether the victim's slot was actually alive AND
	// leased at claim time — the simulator's ground truth for the
	// false-takeover metric (an alive-but-unleased slot is the rescue
	// case, a designed recovery path). A correctly tuned grace multiple
	// keeps this always false.
	WasAlive bool
	// Report is the recovery report (KindRepair only).
	Report core.RecoveryReport
	// Point is the crash point that fired (KindRepairCrash only).
	Point string
}

// Hooks connect a Manager to the pod layer without an import cycle.
type Hooks struct {
	// Adopt transfers ownership of a repaired slot to the Manager's
	// process. Called after the repair committed and before the slot is
	// re-leased (until then the pod layer mints no handle for it),
	// outside any heap lock.
	Adopt func(victim int)
	// Rescue re-adopts an alive-but-unleased slot to the process owning
	// the space it is bound to. It reports whether that process is still
	// alive; if not, the Manager tears the slot down and repairs it into
	// its own process on a later poll.
	Rescue func(victim int) bool
	// Emit receives every event, synchronously.
	Emit func(Event)
}

// Manager is one process's watchdog. All methods are safe for concurrent
// use by that process's threads.
type Manager struct {
	heap  *core.Heap
	space *vas.Space
	cfg   Config
	hooks Hooks

	// Run-path state, deliberately lock-free: Heartbeat rides on every
	// Thread.Run in the pod, so a shared mutex here serializes the whole
	// pod's hot path. renewAt is per-slot (only slot tid's handle touches
	// entry tid, and each entry is its own cache line's worth of state
	// for that thread alone); pollAt is a single word advanced by CAS, so
	// exactly one thread wins each due sweep window.
	renewAt []paddedTick  // per-tid next renewal tick
	pollAt  atomic.Uint64 // next lease-table sweep tick

	// pollMu serializes sweeps and guards pending: claims this manager
	// holds whose repair crashed and awaits retry. Sweeps are rare
	// (PollInterval) and heavy; a mutex is the right tool off the hot
	// path.
	pollMu  sync.Mutex
	pending map[int]core.ClaimToken

	falseTakeovers atomic.Uint64

	// counts tallies emitted events per Kind; snapshot readers load them
	// concurrently with a running pod.
	counts [KindSelfFence + 1]atomic.Uint64
}

// paddedTick is one thread's renewal deadline on its own cache line, so
// concurrent heartbeats from different threads never false-share.
type paddedTick struct {
	at atomic.Uint64
	_  [7]uint64
}

// NewManager returns a watchdog recovering victims into space.
func NewManager(heap *core.Heap, space *vas.Space, cfg Config, hooks Hooks) *Manager {
	return &Manager{
		heap:    heap,
		space:   space,
		cfg:     cfg.WithDefaults(),
		hooks:   hooks,
		renewAt: make([]paddedTick, heap.Config().NumThreads),
		pending: make(map[int]core.ClaimToken),
	}
}

// Config returns the normalized configuration.
func (m *Manager) Config() Config { return m.cfg }

// Retune replaces the manager's cadence configuration (zero fields take
// defaults, as at construction). The run path reads cfg without
// synchronization, so Retune is only safe while no thread of this
// process is inside Heartbeat/Poll — a quiesce point, such as the
// calibration barrier of the online chaos harness, which measures the
// pod's real tick rate and then widens the lease to a wall-clock target.
// Every thread's next heartbeat renews under the new configuration, and
// the next heartbeat sweeps: a renewal or a sweep scheduled by the old
// intervals may lie arbitrarily far ahead, and until it came a slot
// would keep its old deadline, or an expired one would wait unclaimed.
func (m *Manager) Retune(cfg Config) {
	m.pollMu.Lock()
	m.cfg = cfg.WithDefaults()
	for i := range m.renewAt {
		m.renewAt[i].at.Store(0)
	}
	m.pollAt.Store(0)
	m.pollMu.Unlock()
}

// Stats returns this manager's share of the liveness counters: the
// watchdog outcomes it emitted, and its false takeovers — claims it won
// on slots that were actually alive, which must stay 0 under a sane
// grace multiple. (The heap counts Renews and Claims.) Safe to call
// concurrently with a running pod.
func (m *Manager) Stats() telemetry.LivenessStats {
	return telemetry.LivenessStats{
		Repairs:        m.counts[KindRepair].Load(),
		Fenced:         m.counts[KindFenced].Load(),
		FalseAlarms:    m.counts[KindFalseAlarm].Load(),
		Rescues:        m.counts[KindRescue].Load(),
		SelfFences:     m.counts[KindSelfFence].Load(),
		FalseTakeovers: m.falseTakeovers.Load(),
	}
}

// Heartbeat is one liveness step for thread tid, piggybacked on every
// Thread.Run: tick the pod clock, renew tid's lease when due, and sweep
// the lease table when due. epoch is the lease epoch tid's handle was
// minted under; fenced is true when the renewal observed a different
// epoch, meaning this incarnation was declared dead and its handle must
// not touch shared state again.
//
// An injected crash inside the claim protocol or a claimed repair
// propagates as a *crash.Crashed panic, exactly like a crash in an
// allocator operation.
func (m *Manager) Heartbeat(tid int, epoch uint16) (fenced bool) {
	now := m.heap.ClockTick(tid)
	// Renewal: tid's own word, written only by tid's handle. A plain
	// atomic load/store pair (no CAS) is enough — a duplicate renewal
	// from a racing handle to the same slot would be benign (leases are
	// monotone), and pinned threads never race themselves.
	renewDue := now >= m.renewAt[tid].at.Load()
	if renewDue {
		m.renewAt[tid].at.Store(now + m.cfg.RenewInterval)
	}
	// Sweep arbitration: one CAS claims the whole due window. A loser's
	// CAS failure means another thread won this window and will poll;
	// re-check in case the clock has already passed the *new* deadline.
	pollDue := false
	for {
		at := m.pollAt.Load()
		if now < at {
			break
		}
		if m.pollAt.CompareAndSwap(at, now+m.cfg.PollInterval) {
			pollDue = true
			break
		}
	}
	if renewDue && !m.heap.LeaseRenew(tid, epoch, now+m.cfg.LeaseTicks()) {
		m.emit(Event{Kind: KindSelfFence, Tick: now, Victim: tid, Claimant: tid})
		return true
	}
	if pollDue {
		m.Poll(tid, epoch, now)
	}
	return false
}

// Poll sweeps the lease table once from thread tid's vantage point,
// claiming and repairing every expired slot. epoch is tid's own lease
// epoch (the repairer extends its own lease across a long repair).
// Exposed for tests and experiments; Heartbeat calls it on the
// configured cadence.
func (m *Manager) Poll(tid int, epoch uint16, now uint64) {
	m.pollMu.Lock()
	defer m.pollMu.Unlock()
	for v := 0; v < m.heap.Config().NumThreads; v++ {
		if v == tid {
			continue
		}
		seen, deadline := m.heap.LeaseRead(tid, v)
		if seen == 0 || now <= deadline {
			// Never leased, healthy, or repaired-and-releeased by someone
			// else; any pending token of ours is stale either way.
			delete(m.pending, v)
			continue
		}
		m.pollSlot(tid, v, epoch, now, seen)
	}
}

// repairLeaseMult sizes the repairer's self-extension: a repair may
// take several lease windows of wall time (the recovery scan is the
// longest single operation a thread runs), and the pod clock keeps
// ticking under the surviving threads meanwhile.
const repairLeaseMult = 4

// pollSlot runs the claim state machine for one expired slot; seen is the
// lease epoch the sweep read the expired deadline under.
func (m *Manager) pollSlot(tid, v int, epoch uint16, now uint64, seen uint16) {
	heap := m.heap
	tok, retrying := m.pending[v]
	if retrying && tok.Claimant == tid && heap.ClaimHeldBy(v, tok) {
		// Our earlier repair of v crashed; restore the die-while-holding
		// release guarantee for the retry window.
		heap.ClaimRearm(v, tok)
	} else {
		delete(m.pending, v)
		// Claim-word gate: defer to a different claimant that is still
		// alive (its own lease is valid). A claim whose holder's lease
		// expired is superseded below; a claim recorded under our tid by
		// a manager that died with its process is superseded too.
		if holder, _, held := heap.ClaimRead(tid, v); held && holder != tid &&
			!heap.LeaseExpired(tid, holder, now) {
			return
		}
		// Ground truth for the false-takeover metric: a slot that is alive
		// AND leased is a healthy (merely slow) thread, and claiming it is
		// a real false takeover. Alive-but-unleased is different: that is
		// a committed repair whose claimant died before re-leasing the
		// slot (the rescue case below) — claiming it is the designed
		// recovery path, not a mistake.
		wasAlive := heap.Alive(v) && heap.Leased(v)
		var ok bool
		tok, ok = heap.ClaimAcquire(tid, v, now)
		if !ok {
			return
		}
		if cur, _ := heap.LeaseRead(tid, v); cur != seen {
			// Another process's watchdog repaired v and released its claim
			// between the sweep's read and ours: the expiry we saw belongs
			// to an incarnation that is gone, and the one that is there
			// now is nobody's takeover. (A slow thread renewing keeps its
			// epoch, and is still counted below.)
			heap.ClaimRelease(v, tok)
			return
		}
		if wasAlive {
			m.falseTakeovers.Add(1)
		}
		m.pending[v] = tok
		m.emit(Event{Kind: KindClaim, Tick: now, Victim: v, Claimant: tid,
			Gen: tok.Gen, WasAlive: wasAlive})
	}

	// The repair below can outlast our own lease while sibling watchdogs
	// keep the clock ticking; they would then storm claims on a live,
	// merely busy, repairer. Extend our own lease to cover the repair —
	// the next regular renewal shrinks the horizon back. A failed
	// extension means this incarnation was fenced mid-poll and must not
	// repair anything: drop the claim and let the self-fence surface at
	// the next heartbeat.
	if !heap.LeaseRenew(tid, epoch, now+repairLeaseMult*m.cfg.LeaseTicks()) {
		heap.ClaimRelease(v, tok)
		delete(m.pending, v)
		return
	}

	var rep core.RecoveryReport
	var rerr error
	if c := crash.Run(func() { rep, rerr = heap.RecoverThreadFenced(v, m.space, tok) }); c != nil {
		// The victim crashed again, inside our repair. Keep the claim
		// (pending survives for the retry), surface the event, and let
		// the crash propagate to the Run that hosted this poll.
		m.emit(Event{Kind: KindRepairCrash, Tick: now, Victim: v, Claimant: tid,
			Gen: tok.Gen, Point: c.Point})
		panic(c)
	}

	switch {
	case rerr == nil:
		// Ownership before lease, as in the rescue below: the pod layer
		// mints no handle for an alive slot until it is leased, so by
		// the time anyone can hold v it belongs to this process. The
		// other order let a waiting worker mint a handle under v's old
		// owner between the two steps; when that process was later
		// killed (it owned no live slot, by the pod's books) the handle
		// went on heartbeating through the dead watchdog and repaired
		// later victims into a revoked space, where nobody could own
		// them and every sweep re-claimed them forever.
		if m.hooks.Adopt != nil {
			m.hooks.Adopt(v)
		}
		heap.LeaseAcquire(v, now+m.cfg.LeaseTicks())
		heap.ClaimRelease(v, tok)
		delete(m.pending, v)
		m.emit(Event{Kind: KindRepair, Tick: now, Victim: v, Claimant: tid,
			Gen: tok.Gen, Report: rep})

	case errors.Is(rerr, core.ErrFenced):
		// A superseding claimant owns v now; our attempt wrote nothing
		// durable it does not rewrite.
		delete(m.pending, v)
		m.emit(Event{Kind: KindFenced, Tick: now, Victim: v, Claimant: tid, Gen: tok.Gen})

	case errors.Is(rerr, core.ErrNotCrashed):
		if !heap.Leased(v) {
			// The slot committed a repair but its claimant died before
			// re-leasing it: an orphan. Re-lease it; re-adopt it to the
			// process owning its bound space, or — if that process is
			// gone — tear it down so a later poll repairs it into ours.
			if m.hooks.Rescue == nil || !m.hooks.Rescue(v) {
				heap.MarkCrashed(v)
				return // keep the claim; retry on the next poll
			}
			heap.LeaseAcquire(v, now+m.cfg.LeaseTicks())
			heap.ClaimRelease(v, tok)
			delete(m.pending, v)
			m.emit(Event{Kind: KindRescue, Tick: now, Victim: v, Claimant: tid, Gen: tok.Gen})
			return
		}
		// Alive and leased: a false alarm (the slot's lease expired but
		// its thread still runs, or another watchdog just finished).
		// Release without touching the slot — never tear down the living.
		heap.ClaimRelease(v, tok)
		delete(m.pending, v)
		m.emit(Event{Kind: KindFalseAlarm, Tick: now, Victim: v, Claimant: tid, Gen: tok.Gen})

	default:
		// Harness misuse (out-of-range, never-attached): nothing a
		// watchdog can converge; surface loudly.
		panic(rerr)
	}
}

// kindEvents maps watchdog kinds onto trace event kinds. KindClaim is
// absent on purpose: core.ClaimAcquire already emits EvClaim for every
// winning claim (including those from Process.Restart), so mapping it
// here would double-count.
var kindEvents = [KindSelfFence + 1]telemetry.Kind{
	KindClaim:       telemetry.EvNone,
	KindRepair:      telemetry.EvRepair,
	KindRepairCrash: telemetry.EvRepairCrash,
	KindFenced:      telemetry.EvFenced,
	KindFalseAlarm:  telemetry.EvFalseAlarm,
	KindRescue:      telemetry.EvRescue,
	KindSelfFence:   telemetry.EvSelfFence,
}

func (m *Manager) emit(e Event) {
	if e.Kind >= 0 && int(e.Kind) < len(m.counts) {
		m.counts[e.Kind].Add(1)
		if ek := kindEvents[e.Kind]; ek != telemetry.EvNone && telemetry.Enabled() {
			telemetry.Emit(e.Claimant, ek, uint64(e.Victim), uint32(e.Gen))
		}
	}
	if m.hooks.Emit != nil {
		m.hooks.Emit(e)
	}
}
