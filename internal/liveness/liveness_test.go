package liveness

import (
	"testing"

	"cxlalloc/internal/core"
	"cxlalloc/internal/crash"
	"cxlalloc/internal/memsim"
	"cxlalloc/internal/vas"
)

// tenv is a pod-in-a-test without the public cxlalloc layer: one heap,
// two processes of two threads each (tids 0,1 / 2,3), one Manager per
// process, and a deterministic single-goroutine "scheduler" (beat).
type tenv struct {
	t      *testing.T
	h      *core.Heap
	inj    *crash.Injector
	cfg    Config
	spaces []*vas.Space
	mgrs   []*Manager
	events []Event
	epochs map[int]uint16
	rescue func(victim int) bool
	adopt  func(victim int)
}

func newTenv(t *testing.T, cfg Config) *tenv {
	t.Helper()
	hc := core.DefaultConfig()
	hc.NumThreads = 4
	hc.MaxSmallSlabs = 64
	hc.MaxLargeSlabs = 8
	hc.HugeRegionSize = 1 << 20
	hc.NumReservations = 8
	hc.DescsPerThread = 16
	hc.NumHazards = 8
	hc.UnsizedThreshold = 2
	inj := crash.NewInjector()
	hc.Crash = inj
	dc, err := core.DeviceFor(hc)
	if err != nil {
		t.Fatalf("DeviceFor: %v", err)
	}
	dev := memsim.NewDevice(dc)
	h, err := core.NewHeap(hc, dev)
	if err != nil {
		t.Fatalf("NewHeap: %v", err)
	}
	e := &tenv{t: t, h: h, inj: inj, cfg: cfg.WithDefaults(), epochs: map[int]uint16{}}
	for p := 0; p < 2; p++ {
		sp := vas.NewSpace(p, dev, core.PageSize)
		sp.SetHandler(func(tid int, s *vas.Space, page uint64) bool {
			return h.HandleFault(tid, s.Install, page)
		})
		e.spaces = append(e.spaces, sp)
		m := NewManager(h, sp, cfg, Hooks{
			Emit:   func(ev Event) { e.events = append(e.events, ev) },
			Rescue: func(v int) bool { return e.rescue != nil && e.rescue(v) },
			Adopt: func(v int) {
				if e.adopt != nil {
					e.adopt(v)
				}
			},
		})
		e.mgrs = append(e.mgrs, m)
		for i := 0; i < 2; i++ {
			if err := h.AttachThread(p*2+i, sp); err != nil {
				t.Fatalf("AttachThread: %v", err)
			}
		}
	}
	return e
}

// lease grants tid its first lease and remembers the handle epoch.
func (e *tenv) lease(tids ...int) {
	for _, tid := range tids {
		e.epochs[tid] = e.h.LeaseAcquire(tid, e.h.ClockNow(tid)+e.cfg.LeaseTicks())
	}
}

// beat is one Thread.Run's worth of liveness work for tid, with the same
// crash handling the public layer applies: a self-fence becomes a
// synthetic Crashed that does NOT mark anything crashed; every other
// crash marks its victim.
func (e *tenv) beat(tid int) *crash.Crashed {
	m := e.mgrs[tid/2]
	c := crash.Run(func() {
		if m.Heartbeat(tid, e.epochs[tid]) {
			panic(&crash.Crashed{TID: tid, Point: SelfFencePoint})
		}
	})
	if c != nil && c.Point != SelfFencePoint {
		e.h.MarkCrashed(c.TID)
	}
	return c
}

// converge beats the given live threads round-robin until every tid in
// want is alive and leased, failing after a bounded number of rounds.
func (e *tenv) converge(beaters []int, want ...int) {
	e.t.Helper()
	// A claimant that died mid-repair holds a lease extended by
	// repairLeaseMult windows; converging past it needs that many extra
	// ticks from however few beaters remain.
	rounds := 64 + int(e.cfg.LeaseTicks())*(repairLeaseMult+1)
	for round := 0; round < rounds; round++ {
		for _, tid := range beaters {
			e.beat(tid)
		}
		ok := true
		for _, v := range want {
			if !e.h.Alive(v) || !e.h.Leased(v) {
				ok = false
			}
		}
		if ok {
			return
		}
	}
	e.t.Fatalf("pod did not converge; events: %+v", e.events)
}

// kinds returns the event kinds recorded for victim, in order.
func (e *tenv) kinds(victim int) []Kind {
	var ks []Kind
	for _, ev := range e.events {
		if ev.Victim == victim {
			ks = append(ks, ev.Kind)
		}
	}
	return ks
}

func (e *tenv) count(victim int, k Kind) int {
	n := 0
	for _, ev := range e.events {
		if ev.Victim == victim && ev.Kind == k {
			n++
		}
	}
	return n
}

func (e *tenv) falseTakeovers() uint64 {
	var n uint64
	for _, m := range e.mgrs {
		n += m.FalseTakeovers()
	}
	return n
}

func TestWatchdogDetectsAndRepairs(t *testing.T) {
	e := newTenv(t, Config{})
	e.lease(0, 2, 3)
	if _, err := e.h.Alloc(3, 64); err != nil {
		t.Fatal(err)
	}
	e.h.MarkCrashed(3)

	e.converge([]int{0, 2}, 3)

	if got := e.count(3, KindRepair); got != 1 {
		t.Fatalf("repairs of victim = %d, want 1 (events: %v)", got, e.kinds(3))
	}
	if got := e.count(3, KindClaim); got != 1 {
		t.Fatalf("claims of victim = %d, want 1", got)
	}
	if n := e.falseTakeovers(); n != 0 {
		t.Fatalf("false takeovers = %d, want 0", n)
	}
	// Slot 0 and 2 kept heartbeating; nobody should have touched them.
	for _, v := range []int{0, 2} {
		if len(e.kinds(v)) != 0 {
			t.Fatalf("healthy slot %d saw events %v", v, e.kinds(v))
		}
	}
}

func TestWatchdogRetriesAfterRepairCrash(t *testing.T) {
	e := newTenv(t, Config{})
	e.lease(0, 2, 3)
	if _, err := e.h.Alloc(3, 64); err != nil {
		t.Fatal(err)
	}
	e.h.MarkCrashed(3)
	// The first repair attempt dies inside recovery (a crash point in the
	// victim's identity); the claimant must keep the claim and retry.
	e.inj.Arm("recover.post-redo", 3, 0)

	e.converge([]int{0, 2}, 3)

	ks := e.kinds(3)
	if e.count(3, KindRepairCrash) != 1 || e.count(3, KindRepair) != 1 {
		t.Fatalf("want one repair-crash then one repair, got %v", ks)
	}
	// The retry reuses the claim: one claim event, same generation on the
	// crash and the eventual repair.
	if e.count(3, KindClaim) != 1 {
		t.Fatalf("claims = %d, want 1 (claim must survive the crash), events %v", e.count(3, KindClaim), ks)
	}
	var gens []uint16
	for _, ev := range e.events {
		if ev.Victim == 3 && (ev.Kind == KindRepairCrash || ev.Kind == KindRepair) {
			gens = append(gens, ev.Gen)
		}
	}
	if len(gens) != 2 || gens[0] != gens[1] {
		t.Fatalf("generations across retry = %v, want equal", gens)
	}
}

func TestRecoveryOfTheRecoverer(t *testing.T) {
	e := newTenv(t, Config{})
	e.lease(0, 2, 3)
	e.h.MarkCrashed(3)
	e.inj.Arm("recover.post-redo", 3, 0)

	// Thread 0 claims victim 3 and its repair crashes; then thread 0 dies
	// too, holding the claim (its opClaim record still armed). The only
	// survivor, thread 2, must repair the claimant — releasing the
	// orphaned claim via redo — and then the original victim, with no
	// outside help. Thread 2 keeps heartbeating throughout so its own
	// lease never looks expired.
	for round := 0; ; round++ {
		if c := e.beat(0); c != nil {
			break
		}
		if c := e.beat(2); c != nil {
			break
		}
		if round > 64 {
			t.Fatal("claimant never claimed the victim")
		}
	}
	if e.count(3, KindClaim) != 1 || e.count(3, KindRepairCrash) != 1 {
		t.Fatalf("setup: events for victim = %v", e.kinds(3))
	}
	e.h.MarkCrashed(0)

	e.converge([]int{2}, 0, 3)

	if e.count(0, KindRepair) != 1 {
		t.Fatalf("claimant not repaired: %v", e.kinds(0))
	}
	if e.count(3, KindRepair) != 1 {
		t.Fatalf("victim not repaired: %v", e.kinds(3))
	}
	if n := e.falseTakeovers(); n != 0 {
		t.Fatalf("false takeovers = %d, want 0", n)
	}
}

func TestStaleHandleSelfFences(t *testing.T) {
	e := newTenv(t, Config{})
	e.lease(0, 2, 3)
	e.h.MarkCrashed(3)
	e.converge([]int{0, 2}, 3)

	// The dead incarnation's handle wakes up and tries to heartbeat with
	// its old epoch: it must self-fence without touching the slot, which
	// is alive under its new owner.
	c := e.beat(3)
	if c == nil || c.Point != SelfFencePoint {
		t.Fatalf("stale handle got %+v, want self-fence", c)
	}
	if !e.h.Alive(3) {
		t.Fatal("self-fence killed the new incarnation")
	}
	if e.count(3, KindSelfFence) != 1 {
		t.Fatalf("events: %v", e.kinds(3))
	}
	// The new incarnation's epoch renews fine.
	e.epochs[3] = e.h.LeaseEpoch(3)
	if c := e.beat(3); c != nil {
		t.Fatalf("current incarnation fenced: %+v", c)
	}
}

func TestSlowThreadNeverTornDown(t *testing.T) {
	e := newTenv(t, Config{})
	e.lease(0, 3)

	// Thread 3 is alive but stops running for longer than its lease. The
	// watchdog may claim it (that IS a false takeover, the metric the mttr
	// experiment gates on) but must never tear it down.
	for i := 0; i < int(e.cfg.LeaseTicks())*3; i++ {
		e.beat(0)
	}
	if !e.h.Alive(3) {
		t.Fatal("slow-but-live thread was torn down")
	}
	if e.count(3, KindRepair) != 0 {
		t.Fatalf("slow thread was repaired: %v", e.kinds(3))
	}
	if e.count(3, KindFalseAlarm) == 0 || e.falseTakeovers() == 0 {
		t.Fatalf("expected false-alarm claims on the expired-but-alive slot, got %v", e.kinds(3))
	}

	// When it resumes, its own epoch still renews (claims never touch the
	// lease word), and the pod goes quiet again.
	if c := e.beat(3); c != nil {
		t.Fatalf("resumed thread fenced: %+v", c)
	}
	before := len(e.events)
	for i := 0; i < int(e.cfg.LeaseTicks())-2; i++ {
		e.beat(0)
		e.beat(3)
	}
	for _, ev := range e.events[before:] {
		if ev.Victim == 3 && ev.Kind != KindSelfFence {
			t.Fatalf("renewed thread still hunted: %+v", ev)
		}
	}
}

// Two processes' watchdogs sweep concurrently. One that read a victim's
// lease expired, and reaches the claim only after the other has repaired
// the victim and released its own claim, finds a healthy slot under a new
// lease incarnation: that is not a takeover of anything, false or
// otherwise, and it must leave the slot and the claim word alone.
func TestSweepOvertakenByAnotherRepairIsNotAFalseTakeover(t *testing.T) {
	e := newTenv(t, Config{})
	e.lease(0, 2, 3)
	e.h.MarkCrashed(3)
	seen, deadline := e.h.LeaseRead(0, 3)
	now := deadline + 1
	for e.h.ClockNow(2) < now {
		e.h.ClockTick(2)
	}
	for _, tid := range []int{0, 2} { // the survivors kept renewing
		e.h.LeaseRenew(tid, e.epochs[tid], now+e.cfg.LeaseTicks())
	}

	// Process 1 (tid 2) sweeps, claims, repairs and re-leases the victim.
	e.mgrs[1].Poll(2, e.epochs[2], now)
	if got := e.count(3, KindRepair); got != 1 || !e.h.Alive(3) || !e.h.Leased(3) {
		t.Fatalf("victim not repaired by the first sweep: %v", e.kinds(3))
	}
	before := len(e.events)

	// Process 0 (tid 0) read the lease before that repair and gets to the
	// claim after it.
	m := e.mgrs[0]
	m.pollMu.Lock()
	m.pollSlot(0, 3, e.epochs[0], now, seen)
	m.pollMu.Unlock()

	if n := e.falseTakeovers(); n != 0 {
		t.Fatalf("false takeovers = %d, want 0", n)
	}
	if len(e.events) != before {
		t.Fatalf("the overtaken sweep emitted %+v", e.events[before:])
	}
	if holder, _, held := e.h.ClaimRead(0, 3); held {
		t.Fatalf("victim's claim word still held by %d", holder)
	}
	if _, ok := m.pending[3]; ok {
		t.Fatal("the overtaken sweep left a pending claim")
	}
}

func TestOrphanRescue(t *testing.T) {
	e := newTenv(t, Config{})
	e.lease(0, 3)
	rescued := -1
	e.rescue = func(v int) bool { rescued = v; return true }

	// An orphan: the slot committed a repair (alive, bound to space 1) but
	// its repairer died before re-leasing it — the lease word still holds
	// the dead incarnation's expired epoch while the in-memory incarnation
	// is unleased.
	e.h.MarkCrashed(3)
	if _, err := e.h.RecoverThread(3, e.spaces[1]); err != nil {
		t.Fatal(err)
	}
	if e.h.Leased(3) || !e.h.Alive(3) {
		t.Fatal("setup: want alive and unleased")
	}

	e.converge([]int{0}, 3)

	if rescued != 3 {
		t.Fatalf("rescue hook saw %d, want 3", rescued)
	}
	if e.count(3, KindRescue) != 1 || e.count(3, KindRepair) != 0 {
		t.Fatalf("events: %v", e.kinds(3))
	}
}

// A repaired slot changes owner before it is leased. The pod layer hands
// out no handle for an alive-but-unleased slot, so in this order nobody
// can hold the slot under its old owner; in the other order a worker
// waiting for the repair could, and kept that handle after the old
// owner's process was killed.
func TestRepairAdoptsBeforeItLeases(t *testing.T) {
	e := newTenv(t, Config{})
	e.lease(0, 2, 3)
	e.h.MarkCrashed(3)
	adopted := 0
	e.adopt = func(v int) {
		adopted++
		if v != 3 || !e.h.Alive(3) {
			t.Errorf("adopt hook saw victim %d (alive=%v), want the repaired slot 3", v, e.h.Alive(3))
		}
		if e.h.Leased(3) {
			t.Error("slot 3 was leased before it was adopted: a handle minted now would name the old owner")
		}
	}
	e.converge([]int{0}, 3)
	if adopted != 1 {
		t.Fatalf("adopt hook ran %d times, want 1", adopted)
	}
}
