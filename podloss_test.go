package cxlalloc

import (
	"testing"
)

// TestPodLossAllSlotsDark covers the whole-pod failure mode the fabric
// layer (internal/fabric) builds on: every thread slot in the pod goes
// dark at the same instant, leaving no survivor to drive the watchdog.
//
// Two invariants:
//
//  1. A fully dark pod is inert. The watchdog rides on Thread.Run, so
//     with zero live threads there is no claim storm and no phantom
//     repair — the pod waits for an external rescuer (a fabric failover,
//     or an operator Restart as here).
//  2. After one dead process Restarts, its threads' watchdog repairs
//     every remaining dark slot exactly once each — concurrent pollers
//     must not double-claim — with zero false takeovers, and the heap
//     audits clean with all pre-kill data intact.
func TestPodLossAllSlotsDark(t *testing.T) {
	pod, err := NewPodWith(PodConfig{
		Config:      smallPodConfig(),
		AutoRecover: true,
		// The driver below is a single goroutine rotating over the
		// restarted threads, so no slot can be starved of renewals by
		// scheduler skew — a modest grace (1024 ticks) is deterministic
		// here. Wall-clock harnesses (livechaos, fabricchaos) calibrate
		// grace against measured tick rate instead.
		Liveness: LivenessConfig{RenewInterval: 4, GraceMult: 256, PollInterval: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	const threads = 8 // smallPodConfig's NumThreads
	procA, procB := pod.NewProcess(), pod.NewProcess()
	owner := func(tid int) *Process {
		if tid%2 == 0 {
			return procA
		}
		return procB
	}
	for tid := 0; tid < threads; tid++ {
		if _, err := owner(tid).AttachThreadID(tid); err != nil {
			t.Fatal(err)
		}
	}

	// Warm every slot: allocate a marked block per thread so the repair
	// path has live state to walk, and so data survival is checkable.
	held := make([]Ptr, threads)
	for tid := 0; tid < threads; tid++ {
		th, err := pod.ThreadOf(tid)
		if err != nil {
			t.Fatal(err)
		}
		if c := th.Run(func() {
			p, aerr := th.Alloc(256)
			if aerr != nil {
				t.Errorf("tid %d: %v", tid, aerr)
				return
			}
			b := th.Bytes(p, 8)
			b[0] = byte('A' + tid)
			held[tid] = p
		}); c != nil {
			t.Fatalf("unexpected crash warming tid %d at %s", c.TID, c.Point)
		}
	}

	// Lights out: both processes die, so all eight slots go dark at once.
	if got := len(pod.KillProcess(procA)) + len(pod.KillProcess(procB)); got != threads {
		t.Fatalf("killed %d slots, want %d", got, threads)
	}
	for tid := 0; tid < threads; tid++ {
		if pod.Heap().Alive(tid) {
			t.Fatalf("tid %d still alive after whole-pod kill", tid)
		}
	}

	// Invariant 1: nothing stirs. No survivor means no watchdog tick, so
	// the pod must show zero claims, zero repairs, zero false takeovers.
	for _, ev := range pod.LivenessEvents() {
		if ev.Kind == LivenessClaim || ev.Kind == LivenessRepair {
			t.Fatalf("phantom %v on dark pod: victim %d", ev.Kind, ev.Victim)
		}
	}
	if n := pod.FalseTakeovers(); n != 0 {
		t.Fatalf("dark pod recorded %d false takeovers", n)
	}

	// Rescue: restart process A only. Its four slots come back through
	// the restart protocol; process B's four stay dark with expired
	// leases for the watchdog to find.
	newA, reports, err := procA.Restart()
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != threads/2 {
		t.Fatalf("restart recovered %d slots, want %d", len(reports), threads/2)
	}

	// Drive the restarted threads round-robin: every Run ticks the pod
	// clock and renews the caller's lease, and the rotating pollers must
	// still repair each dark slot exactly once (claim generations and
	// the poll-window CAS arbitrate, even though every poll is a
	// candidate claimant).
	drivers := make([]*Thread, 0, threads/2)
	for _, tid := range newA.TIDs() {
		th, terr := newA.Thread(tid)
		if terr != nil {
			t.Fatal(terr)
		}
		drivers = append(drivers, th)
	}
	repaired := func() map[int]int {
		n := make(map[int]int)
		for _, ev := range pod.LivenessEvents() {
			if ev.Kind == LivenessRepair {
				n[ev.Victim]++
			}
		}
		return n
	}
	const maxSteps = 1 << 20
	done := false
	for i := 0; i < maxSteps && !done; i++ {
		th := drivers[i%len(drivers)]
		if c := th.Run(func() {
			q, aerr := th.Alloc(64)
			if aerr == nil {
				th.Free(q)
			}
		}); c != nil {
			t.Fatalf("driver tid %d crashed at %s", c.TID, c.Point)
		}
		if i%1024 == 0 {
			done = len(repaired()) == threads/2
		}
	}
	if !done && len(repaired()) != threads/2 {
		t.Fatalf("watchdog repaired only %v within %d steps", repaired(), maxSteps)
	}

	// Invariant 2: each of B's slots repaired exactly once, no false
	// alarms, no false takeovers, and the dark slots' data survived into
	// the adopting process.
	got := repaired()
	for tid := 1; tid < threads; tid += 2 {
		if got[tid] != 1 {
			t.Errorf("tid %d repaired %d times, want exactly 1", tid, got[tid])
		}
	}
	for tid := 0; tid < threads; tid += 2 {
		if got[tid] != 0 {
			t.Errorf("restarted tid %d repaired %d times by watchdog, want 0", tid, got[tid])
		}
	}
	for _, ev := range pod.LivenessEvents() {
		if ev.Kind == LivenessFalseAlarm {
			t.Errorf("false alarm on tid %d", ev.Victim)
		}
		if ev.Kind == LivenessClaim && ev.WasAlive {
			t.Errorf("claim on live-and-leased tid %d", ev.Victim)
		}
	}
	if n := pod.FalseTakeovers(); n != 0 {
		t.Errorf("%d false takeovers after rescue", n)
	}
	for tid := 0; tid < threads; tid++ {
		th, terr := pod.ThreadOf(tid)
		if terr != nil {
			t.Fatalf("tid %d unreachable after rescue: %v", tid, terr)
		}
		if b := th.Bytes(held[tid], 8); b[0] != byte('A'+tid) {
			t.Errorf("tid %d data lost across repair: got %q", tid, b[0])
		}
		th.Free(held[tid])
	}
	th0, _ := pod.ThreadOf(0)
	th0.Maintain()
	if err := pod.Heap().CheckAll(0); err != nil {
		t.Fatalf("heap audit after whole-pod rescue: %v", err)
	}
}

// TestNoHandleForSlotMidRepair: between a repair's commit (the slot is
// alive again) and its new lease, the slot still names its old owner
// and carries lease epoch 0. A handle minted then would heartbeat
// through the old owner's watchdog — which may be killed later, since by
// the pod's books it no longer owns the slot — and epoch 0 never renews
// and never self-fences. livechaos hit exactly that about once in fifty
// loaded runs: a victim repaired into a dead process's revoked space
// ("watchdog repair did not arrive", millions of false alarms), or a
// worker segfaulting in a dead process.
func TestNoHandleForSlotMidRepair(t *testing.T) {
	pod, err := NewPodWith(PodConfig{Config: smallPodConfig(), AutoRecover: true})
	if err != nil {
		t.Fatal(err)
	}
	procA := pod.NewProcess()
	th, err := procA.AttachThreadID(0)
	if err != nil {
		t.Fatal(err)
	}
	th.Kill()
	// The repair commits (what the watchdog's RecoverThreadFenced does)…
	if _, err := pod.Heap().RecoverThread(0, procA.Space()); err != nil {
		t.Fatal(err)
	}
	if !pod.Heap().Alive(0) || pod.Heap().Leased(0) {
		t.Fatal("setup: want slot 0 alive and not yet leased")
	}
	if _, err := pod.ThreadOf(0); err == nil {
		t.Fatal("a handle was minted for a slot that is alive but not yet leased")
	}
	// …and is adopted, then leased: now the slot can be held.
	pod.Heap().LeaseAcquire(0, pod.Heap().ClockNow(0)+pod.leaseTicks())
	nth, err := pod.ThreadOf(0)
	if err != nil {
		t.Fatalf("leased slot refused: %v", err)
	}
	if c := nth.Run(func() {}); c != nil {
		t.Fatalf("fresh handle crashed at %s", c.Point)
	}
}
