package cxlalloc

import (
	"errors"
	"sync"
	"testing"

	"cxlalloc/internal/atomicx"
	"cxlalloc/internal/crash"
)

func smallPodConfig() Config {
	cfg := DefaultConfig()
	cfg.NumThreads = 8
	cfg.MaxSmallSlabs = 64
	cfg.MaxLargeSlabs = 8
	cfg.HugeRegionSize = 1 << 20
	cfg.NumReservations = 8
	cfg.DescsPerThread = 16
	cfg.NumHazards = 8
	return cfg
}

func TestPodQuickstart(t *testing.T) {
	pod, err := NewPod(smallPodConfig())
	if err != nil {
		t.Fatal(err)
	}
	proc := pod.NewProcess()
	th, err := proc.AttachThread()
	if err != nil {
		t.Fatal(err)
	}
	p, err := th.Alloc(128)
	if err != nil {
		t.Fatal(err)
	}
	copy(th.Bytes(p, 5), "hello")
	if got := string(th.Bytes(p, 5)); got != "hello" {
		t.Fatalf("read back %q", got)
	}
	if th.UsableSize(p) < 128 {
		t.Fatal("usable size too small")
	}
	th.Free(p)
	if f := th.Footprint(); f.Total() == 0 {
		t.Fatal("footprint empty after use")
	}
}

func TestPodCrossProcessSharing(t *testing.T) {
	pod, _ := NewPod(smallPodConfig())
	procA, procB := pod.NewProcess(), pod.NewProcess()
	if procA.ID() == procB.ID() {
		t.Fatal("duplicate process IDs")
	}
	a, _ := procA.AttachThread()
	b, _ := procB.AttachThread()
	p, err := a.Alloc(1024)
	if err != nil {
		t.Fatal(err)
	}
	copy(a.Bytes(p, 9), "cxl-pod-!")
	if got := string(b.Bytes(p, 9)); got != "cxl-pod-!" {
		t.Fatalf("cross-process read = %q", got)
	}
	if procB.FaultStats().Faults == 0 {
		t.Fatal("process B read without faulting: PC-T untested")
	}
	b.Free(p) // remote free
}

func TestPodThreadSlotManagement(t *testing.T) {
	cfg := smallPodConfig()
	cfg.NumThreads = 2
	pod, _ := NewPod(cfg)
	proc := pod.NewProcess()
	t1, err := proc.AttachThread()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := proc.AttachThreadID(t1.ID()); err == nil {
		t.Fatal("claimed an in-use slot")
	}
	t2, err := proc.AttachThreadID(1)
	if err != nil {
		t.Fatal(err)
	}
	if t1.ID() == t2.ID() {
		t.Fatal("duplicate thread IDs")
	}
	if _, err := proc.AttachThread(); err == nil {
		t.Fatal("attached beyond NumThreads")
	}
	if _, err := proc.AttachThreadID(99); err == nil {
		t.Fatal("attached out-of-range slot")
	}
}

func TestPodCrashAndRecover(t *testing.T) {
	cfg := smallPodConfig()
	inj := crash.NewInjector()
	cfg.Crash = inj
	pod, _ := NewPod(cfg)
	proc := pod.NewProcess()
	th, _ := proc.AttachThread()

	inj.Arm("small.alloc.post-take", th.ID(), 0)
	c := th.Run(func() { th.Alloc(64) })
	if c == nil {
		t.Fatal("crash never fired")
	}
	inj.Disarm()

	th2, rep, err := proc.Recover(th.ID())
	if err != nil {
		t.Fatal(err)
	}
	if rep.PendingAlloc == 0 {
		t.Fatal("pending allocation not reported")
	}
	th2.Free(rep.PendingAlloc) // the app declines the orphaned block
	p, err := th2.Alloc(64)
	if err != nil {
		t.Fatal(err)
	}
	th2.Free(p)
}

func TestPodKillAndRecoverCrossProcess(t *testing.T) {
	pod, _ := NewPod(smallPodConfig())
	procA := pod.NewProcess()
	a, _ := procA.AttachThread()
	p, _ := a.Alloc(256)
	copy(a.Bytes(p, 4), "live")
	a.Kill()
	// The whole process died; recover the slot into a new process.
	procB := pod.NewProcess()
	b, rep, err := procB.Recover(a.ID())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Op != "none" {
		t.Fatalf("unexpected in-flight op %q", rep.Op)
	}
	if got := string(b.Bytes(p, 4)); got != "live" {
		t.Fatalf("data lost across process restart: %q", got)
	}
	b.Free(p)
}

func TestPodConcurrentThreads(t *testing.T) {
	pod, _ := NewPod(smallPodConfig())
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		proc := pod.NewProcess()
		th, err := proc.AttachThread()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(th *Thread) {
			defer wg.Done()
			for j := 0; j < 2000; j++ {
				p, err := th.Alloc(1 + j%1500)
				if err != nil {
					t.Errorf("thread %d: %v", th.ID(), err)
					return
				}
				th.Bytes(p, 1)[0] = byte(j)
				th.Free(p)
			}
		}(th)
	}
	wg.Wait()
}

func TestPodModes(t *testing.T) {
	for _, mode := range []atomicx.Mode{atomicx.ModeDRAM, atomicx.ModeHWcc, atomicx.ModeSWFlush, atomicx.ModeMCAS} {
		cfg := smallPodConfig()
		cfg.Mode = mode
		pod, err := NewPod(cfg)
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		proc := pod.NewProcess()
		th, _ := proc.AttachThread()
		p, err := th.Alloc(100)
		if err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
		th.Free(p)
	}
}

func TestPodHugeLifecycle(t *testing.T) {
	pod, _ := NewPod(smallPodConfig())
	proc := pod.NewProcess()
	th, _ := proc.AttachThread()
	p, err := th.Alloc(600 << 10) // > 512 KiB: huge heap
	if err != nil {
		t.Fatal(err)
	}
	b := th.Bytes(p, 600<<10)
	b[0], b[len(b)-1] = 1, 2
	th.Free(p)
	th.Maintain()
	// Space reclaimed: can allocate again repeatedly.
	for i := 0; i < 4; i++ {
		q, err := th.Alloc(600 << 10)
		if err != nil {
			t.Fatalf("round %d: %v", i, err)
		}
		th.Free(q)
		th.Maintain()
	}
}

func TestPodInvalidConfig(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NumThreads = -1
	if _, err := NewPod(cfg); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestPodKillProcessRestart(t *testing.T) {
	pod, _ := NewPod(smallPodConfig())
	procA, procB := pod.NewProcess(), pod.NewProcess()
	a1, _ := procA.AttachThread()
	a2, _ := procA.AttachThread()
	b, _ := procB.AttachThread()

	p, _ := a1.Alloc(256)
	copy(a1.Bytes(p, 4), "data")
	q, _ := a2.Alloc(600 << 10) // huge, to exercise hazard/interval rebuild
	a2.Bytes(q, 8)[0] = 7

	killed := pod.KillProcess(procA)
	if len(killed) != 2 {
		t.Fatalf("killed %v, want both of process A's threads", killed)
	}
	if !procA.Dead() {
		t.Fatal("process not marked dead")
	}
	if pod.KillProcess(procA) != nil {
		t.Fatal("second kill not idempotent")
	}
	// Dead process rejects new work.
	if _, err := procA.AttachThread(); err == nil {
		t.Fatal("attached thread to dead process")
	}
	if _, _, err := procA.Recover(a1.ID()); err == nil {
		t.Fatal("recovered into dead process")
	}
	// A stale handle faults instead of touching shared memory.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("stale thread handle did not segfault")
			}
		}()
		a1.Bytes(p, 4)
	}()

	// The surviving process keeps allocating while A is down (§3.4.1).
	for i := 0; i < 10; i++ {
		r, err := b.Alloc(128)
		if err != nil {
			t.Fatal(err)
		}
		b.Free(r)
	}

	procA2, reports, err := procA.Restart()
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("recovered %d slots, want 2", len(reports))
	}
	if got := procA2.TIDs(); len(got) != 2 {
		t.Fatalf("restarted process owns %v", got)
	}
	// Restarting the (live) new process fails typed.
	if _, _, err := procA2.Restart(); !errors.Is(err, ErrNotCrashed) {
		t.Fatalf("restart of live process: err = %v, want ErrNotCrashed", err)
	}
	// Data survives into the fresh address space; mappings fault back in.
	na1, err := procA2.Thread(a1.ID())
	if err != nil {
		t.Fatal(err)
	}
	if got := string(na1.Bytes(p, 4)); got != "data" {
		t.Fatalf("data lost across restart: %q", got)
	}
	na2, _ := procA2.Thread(a2.ID())
	if na2.Bytes(q, 8)[0] != 7 {
		t.Fatal("huge data lost across restart")
	}
	na1.Free(p)
	na2.Free(q)
	na2.Maintain()
	if err := pod.Heap().CheckAll(b.ID()); err != nil {
		t.Fatal(err)
	}
}

// Restart is claim-based: when two goroutines race to restart the same
// dead process, exactly one performs the recovery; the loser gets a
// typed error instead of double-recovering live slots (which the old
// check-then-act window allowed).
func TestPodRestartConcurrent(t *testing.T) {
	pod, _ := NewPod(smallPodConfig())
	procA, procB := pod.NewProcess(), pod.NewProcess()
	a1, _ := procA.AttachThread()
	a2, _ := procA.AttachThread()
	if _, err := procB.AttachThread(); err != nil {
		t.Fatal(err)
	}
	p1, _ := a1.Alloc(256)
	p2, _ := a2.Alloc(600 << 10)
	pod.KillProcess(procA)

	const racers = 4
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		wins []*Process
		errs []error
	)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			np, _, err := procA.Restart()
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				errs = append(errs, err)
			} else {
				wins = append(wins, np)
			}
		}()
	}
	wg.Wait()

	if len(wins) != 1 {
		t.Fatalf("%d restarts succeeded, want exactly 1 (errs: %v)", len(wins), errs)
	}
	for _, err := range errs {
		if !errors.Is(err, ErrRestartClaimed) && !errors.Is(err, ErrNotCrashed) {
			t.Fatalf("loser error = %v, want ErrRestartClaimed or ErrNotCrashed", err)
		}
	}
	np := wins[0]
	if got := np.TIDs(); len(got) != 2 {
		t.Fatalf("restarted process owns %v, want 2 slots", got)
	}
	nt1, err := np.Thread(a1.ID())
	if err != nil {
		t.Fatal(err)
	}
	nt2, err := np.Thread(a2.ID())
	if err != nil {
		t.Fatal(err)
	}
	nt1.Free(p1)
	nt2.Free(p2)
	nt2.Maintain()
	if err := pod.Heap().CheckAll(nt1.ID()); err != nil {
		t.Fatal(err)
	}
	// The settled loser keeps failing typed, and the winner's process is
	// itself restartable-rejected while alive.
	if _, _, err := procA.Restart(); !errors.Is(err, ErrNotCrashed) {
		t.Fatalf("post-race restart: err = %v, want ErrNotCrashed", err)
	}
	if _, _, err := np.Restart(); !errors.Is(err, ErrNotCrashed) {
		t.Fatalf("restart of live winner: err = %v, want ErrNotCrashed", err)
	}
}

func TestPodRecoverNotCrashedTyped(t *testing.T) {
	pod, _ := NewPod(smallPodConfig())
	proc := pod.NewProcess()
	th, _ := proc.AttachThread()
	if _, _, err := proc.Recover(th.ID()); !errors.Is(err, ErrNotCrashed) {
		t.Fatalf("recover of live thread: err = %v, want ErrNotCrashed", err)
	}
	th.Kill()
	th.Kill() // idempotent
	if _, _, err := proc.Recover(th.ID()); err != nil {
		t.Fatal(err)
	}
	if _, _, err := proc.Recover(th.ID()); !errors.Is(err, ErrNotCrashed) {
		t.Fatalf("second recover: err = %v, want ErrNotCrashed", err)
	}
}

// A crash during Restart's slot recovery leaves a re-runnable state: the
// harness marks the victim crashed and calls Restart again.
func TestPodRestartCrashRerun(t *testing.T) {
	cfg := smallPodConfig()
	inj := crash.NewInjector()
	cfg.Crash = inj
	pod, _ := NewPod(cfg)
	proc := pod.NewProcess()
	th1, _ := proc.AttachThread()
	th2, _ := proc.AttachThread()
	p1, _ := th1.Alloc(512)
	p2, _ := th2.Alloc(512)

	pod.KillProcess(proc)
	inj.Arm("recover.post-rebuild-small", th1.ID(), 0)
	var np *Process
	c := crash.Run(func() {
		var err error
		np, _, err = proc.Restart()
		if err != nil {
			t.Errorf("restart: %v", err)
		}
	})
	if c == nil {
		t.Fatal("crash inside Restart never fired")
	}
	inj.Disarm()
	pod.Heap().MarkCrashed(c.TID)

	np, reports, err := proc.Restart()
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 2 {
		t.Fatalf("second restart recovered %d slots, want 2", len(reports))
	}
	nt1, err := np.Thread(th1.ID())
	if err != nil {
		t.Fatal(err)
	}
	nt2, err := np.Thread(th2.ID())
	if err != nil {
		t.Fatal(err)
	}
	nt1.Free(p1)
	nt2.Free(p2)
	if err := pod.Heap().CheckAll(nt1.ID()); err != nil {
		t.Fatal(err)
	}
}

// A watchdog repair makes the slot alive first and adopts it second.
// In between its owner is still the dead process, and a handle minted
// then would run that process's watchdog and repair the next victim into
// its revoked space; ThreadOf has to say "not yet" instead.
func TestPodNoHandleFromDeadProcess(t *testing.T) {
	pod, _ := NewPod(smallPodConfig())
	dead, survivor := pod.NewProcess(), pod.NewProcess()
	th, _ := dead.AttachThread()
	tid := th.ID()
	pod.KillProcess(dead)
	// The first half of a repair: recovered into the survivor's space,
	// ownership not yet moved.
	if _, err := pod.Heap().RecoverThread(tid, survivor.Space()); err != nil {
		t.Fatal(err)
	}
	if h, err := pod.ThreadOf(tid); err == nil {
		t.Fatalf("ThreadOf minted a handle under dead process %d", h.Process().ID())
	}
	pod.adoptSlot(tid, survivor)
	h, err := pod.ThreadOf(tid)
	if err != nil || h.Process() != survivor {
		t.Fatalf("after adoption: handle %v, err %v; want one under the survivor", h, err)
	}
}
