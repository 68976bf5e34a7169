package chaos

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cxlalloc/internal/crash"
	"cxlalloc/internal/xrand"
)

// fakeHarness is a kernel client with no pod: a clock that advances by
// a fixed step per read, a planner that draws its spec from the
// injector's stream, and an apply that only remembers what it was given.
type fakeHarness struct {
	clock   atomic.Uint64
	stop    atomic.Bool
	gates   Gates
	mu      sync.Mutex
	applied []FaultSpec
	at      []time.Time
}

func (h *fakeHarness) tick() uint64 { return h.clock.Add(1000) }

func (h *fakeHarness) plan(i int, rng *xrand.Rand) (FaultSpec, bool) {
	return FaultSpec{I: i, Kind: FaultThreadKill, Victims: []int{rng.Intn(4)}, ArmSeed: rng.Uint64()}, true
}

func (h *fakeHarness) apply(spec FaultSpec) FaultOutcome {
	h.mu.Lock()
	h.applied = append(h.applied, spec)
	h.at = append(h.at, time.Now())
	h.mu.Unlock()
	return FaultOutcome{I: spec.I, Kind: spec.Kind, Note: fmt.Sprintf("applied %d", spec.I)}
}

func (h *fakeHarness) injector(d time.Duration, rate float64, replay []FaultSpec) *Injector {
	return &Injector{
		Seed: 42, FaultRate: rate, Duration: d, Replay: replay,
		Clock: h.tick, Stop: &h.stop, Gates: &h.gates,
		Plan: h.plan, Apply: h.apply,
	}
}

// runBounded fails the test if Run has not returned within a second —
// every case here is milliseconds of work.
func runBounded(t *testing.T, in *Injector, start time.Time) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		in.Run(start)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		in.Stop.Store(true)
		<-done
		t.Fatal("Injector.Run did not return within 1s")
	}
}

func TestInjectorRecordThenReplay(t *testing.T) {
	rec := new(fakeHarness)
	in := rec.injector(80*time.Millisecond, 500, nil)
	start := time.Now()
	runBounded(t, in, start)
	if len(in.Schedule) == 0 {
		// An 80ms window is far shorter than TailGrace; injecting at all
		// shows the tail scaled down to a quarter of the window.
		t.Fatal("record run injected nothing: the tail grace did not scale down to the short window")
	}
	if last := rec.at[len(rec.at)-1]; last.After(start.Add(80 * time.Millisecond)) {
		t.Fatalf("fault applied %v after the start of an 80ms window", last.Sub(start))
	}
	var prev uint64
	for i, spec := range in.Schedule {
		if spec.I != i || spec.AtTick <= prev {
			t.Fatalf("spec %d: I=%d AtTick=%d (previous %d): want dense indices and rising clock stamps", i, spec.I, spec.AtTick, prev)
		}
		prev = spec.AtTick
	}
	if in.ReplayOK() {
		t.Fatal("ReplayOK is true in record mode")
	}

	// A second record run of the same seed draws the same fault stream.
	again := new(fakeHarness)
	in2 := again.injector(80*time.Millisecond, 500, nil)
	runBounded(t, in2, time.Now())
	for i := 0; i < len(in.Schedule) && i < len(in2.Schedule); i++ {
		if in.Schedule[i].ArmSeed != in2.Schedule[i].ArmSeed || in.Schedule[i].Victims[0] != in2.Schedule[i].Victims[0] {
			t.Fatalf("spec %d differs between two record runs of one seed", i)
		}
	}

	rep := new(fakeHarness)
	rin := rep.injector(80*time.Millisecond, 500, in.Schedule)
	runBounded(t, rin, time.Now())
	if !SameSchedule(in.Schedule, rin.Schedule) || !rin.ReplayOK() {
		t.Fatalf("replay emitted a different schedule:\nrecorded %+v\nreplayed %+v", in.Schedule, rin.Schedule)
	}
	if !SameSchedule(in.Schedule, rep.applied) {
		t.Fatalf("replay applied %+v, want the recorded specs in order", rep.applied)
	}
	for i, out := range rin.Outcomes {
		if out.I != i || out.Note != fmt.Sprintf("applied %d", i) {
			t.Fatalf("outcome %d = %+v: outcomes must be logged in apply order", i, out)
		}
	}
	if v := rep.gates.Violations(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}

	// A replay that emits anything else is a violation.
	rin.Schedule[0].ArmSeed++
	if rin.ReplayOK() || len(rep.gates.Violations()) != 1 {
		t.Fatalf("a drifted schedule passed the replay gate (violations %v)", rep.gates.Violations())
	}
}

func TestInjectorStopsMidGapAndMidWaitTick(t *testing.T) {
	t.Run("gap", func(t *testing.T) {
		h := new(fakeHarness)
		in := h.injector(time.Minute, 0.1, nil) // first gap is 5-15 s
		time.AfterFunc(10*time.Millisecond, func() { h.stop.Store(true) })
		runBounded(t, in, time.Now())
		if len(h.applied) != 0 {
			t.Fatalf("applied %d faults after a stop inside the first gap", len(h.applied))
		}
	})
	t.Run("waitTick", func(t *testing.T) {
		h := new(fakeHarness)
		in := h.injector(time.Minute, 1, []FaultSpec{{I: 0, AtTick: 1 << 60}, {I: 1, AtTick: 1 << 61}})
		time.AfterFunc(10*time.Millisecond, func() { h.stop.Store(true) })
		runBounded(t, in, time.Now())
		if len(h.applied) > 1 {
			t.Fatalf("applied %d specs: the spec after the interrupted wait must not run", len(h.applied))
		}
	})
}

func TestGatesCapAndRace(t *testing.T) {
	var g Gates
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				g.Violationf("worker %d violation %d", w, i)
				g.LostAckf("worker %d lost ack %d", w, i)
				_ = g.Violations()
			}
		}(w)
	}
	wg.Wait()
	if v, l := g.Violations(), g.LostAcks(); len(v) != gateCap || len(l) != gateCap {
		t.Fatalf("kept %d violations and %d lost acks of 800 each, want %d", len(v), len(l), gateCap)
	}
	if !strings.HasPrefix(g.Violations()[0], "worker ") {
		t.Fatalf("entry not formatted: %q", g.Violations()[0])
	}
}

func TestKillInOp(t *testing.T) {
	armed := func(inj *crash.Injector, tid int) bool {
		return crash.Run(func() { inj.Point(tid, "p") }) != nil
	}

	t.Run("sticky", func(t *testing.T) {
		// Victim 7 is dead at the first poll and revived (by a watchdog)
		// before the second; victim 9 dies at the third poll.
		inj := crash.NewInjector()
		polls := map[int]int{}
		sawArmed := false
		alive := func(tid int) bool {
			polls[tid]++
			sawArmed = sawArmed || armed(inj, tid)
			if tid == 7 {
				return polls[tid] != 1
			}
			return polls[tid] < 3
		}
		died := KillInOp(inj, 1, 1, []int{7, 9}, alive, time.Now().Add(time.Second))
		if len(died) != 2 || died[0] != 7 || died[1] != 9 {
			t.Fatalf("died = %v, want [7 9]: a death seen once counts even if the victim is revived", died)
		}
		if !sawArmed {
			t.Fatal("victims were never armed while being watched")
		}
		if armed(inj, 7) || armed(inj, 9) {
			t.Fatal("injector still armed after KillInOp returned")
		}
	})

	t.Run("deadline", func(t *testing.T) {
		inj := crash.NewInjector()
		alive := func(tid int) bool { return tid != 3 } // 5 never dies
		start := time.Now()
		died := KillInOp(inj, 1, 1, []int{5, 3}, alive, start.Add(5*time.Millisecond))
		if len(died) != 1 || died[0] != 3 {
			t.Fatalf("died = %v, want the partial set [3]", died)
		}
		if time.Since(start) > time.Second {
			t.Fatalf("KillInOp overran a 5ms deadline by %v", time.Since(start))
		}
		if armed(inj, 5) {
			t.Fatal("injector still armed after the deadline path")
		}
	})

	t.Run("nobody", func(t *testing.T) {
		inj := crash.NewInjector()
		if died := KillInOp(inj, 1, 1, nil, func(int) bool { return true }, time.Now().Add(time.Second)); died != nil {
			t.Fatalf("died = %v with no victims", died)
		}
		if armed(inj, 0) {
			t.Fatal("no victims must arm no thread (ArmRandom with no tids arms all)")
		}
	})
}

func TestConvergeReportsWhatIsStillOutstanding(t *testing.T) {
	var g Gates
	calls := 0
	g.Converge(time.Second, func() []string {
		if calls++; calls < 3 {
			return []string{"slot 1 not alive+leased"}
		}
		return nil
	})
	if v := g.Violations(); len(v) != 0 {
		t.Fatalf("converged run recorded %v", v)
	}
	g.Converge(3*time.Millisecond, func() []string { return []string{"a", "b"} })
	v := g.Violations()
	if len(v) != 2 || v[0] != "convergence: a after 3ms" || v[1] != "convergence: b after 3ms" {
		t.Fatalf("violations = %q, want one per outstanding complaint", v)
	}
}

// The audit can fail, and for the right reason: each planted fault must
// produce exactly its own gate entry and nothing else.
func TestAuditCatchesEachPlantedFault(t *testing.T) {
	const keys = 8
	cases := []struct {
		name                 string
		plant                func(t *testing.T, pt *PodTarget, orc *Oracle)
		violations, lostAcks int
		want                 string
	}{
		{"clean", func(*testing.T, *PodTarget, *Oracle) {}, 0, 0, ""},
		{"acked key missing", func(t *testing.T, pt *PodTarget, orc *Oracle) {
			if !pt.Store.Delete(0, KeyBytes(nil, 2)) {
				t.Fatal("plant: key 2 was not there to delete")
			}
		}, 0, 1, "final: key 2 acked ver 1 missing"},
		{"stale version", func(t *testing.T, pt *PodTarget, orc *Oracle) {
			// The oracle has ver 2 acknowledged; the store never got it.
			orc.Begin(3, KVState{Ver: orc.NextVersion(3), Present: true})
			orc.Ack(3)
		}, 0, 1, "final: key 3 has ver 1, oracle has {ver 2 present true}"},
		{"corrupt value", func(t *testing.T, pt *PodTarget, orc *Oracle) {
			val := EncodeVal(nil, 4, 1)
			val[len(val)-1] ^= 0x40
			if err := pt.Store.Put(0, KeyBytes(nil, 4), val); err != nil {
				t.Fatal(err)
			}
		}, 1, 0, "final: key 4 corrupt"},
		{"allocation leaked past teardown", func(t *testing.T, pt *PodTarget, orc *Oracle) {
			if _, err := pt.Pod.Heap().Alloc(0, 64); err != nil {
				t.Fatal(err)
			}
		}, 1, 0, "ledger audit"},
		{"op left unresolved", func(t *testing.T, pt *PodTarget, orc *Oracle) {
			orc.Begin(5, KVState{})
		}, 1, 0, "key 5: op still unresolved at audit"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pt, err := NewPodTarget(2, 1, keys, 16, 4, nil)
			if err != nil {
				t.Fatal(err)
			}
			orc := NewOracle(keys)
			for k := 0; k < keys; k++ {
				ver := orc.NextVersion(k)
				orc.Begin(k, KVState{Ver: ver, Present: true})
				if err := pt.Store.Put(0, KeyBytes(nil, k), EncodeVal(nil, k, ver)); err != nil {
					t.Fatal(err)
				}
				orc.Ack(k)
			}
			tc.plant(t, pt, orc)
			var g Gates
			pt.Audit(&g, orc, keys, 2)
			v, l := g.Violations(), g.LostAcks()
			if len(v) != tc.violations || len(l) != tc.lostAcks {
				t.Fatalf("violations %q, lost acks %q; want %d and %d", v, l, tc.violations, tc.lostAcks)
			}
			if got := append(v, l...); tc.want != "" && !strings.Contains(got[0], tc.want) {
				t.Fatalf("gate entry %q does not name the planted fault (%q)", got[0], tc.want)
			}
		})
	}
}
