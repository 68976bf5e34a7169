package chaos

import (
	"fmt"
	"strings"
	"testing"
)

// TestPersistSweepPasses is the adversarial persistence gate: every
// instrumented crash point, crossed with every enumerated (or sampled)
// persist subset of the crash-time write window, must recover to a heap
// that passes both the shape invariants and the drain-time ledger audit.
func TestPersistSweepPasses(t *testing.T) {
	cfg := DefaultPersistConfig()
	cfg.SubsetCap = 5 // 2^5-1 cells per wider window; keeps the gate fast
	cfg.Samples = 6
	rep, err := PersistSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(rep.Summary())
	if !rep.Ok() {
		for _, v := range rep.Violations {
			t.Errorf("violation at %s mask=%#x: %s\n  minimized mask=%#x dropped=%v: %s\n  repro: %s",
				v.Point, v.Mask, v.Err, v.MinMask, v.MinDrop, v.MinErr, v.Repro)
		}
		for _, u := range rep.Unfired {
			t.Errorf("crash point never fired: %s", u)
		}
		for _, e := range rep.Errors {
			t.Errorf("sweep error: %s", e)
		}
	}
	if rep.CellsRun == 0 || rep.LinesDropped == 0 {
		t.Fatalf("sweep ran no adversarial cells (cells=%d, dropped=%d) — the adversary is not wired",
			rep.CellsRun, rep.LinesDropped)
	}
}

// TestPersistSweepFailsOnUnvisitedPoint pins that a point filter is no
// way to pass vacuously: a repro line naming a point the script no
// longer visits fails by name instead of sweeping nothing.
func TestPersistSweepFailsOnUnvisitedPoint(t *testing.T) {
	cfg := DefaultPersistConfig()
	cfg.Points = []string{"no.such.point"}
	rep, err := PersistSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("point %q never visited at seed %d", "no.such.point", cfg.Seed)
	if rep.Ok() || len(rep.Errors) != 1 || rep.Errors[0] != want {
		t.Fatalf("sweep of an unvisited point: ok=%v errors=%q, want one error %q", rep.Ok(), rep.Errors, want)
	}
	if len(rep.Points) != 0 || rep.CellsRun != 0 {
		t.Fatalf("sweep of an unvisited point ran %d points, %d cells", len(rep.Points), rep.CellsRun)
	}
}

// TestPersistSweepCatchesMissingOplogFlush is the mutation meta-test:
// removing the recovery record's durability flush (the allocator's only
// hot-path flush) must be detected by the sweep, and the failing cell
// must delta-debug to a minimal, deterministically replayable
// counterexample. If this test fails, the adversary has lost its teeth.
func TestPersistSweepCatchesMissingOplogFlush(t *testing.T) {
	cfg := DefaultPersistConfig()
	cfg.SkipOplogFlush = true
	cfg.Points = []string{"small.alloc.post-take"}
	rep, err := PersistSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(rep.Summary())
	if len(rep.Violations) == 0 {
		t.Fatal("sweep did not catch the missing oplog flush: a lost recovery record went unnoticed")
	}
	v := rep.Violations[0]
	if v.Repro == "" || !strings.Contains(v.Repro, "-persist-mutate") {
		t.Fatalf("violation carries no mutated repro line: %+v", v)
	}
	if len(v.MinDrop) == 0 {
		t.Fatalf("violation was not minimized: %+v", v)
	}
	// The minimized counterexample must replay deterministically.
	win, rerr := ReplayPersistCell(cfg, v.Point, v.MinMask)
	if rerr == nil {
		t.Fatalf("minimized cell (point=%s mask=%#x) replayed clean — repro is not deterministic", v.Point, v.MinMask)
	}
	if rerr.Error() != v.MinErr {
		t.Fatalf("replay failure diverged: got %q, sweep recorded %q", rerr, v.MinErr)
	}
	t.Logf("minimized: window=%d drop=%v err=%q", win, v.MinDrop, v.MinErr)
}

// TestPersistSweepCatchesLateHandoffRecord is the second mutation
// meta-test, guarding the one-line magazine pop (DESIGN.md §7.1): the
// pop's handoff record rides in the magazine line and commits with the
// mask-clear under one fence, so storing the record after that fence
// lets the mask-clear persist while the record is dropped. The sweep
// must catch the resulting lost block at the pop's crash point and
// minimize the counterexample.
func TestPersistSweepCatchesLateHandoffRecord(t *testing.T) {
	cfg := DefaultPersistConfig()
	cfg.LateHandoffRecord = true
	cfg.Points = []string{"small.magalloc.post-take"}
	rep, err := PersistSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Log(rep.Summary())
	if len(rep.Violations) == 0 {
		t.Fatal("sweep did not catch the late handoff record: a dropped magazine pop record went unnoticed")
	}
	v := rep.Violations[0]
	if v.Repro == "" || !strings.Contains(v.Repro, "-persist-mutate-record") {
		t.Fatalf("violation carries no mutated repro line: %+v", v)
	}
	if len(v.MinDrop) == 0 {
		t.Fatalf("violation was not minimized: %+v", v)
	}
	win, rerr := ReplayPersistCell(cfg, v.Point, v.MinMask)
	if rerr == nil {
		t.Fatalf("minimized cell (point=%s mask=%#x) replayed clean — repro is not deterministic", v.Point, v.MinMask)
	}
	if rerr.Error() != v.MinErr {
		t.Fatalf("replay failure diverged: got %q, sweep recorded %q", rerr, v.MinErr)
	}
	t.Logf("minimized: window=%d drop=%v err=%q", win, v.MinDrop, v.MinErr)
}

// TestSWccCrashRegressions pins the two SWcc-mode crash-recovery bugs
// the persist sweep surfaced. Its cells run under ModeHWcc with the
// writeback-all crash path (no persist adversary): both bugs fire there,
// and ModeDRAM sweeps (coherent caches, no staleness) never see them.
//
//   - large.pop-global.post-cas: recovery's rebuild scan left a crashed
//     thread's descriptor lines resident, so after a thief stole and
//     reinitialized a detached slab, the old owner's stale owner==me
//     copy misrouted a free of the new incarnation down the local path
//     ("local free into unsized slab" / "pointer handed out twice").
//   - large.push-global.post-cas: same mechanism, surfacing as a
//     double handout after the fabricated empty transition.
func TestSWccCrashRegressions(t *testing.T) {
	cfg := DefaultPersistConfig()
	for _, point := range []string{
		"large.pop-global.post-cas",
		"large.push-global.post-cas",
		"large.pop-global.post-push",
	} {
		res := runCell(cfg.cell(point, nil))
		if !res.fired {
			t.Errorf("%s: crash point never fired", point)
		}
		if res.err != "" {
			t.Errorf("%s: %s", point, res.err)
		}
	}
}

// TestRemoteFreeRedoStealsOnlyItsOwnZero pins the double ownership at
// large.remote-free.post-cas. The crashed freer's decrement left the
// countdown above zero; survivors running before its recovery freed the
// slab's last block, and that freer stole it. Recovery then read the
// zero countdown as its own and stole the slab a second time, so one
// slab sat on two threads' lists ("slab 0 on thread 1's unsized list has
// owner 4") and its blocks were handed out twice. Seeds 3 and 4 reach
// that interleaving in both the manual DRAM sweep and the HWcc persist
// probe.
func TestRemoteFreeRedoStealsOnlyItsOwnZero(t *testing.T) {
	const point = "large.remote-free.post-cas"
	for _, seed := range []uint64{3, 4} {
		cfg, pcfg := DefaultConfig(), DefaultPersistConfig()
		cfg.Seed, pcfg.Seed = seed, seed
		for name, c := range map[string]cell{
			"dram-thread-crash":  cfg.cell(point, ModeThreadCrash),
			"hwcc-persist-probe": pcfg.cell(point, persistAll),
		} {
			res := runCell(c)
			if !res.fired {
				t.Errorf("seed %d %s: crash point never fired", seed, name)
			}
			if res.err != "" {
				t.Errorf("seed %d %s: %s", seed, name, res.err)
			}
		}
	}
}
