package atomicx

import (
	"testing"

	"cxlalloc/internal/nmp"
)

// nmpCost runs f and returns the mCAS pairs, failed pairs and data-path
// loads the unit counted meanwhile.
func nmpCost(u *nmp.Unit, f func()) (pairs, failures, loads uint64) {
	s0 := u.Stats()
	f()
	s1 := u.Stats()
	return s1.SpRds - s0.SpRds, s1.Failures - s0.Failures, s1.Loads - s0.Loads
}

// helpWindow drives the one window the load-then-CAS help step opened:
// helper B has loaded help[A], seen A pending on the version tagged in
// the word it is about to overwrite, and not yet issued the help CAS.
type helpWindow struct {
	name string
	// during runs while B is parked in the window. It returns the
	// operation A is in when it then "crashes" — version, target word —
	// and whether that operation's CAS took effect.
	during func(d *DCAS) (ver uint16, w int, landed bool)
	// knownBound marks the cross-thread wrap instance the header comment
	// documents: Succeeded answers true for an operation that never
	// CASed. The unconditional help CAS gives the same answer when the
	// helper stalls just before it; the case is pinned, not excused.
	knownBound bool
}

const (
	hwA, hwB, hwC = 1, 2, 3 // thread IDs
	hwW, hwW2     = 10, 11  // target words
	hwV           = uint16(7)
)

// wrapA walks A through a full 16-bit turn of versions on word w2 so it
// ends up about to begin version hwV again.
func wrapA(d *DCAS, w2 int) {
	for i := 1; i < 1<<16; i++ {
		v := hwV + uint16(i)
		d.Begin(hwA, v)
		if !d.CAS(hwA, v, w2, d.Load(hwA, w2), uint32(i)) {
			panic("wrapA: uncontended CAS failed")
		}
	}
}

var helpWindows = []helpWindow{
	{name: "a/stays-in-op", during: func(d *DCAS) (uint16, int, bool) {
		return hwV, hwW, true
	}},
	{name: "b/helped-by-third-then-overwritten", during: func(d *DCAS) (uint16, int, bool) {
		d.Begin(hwC, 1)
		if !d.CAS(hwC, 1, hwW, d.Load(hwC, hwW), 300) {
			panic("C's overwrite failed")
		}
		return hwV, hwW, true
	}},
	{name: "b/helped-by-third-that-died-before-overwriting", during: func(d *DCAS) (uint16, int, bool) {
		d.helpBeforeOverwrite(hwC, d.Load(hwC, hwW))
		return hwV, hwW, true
	}},
	{name: "c/next-op-same-word/before-cas", during: func(d *DCAS) (uint16, int, bool) {
		d.Begin(hwA, hwV+1)
		return hwV + 1, hwW, false
	}},
	{name: "c/next-op-same-word/after-cas", during: func(d *DCAS) (uint16, int, bool) {
		d.Begin(hwA, hwV+1)
		if !d.CAS(hwA, hwV+1, hwW, d.Load(hwA, hwW), 101) {
			panic("A's next CAS failed")
		}
		return hwV + 1, hwW, true
	}},
	{name: "c/next-op-other-word/before-cas", during: func(d *DCAS) (uint16, int, bool) {
		d.Begin(hwA, hwV+1)
		return hwV + 1, hwW2, false
	}},
	{name: "c/next-op-other-word/after-cas", during: func(d *DCAS) (uint16, int, bool) {
		d.Begin(hwA, hwV+1)
		if !d.CAS(hwA, hwV+1, hwW2, d.Load(hwA, hwW2), 101) {
			panic("A's next CAS failed")
		}
		return hwV + 1, hwW2, true
	}},
	{name: "d/wraps-to-same-version-other-word/before-cas", knownBound: true,
		during: func(d *DCAS) (uint16, int, bool) {
			wrapA(d, hwW2)
			d.Begin(hwA, hwV)
			return hwV, hwW2, false
		}},
	{name: "d/wraps-to-same-version-other-word/after-cas", during: func(d *DCAS) (uint16, int, bool) {
		wrapA(d, hwW2)
		d.Begin(hwA, hwV)
		if !d.CAS(hwA, hwV, hwW2, d.Load(hwA, hwW2), 102) {
			panic("A's wrapped CAS failed")
		}
		return hwV, hwW2, true
	}},
}

// TestDCASHelpWindowDetectability parks helper B between the help load
// and the help CAS, lets writer A (and a third thread) do everything
// that can happen there, resumes B, and checks that what A's recovery
// would be told about the operation it died in is the truth.
func TestDCASHelpWindowDetectability(t *testing.T) {
	for _, mode := range []Mode{ModeDRAM, ModeMCAS} {
		for _, tc := range helpWindows {
			t.Run(mode.String()+"/"+tc.name, func(t *testing.T) {
				_, hw := newHW(mode)
				d := NewDCAS(hw, 128, false)

				// A's operation hwV lands on hwW; B sets out to overwrite it.
				d.Begin(hwA, hwV)
				if !d.CAS(hwA, hwV, hwW, d.Load(hwA, hwW), 100) {
					t.Fatal("setup CAS failed")
				}
				parked, resume := make(chan struct{}), make(chan struct{})
				d.testHookPreHelpCAS = func() {
					d.testHookPreHelpCAS = nil // only B's first help parks
					close(parked)
					<-resume
				}
				done := make(chan bool)
				go func() {
					d.Begin(hwB, 1)
					done <- d.CAS(hwB, 1, hwW, d.Load(hwB, hwW), 200)
				}()
				<-parked

				ver, w, landed := tc.during(d)

				close(resume)
				bWon := <-done
				if tagT, _, _ := Tag(d.Load(hwB, hwW)); bWon != (tagT == hwB) {
					t.Fatalf("B's CAS returned %v but word %d is tagged by thread %d", bWon, hwW, tagT)
				}

				got := d.Succeeded(hwA, ver, w)
				switch {
				case tc.knownBound:
					if !got || landed {
						t.Fatalf("known wrap bound no longer reproduces (Succeeded=%v landed=%v): update the header comment of dcas.go", got, landed)
					}
				case got != landed:
					t.Fatalf("Succeeded(A, %d, %d) = %v, ground truth %v", ver, w, got, landed)
				}
			})
		}
	}
}

// A thread overwriting its own tag issues no help at all — no load, no
// CAS, no store to help[a] — and detection still answers correctly for
// the operation it is in. The same-version row is also the wrapped one:
// a tag (a, 5) left in place for 65 536 of a's operations is these bits.
// There the unconditional protocol marked a's *current* operation
// observed before its CAS, so losing that CAS to a thread that got in
// before a's Begin ("loses-before-begin") read back as a success.
func TestDCASSelfOverwriteLeavesHelpAlone(t *testing.T) {
	const a, b, w, helpBase = 1, 2, 10, 128
	for _, tc := range []struct {
		name     string
		old, cur uint16
	}{
		{"older-version", 4, 5},
		{"same-version", 5, 5},
	} {
		for _, order := range []string{"cas-wins", "loses-before-begin", "loses-after-begin"} {
			t.Run(tc.name+"/"+order, func(t *testing.T) {
				dev, hw := newHW(ModeMCAS)
				d := NewDCAS(hw, helpBase, false)
				bOverwrites := func(old uint64) {
					d.Begin(b, 1)
					if !d.CAS(b, 1, w, old, 9) {
						t.Fatal("b's CAS failed")
					}
				}

				d.Begin(a, tc.old)
				if !d.CAS(a, tc.old, w, d.Load(a, w), 1) {
					t.Fatal("setup CAS failed")
				}
				// The order of every call site in core: load the word, then
				// Begin the operation, then CAS.
				old := d.Load(a, w)
				if order == "loses-before-begin" {
					bOverwrites(old)
				}
				d.Begin(a, tc.cur)
				if order == "loses-after-begin" {
					bOverwrites(old)
				}
				d.testHookPreHelpCAS = func() { t.Error("self-overwrite reached the help CAS") }
				helpBefore := dev.HWccLoad(helpBase + a)

				var ok bool
				pairs, _, loads := nmpCost(hw.unit, func() { ok = d.CAS(a, tc.cur, w, old, 2) })

				if ok != (order == "cas-wins") {
					t.Fatalf("CAS = %v in order %q", ok, order)
				}
				if got := dev.HWccLoad(helpBase + a); got != helpBefore {
					t.Fatalf("help[a] changed %#x -> %#x by a self-overwrite", helpBefore, got)
				}
				if pairs != 1 || loads != 0 {
					t.Fatalf("self-overwrite cost %d mCAS pairs and %d help loads, want 1 and 0", pairs, loads)
				}
				// Ground truth for a's current operation: it landed iff the
				// CAS won — or, re-tagging with the version already there, b
				// destroyed an (a, cur) tag while a was pending on cur and
				// recorded having seen it.
				want := ok || (order == "loses-after-begin" && tc.old == tc.cur)
				if got := d.Succeeded(a, tc.cur, w); got != want {
					t.Fatalf("Succeeded(a, %d) = %v, want %v", tc.cur, got, want)
				}
			})
		}
	}
}

// The help CAS is issued exactly when the writer is still pending on the
// overwritten version; otherwise the help step is one load.
func TestDCASHelpIssuesCASOnlyWhenPending(t *testing.T) {
	const a, b, w = 1, 2, 10
	_, hw := newHW(ModeMCAS)
	d := NewDCAS(hw, 128, false)

	d.Begin(a, 1)
	d.CAS(a, 1, w, d.Load(a, w), 1)
	d.Begin(b, 1)
	old := d.Load(b, w)
	if n, f, l := nmpCost(hw.unit, func() { d.CAS(b, 1, w, old, 2) }); n != 2 || f != 0 || l != 1 {
		t.Fatalf("needed help: %d pairs, %d failures, %d loads; want 2, 0, 1", n, f, l)
	}

	// a moved on: overwriting its stale tag costs a load, not a pair.
	d.Begin(a, 2)
	d.CAS(a, 2, w, d.Load(a, w), 3)
	d.Begin(a, 3)
	d.Begin(b, 2)
	old = d.Load(b, w)
	if n, f, l := nmpCost(hw.unit, func() { d.CAS(b, 2, w, old, 4) }); n != 1 || f != 0 || l != 1 {
		t.Fatalf("stale tag: %d pairs, %d failures, %d loads; want 1, 0, 1", n, f, l)
	}
}
