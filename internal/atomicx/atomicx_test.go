package atomicx

import (
	"sync"
	"testing"
	"testing/quick"

	"cxlalloc/internal/memsim"
	"cxlalloc/internal/nmp"
)

func newHW(mode Mode) (*memsim.Device, *HW) {
	dev := memsim.NewDevice(memsim.Config{HWccWords: 256})
	var unit *nmp.Unit
	if mode == ModeMCAS {
		unit = nmp.New(dev, nil)
	}
	return dev, New(dev, mode, unit, nil)
}

func TestModesBasicSemantics(t *testing.T) {
	for _, mode := range []Mode{ModeDRAM, ModeHWcc, ModeSWFlush, ModeMCAS} {
		t.Run(mode.String(), func(t *testing.T) {
			dev, hw := newHW(mode)
			hw.Store(0, 3, 11)
			if got := hw.Load(0, 3); got != 11 {
				t.Fatalf("Load = %d", got)
			}
			if got := dev.HWccLoad(3); got != 11 {
				t.Fatalf("store did not reach device: %d", got)
			}
			cur, ok := hw.CAS(0, 3, 11, 12)
			if !ok || cur != 11 {
				t.Fatalf("CAS success path: cur=%d ok=%v", cur, ok)
			}
			cur, ok = hw.CAS(0, 3, 11, 13)
			if ok || cur != 12 {
				t.Fatalf("CAS failure path: cur=%d ok=%v (must report current)", cur, ok)
			}
		})
	}
}

func TestModeString(t *testing.T) {
	names := map[Mode]string{ModeDRAM: "dram", ModeHWcc: "hwcc", ModeSWFlush: "swflush", ModeMCAS: "mcas", Mode(99): "unknown"}
	for m, want := range names {
		if m.String() != want {
			t.Fatalf("Mode(%d).String() = %q, want %q", int(m), m.String(), want)
		}
	}
}

func TestMCASModeRequiresUnit(t *testing.T) {
	dev := memsim.NewDevice(memsim.Config{HWccWords: 8})
	defer func() {
		if recover() == nil {
			t.Fatal("New(ModeMCAS, nil unit) did not panic")
		}
	}()
	New(dev, ModeMCAS, nil, nil)
}

func TestCASCounterAllModes(t *testing.T) {
	for _, mode := range []Mode{ModeDRAM, ModeHWcc, ModeSWFlush, ModeMCAS} {
		t.Run(mode.String(), func(t *testing.T) {
			dev, hw := newHW(mode)
			const goroutines = 6
			const perG = 1500
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(tid int) {
					defer wg.Done()
					for i := 0; i < perG; i++ {
						for {
							v := hw.Load(tid, 0)
							if _, ok := hw.CAS(tid, 0, v, v+1); ok {
								break
							}
						}
					}
				}(g)
			}
			wg.Wait()
			if got := dev.HWccLoad(0); got != goroutines*perG {
				t.Fatalf("counter = %d, want %d", got, goroutines*perG)
			}
		})
	}
}

func TestPackTagPayloadRoundTrip(t *testing.T) {
	f := func(payload uint32, tidRaw uint16, ver uint16) bool {
		tid := int(tidRaw % 512)
		w := Pack(payload, tid, ver)
		gotTid, gotVer, tagged := Tag(w)
		return tagged && gotTid == tid && gotVer == ver && Payload(w) == payload
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPackUntagged(t *testing.T) {
	w := Pack(77, -1, 0)
	if w != 77 {
		t.Fatalf("untagged word = %#x, want 77", w)
	}
	if _, _, tagged := Tag(w); tagged {
		t.Fatal("untagged word reports a tag")
	}
	if _, _, tagged := Tag(0); tagged {
		t.Fatal("zero word reports a tag (breaks zero-initialization)")
	}
}

func newDCAS(disabled bool) (*memsim.Device, *DCAS) {
	dev, hw := newHW(ModeDRAM)
	return dev, NewDCAS(hw, 128, disabled) // help array at words 128..
}

func TestDCASBasic(t *testing.T) {
	_, d := newDCAS(false)
	const tid, w = 2, 10
	d.Begin(tid, 1)
	old := d.Load(tid, w)
	if !d.CAS(tid, 1, w, old, 42) {
		t.Fatal("uncontended dCAS failed")
	}
	if Payload(d.Load(tid, w)) != 42 {
		t.Fatal("payload lost")
	}
	if !d.Succeeded(tid, 1, w) {
		t.Fatal("Succeeded = false right after success (tag still present)")
	}
}

func TestDCASSucceededAfterOverwrite(t *testing.T) {
	_, d := newDCAS(false)
	const a, b, w = 1, 2, 10
	// Thread a installs (a, ver=5).
	d.Begin(a, 5)
	if !d.CAS(a, 5, w, d.Load(a, w), 100) {
		t.Fatal("setup CAS failed")
	}
	// Thread b overwrites; the help protocol must preserve evidence.
	d.Begin(b, 1)
	if !d.CAS(b, 1, w, d.Load(b, w), 200) {
		t.Fatal("overwrite CAS failed")
	}
	if !d.Succeeded(a, 5, w) {
		t.Fatal("a's success lost after overwrite (help array broken)")
	}
	// And a CAS that never happened reports failure.
	if d.Succeeded(a, 6, w) {
		t.Fatal("phantom operation reported successful")
	}
}

func TestDCASFailedCASReportsNotSucceeded(t *testing.T) {
	_, d := newDCAS(false)
	const a, b, w = 1, 2, 10
	d.Begin(a, 1)
	old := d.Load(a, w)
	// b sneaks in and changes the word.
	d.Begin(b, 9)
	if !d.CAS(b, 9, w, old, 55) {
		t.Fatal("b CAS failed")
	}
	// a's CAS now fails; recovery must say "not succeeded" so a retries.
	if d.CAS(a, 1, w, old, 66) {
		t.Fatal("stale CAS succeeded")
	}
	if d.Succeeded(a, 1, w) {
		t.Fatal("failed CAS reported successful")
	}
}

// A stale tagged value from an old operation must not corrupt the help
// slot once the thread has begun a later operation (exact-match check).
func TestDCASStaleTagCannotCorruptHelp(t *testing.T) {
	_, d := newDCAS(false)
	const a, b = 1, 2
	// a installs (a,1) at word 10 and completes the op.
	d.Begin(a, 1)
	d.CAS(a, 1, 10, d.Load(a, 10), 1)
	// a begins op ver=2 targeting word 11.
	d.Begin(a, 2)
	// b overwrites the old (a,1) word; help[a] must stay pending for 2.
	d.Begin(b, 1)
	d.CAS(b, 1, 10, d.Load(b, 10), 7)
	if d.Succeeded(a, 2, 11) {
		t.Fatal("overwrite of stale (a,1) marked (a,2) observed")
	}
	// Now a's real op proceeds and is overwritten; detection still works.
	if !d.CAS(a, 2, 11, d.Load(a, 11), 3) {
		t.Fatal("CAS failed")
	}
	d.Begin(b, 2)
	d.CAS(b, 2, 11, d.Load(b, 11), 4)
	if !d.Succeeded(a, 2, 11) {
		t.Fatal("genuine success not detected after overwrite")
	}
}

// Version wrap: exact-match semantics survive a full 16-bit wrap.
func TestDCASVersionWrap(t *testing.T) {
	_, d := newDCAS(false)
	const a, b, w = 1, 2, 10
	vers := []uint16{65534, 65535, 0, 1}
	for i, v := range vers {
		d.Begin(a, v)
		if !d.CAS(a, v, w, d.Load(a, w), uint32(i)) {
			t.Fatalf("CAS ver=%d failed", v)
		}
		d.Begin(b, uint16(i))
		if !d.CAS(b, uint16(i), w, d.Load(b, w), 999) {
			t.Fatal("overwrite failed")
		}
		if !d.Succeeded(a, v, w) {
			t.Fatalf("success at ver=%d lost across wrap", v)
		}
	}
}

func TestDCASDisabledSkipsHelp(t *testing.T) {
	dev, d := newDCAS(true)
	if !d.Disabled() {
		t.Fatal("Disabled() = false")
	}
	const a, b, w = 1, 2, 10
	d.Begin(a, 1) // no-op
	if !d.CAS(a, 1, w, d.Load(a, w), 5) {
		t.Fatal("disabled dCAS failed")
	}
	d.Begin(b, 1)
	d.CAS(b, 1, w, d.Load(b, w), 6)
	// Help slot must remain untouched.
	if got := dev.HWccLoad(128 + a); got != 0 {
		t.Fatalf("help slot written in disabled mode: %#x", got)
	}
}

// Concurrent stress: N threads repeatedly dCAS a shared word; every
// completed operation must be reported Succeeded at the moment it
// completes, and the payload must reflect exactly the successful CASes.
func TestDCASConcurrentDetection(t *testing.T) {
	dev, hw := newHW(ModeDRAM)
	d := NewDCAS(hw, 128, false)
	const goroutines = 6
	const perG = 3000
	var wg sync.WaitGroup
	var successTotal [goroutines]uint64
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			ver := uint16(0)
			for i := 0; i < perG; i++ {
				ver++
				d.Begin(tid, ver)
				for {
					old := d.Load(tid, 0)
					if d.CAS(tid, ver, 0, old, Payload(old)+1) {
						successTotal[tid]++
						break
					}
					// After a failure, detection must agree it failed
					// (nobody can have observed a value we never wrote).
					if d.Succeeded(tid, ver, 0) {
						t.Errorf("tid %d ver %d: failed CAS detected as success", tid, ver)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	var want uint64
	for _, s := range successTotal {
		want += s
	}
	if got := uint64(Payload(dev.HWccLoad(0))); got != want {
		t.Fatalf("payload = %d, want %d successes", got, want)
	}
}

func TestDCASStoreUntagged(t *testing.T) {
	_, d := newDCAS(false)
	d.Store(0, 20, 1234)
	w := d.Load(0, 20)
	if Payload(w) != 1234 {
		t.Fatalf("payload = %d", Payload(w))
	}
	if _, _, tagged := Tag(w); tagged {
		t.Fatal("Store produced a tagged word")
	}
}

func TestHWWithLatencyModels(t *testing.T) {
	dev := memsim.NewDevice(memsim.Config{HWccWords: 8})
	for _, mode := range []Mode{ModeDRAM, ModeHWcc, ModeSWFlush} {
		hw := New(dev, mode, nil, memsim.LatencyDRAM())
		hw.Store(0, 0, 1)
		if hw.Load(0, 0) != 1 {
			t.Fatalf("mode %v with latency: load failed", mode)
		}
		if _, ok := hw.CAS(0, 0, 1, 2); !ok {
			t.Fatalf("mode %v with latency: CAS failed", mode)
		}
		dev.HWccStore(0, 0)
	}
}

func newMCASHW() (*memsim.Device, *nmp.Unit, *HW) {
	dev := memsim.NewDevice(memsim.Config{HWccWords: 256})
	unit := nmp.New(dev, nil)
	return dev, unit, New(dev, ModeMCAS, unit, nil)
}

// A transiently faulting unit is absorbed by the bounded retry loop: the
// CAS completes on the unit, without falling back.
func TestCASRetriesTransientFaults(t *testing.T) {
	dev, unit, hw := newMCASHW()
	dev.HWccStore(1, 7)
	unit.InjectFaults(nmp.FaultPlan{Mode: nmp.FaultTimeout, Count: 2})
	cur, ok := hw.CAS(0, 1, 7, 8)
	if !ok || cur != 7 {
		t.Fatalf("CAS through transient faults: cur=%d ok=%v", cur, ok)
	}
	if got := dev.HWccLoad(1); got != 8 {
		t.Fatalf("swap lost: %d", got)
	}
	s := hw.Stats()
	if s.MCASFaults != 2 || s.MCASRetries != 2 || s.HWCASFallbacks != 0 {
		t.Fatalf("stats = %+v, want 2 faults, 2 retries, 0 fallbacks", s)
	}
}

// A dead unit exhausts the retry budget and the CAS degrades to
// sw_flush_cas — both the success and failure paths keep CAS semantics.
func TestCASFallsBackWhenUnitDown(t *testing.T) {
	dev, unit, hw := newMCASHW()
	dev.HWccStore(2, 40)
	unit.InjectFaults(nmp.FaultPlan{Mode: nmp.FaultUnavailable})
	cur, ok := hw.CAS(0, 2, 40, 41)
	if !ok || cur != 40 {
		t.Fatalf("fallback CAS success path: cur=%d ok=%v", cur, ok)
	}
	if got := dev.HWccLoad(2); got != 41 {
		t.Fatalf("fallback swap lost: %d", got)
	}
	cur, ok = hw.CAS(0, 2, 40, 42)
	if ok || cur != 41 {
		t.Fatalf("fallback CAS failure path: cur=%d ok=%v", cur, ok)
	}
	s := hw.Stats()
	if s.HWCASFallbacks != 2 {
		t.Fatalf("fallbacks = %d, want 2", s.HWCASFallbacks)
	}
	if s.MCASFaults != 2*mcasAttempts || s.MCASRetries != 2*(mcasAttempts-1) {
		t.Fatalf("stats = %+v, want %d faults, %d retries", s, 2*mcasAttempts, 2*(mcasAttempts-1))
	}
	// The unit comes back: CAS returns to the mCAS path, no new fallbacks.
	unit.ClearFaults()
	if _, ok := hw.CAS(0, 2, 41, 43); !ok {
		t.Fatal("CAS after unit recovery failed")
	}
	if s := hw.Stats(); s.HWCASFallbacks != 2 {
		t.Fatalf("fallbacks grew after recovery: %d", s.HWCASFallbacks)
	}
}

// A record stored by BeginRecord rides through the help CAS and reads
// back with Record; Succeeded and the help step compare only the
// protocol bits, so the record changes no answer either gives. A later
// Begin replaces it.
func TestDCASBeginRecordSurvivesHelp(t *testing.T) {
	for _, mode := range []Mode{ModeDRAM, ModeMCAS} {
		t.Run(mode.String(), func(t *testing.T) {
			_, hw := newHW(mode)
			d := NewDCAS(hw, 128, false)
			const a, b, w = 1, 2, 10
			const rec = uint64(1)<<recordBits - 3 // every record bit but one
			d.BeginRecord(a, 5, rec)
			if ver, got := d.Record(a); ver != 5 || got != rec {
				t.Fatalf("Record = (%d, %#x) after BeginRecord, want (5, %#x)", ver, got, rec)
			}
			if d.Succeeded(a, 5, w) {
				t.Fatal("pending operation with a record reports success before its CAS")
			}
			if !d.CAS(a, 5, w, d.Load(a, w), 100) {
				t.Fatal("uncontended CAS failed")
			}
			// b overwrites a's tag: the help CAS must find a pending on 5
			// despite the record bits, and keep them.
			d.Begin(b, 1)
			if !d.CAS(b, 1, w, d.Load(b, w), 200) {
				t.Fatal("overwrite CAS failed")
			}
			if got := hw.Load(b, 128+a); got != rec<<protoBits|helpObserved(5) {
				t.Fatalf("help[a] = %#x after the help CAS, want record %#x kept over observed(5)", got, rec)
			}
			if ver, got := d.Record(a); ver != 5 || got != rec {
				t.Fatalf("Record = (%d, %#x) after help, want (5, %#x)", ver, got, rec)
			}
			if !d.Succeeded(a, 5, w) {
				t.Fatal("landed, helped operation with a record reports failure")
			}
			if d.Succeeded(a, 6, w) {
				t.Fatal("an operation never begun reports success")
			}
			d.Begin(a, 6)
			if ver, got := d.Record(a); ver != 6 || got != 0 {
				t.Fatalf("Record = (%d, %#x) after a plain Begin, want (6, 0)", ver, got)
			}
		})
	}
}
