package chaos

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"cxlalloc"
	"cxlalloc/internal/alloc"
	"cxlalloc/internal/atomicx"
	"cxlalloc/internal/kvstore"
	"cxlalloc/internal/xrand"
)

// TestLiveChaosShort is the always-on smoke: a small online run with a
// modest fault rate must converge watchdog-only and pass all gates.
func TestLiveChaosShort(t *testing.T) {
	cfg := DefaultLiveConfig()
	cfg.Seed = 7
	cfg.Duration = 1500 * time.Millisecond
	cfg.FaultRate = 2.0
	cfg.Keys = 128
	cfg.Calibrate = 150 * time.Millisecond
	// Shared/few-core CI runners can stall a healthy worker past the
	// default 400ms lease wall, storming benign false alarms that the
	// strict takeover gate counts. The wall is not what these tests
	// prove; widen it. (Idle-machine runs at the strict default are the
	// verify skill's job.)
	cfg.LeaseWall = time.Second
	rep, err := RunLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + FormatLiveReport(rep))
	if !rep.Ok() {
		t.Fatalf("gates failed: %d violations, %d lost acks, %d false takeovers\n%s",
			len(rep.Violations), len(rep.LostAcks), rep.FalseTakeovers, FormatLiveReport(rep))
	}
	if rep.Ops == 0 || rep.Acked == 0 {
		t.Fatalf("no traffic ran: %d ops, %d acked", rep.Ops, rep.Acked)
	}
	if rep.Crashes == 0 {
		t.Errorf("no crashes landed mid-traffic (rate too low for window?)")
	}
	if rep.Repairs == 0 {
		t.Errorf("no watchdog repairs: recovery was not exercised")
	}
}

// TestLiveChaosReplay records a short run's schedule and replays it,
// requiring a bit-for-bit identical injection timeline and green gates.
// A zero field is no longer a default: validate rejects each zero that
// would divide by zero or run for no time.
func TestLiveConfigRejectsZeroes(t *testing.T) {
	for i, zero := range []func(*LiveConfig){
		func(c *LiveConfig) { c.Keys = 0 },
		func(c *LiveConfig) { c.Duration = 0 },
		func(c *LiveConfig) { c.FaultRate = 0 },
		func(c *LiveConfig) { c.LeaseWall = 0 },
		func(c *LiveConfig) { c.Calibrate = 0 },
	} {
		cfg := DefaultLiveConfig()
		zero(&cfg)
		if cfg.validate() == nil {
			t.Errorf("zeroed field %d validated", i)
		}
	}
	if cfg := DefaultLiveConfig(); cfg.validate() != nil {
		t.Fatalf("default config invalid: %v", cfg.validate())
	}
}

func TestLiveChaosReplay(t *testing.T) {
	cfg := DefaultLiveConfig()
	cfg.Seed = 11
	cfg.Duration = 1500 * time.Millisecond
	cfg.FaultRate = 2.0
	cfg.Keys = 128
	cfg.Calibrate = 150 * time.Millisecond
	cfg.LeaseWall = time.Second // see TestLiveChaosShort
	rec, err := RunLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Ok() {
		t.Fatalf("record run failed gates:\n%s", FormatLiveReport(rec))
	}
	if len(rec.Schedule) == 0 {
		t.Fatal("record run emitted no schedule")
	}

	// Round-trip through NDJSON, as the CLI does.
	var buf bytes.Buffer
	if err := WriteSchedule(&buf, rec.Schedule); err != nil {
		t.Fatal(err)
	}
	loaded, err := ReadSchedule(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !SameSchedule(rec.Schedule, loaded) {
		t.Fatal("schedule did not survive NDJSON round-trip")
	}

	cfg.Replay = loaded
	rep, err := RunLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + FormatLiveReport(rep))
	if !rep.Ok() {
		t.Fatalf("replay run failed gates:\n%s", FormatLiveReport(rep))
	}
	if !rep.ReplayOK {
		t.Fatal("replayed schedule differs from the loaded schedule")
	}
}

// TestLiveChaosLong is the heavyweight online run (CLI default scale).
func TestLiveChaosLong(t *testing.T) {
	if testing.Short() {
		t.Skip("long chaos run; skipped with -short")
	}
	cfg := DefaultLiveConfig()
	cfg.Seed = 1
	cfg.Duration = 8 * time.Second
	cfg.LeaseWall = time.Second // see TestLiveChaosShort
	rep, err := RunLive(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + FormatLiveReport(rep))
	if !rep.Ok() {
		t.Fatalf("gates failed:\n%s", FormatLiveReport(rep))
	}
	if rep.ProcKills == 0 || rep.NMPBursts == 0 || rep.ThreadKills == 0 {
		t.Errorf("coverage: want >=1 of each fault class, got %d thread kills, %d proc kills, %d nmp bursts",
			rep.ThreadKills, rep.ProcKills, rep.NMPBursts)
	}
	// The persist adversary must run at every crash (CrashDiscards).
	// Whether it actually loses lines depends on the victim's unfenced
	// window being dirty at the armed crash point — a wall-clock-timing
	// outcome, not a coverage knob — so a zero drop count is only noted.
	if rep.CrashDiscards == 0 {
		t.Errorf("coverage: persist adversary never ran (%d crashes)", rep.Crashes)
	} else if rep.LinesDropped == 0 {
		t.Logf("note: %d crash-discards all hit clean windows (0 lines dropped)", rep.CrashDiscards)
	}
}

// TestOracleStressNoFaults races mixed Put/Get/Delete across all
// threads with NO fault injection and asserts the per-key oracle — the
// satellite -race check that the oracle itself (snapshot bracketing,
// version admissibility) is sound before any chaos is layered on it.
func TestOracleStressNoFaults(t *testing.T) {
	const (
		threads = liveThreads
		keys    = 64
		opsPer  = 3000
	)
	pc := cxlalloc.DefaultConfig()
	pc.NumThreads = threads
	pc.MaxSmallSlabs = 64
	pc.MaxLargeSlabs = 16
	pc.HugeRegionSize = 1 << 20
	pc.NumReservations = 8
	pc.DescsPerThread = 16
	pc.NumHazards = 8
	pc.UnsizedThreshold = 2
	pc.Mode = atomicx.ModeMCAS
	pod, err := cxlalloc.NewPodWith(cxlalloc.PodConfig{Config: pc, AutoRecover: true})
	if err != nil {
		t.Fatal(err)
	}
	procs := []*cxlalloc.Process{pod.NewProcess(), pod.NewProcess()}
	ths := make([]*cxlalloc.Thread, threads)
	for tid := 0; tid < threads; tid++ {
		if ths[tid], err = procs[tid%2].AttachThreadID(tid); err != nil {
			t.Fatal(err)
		}
	}
	store := kvstore.New(alloc.NewCXL(pod.Heap(), "cxlalloc"), keys*2, threads)
	run := &liveRun{
		cfg:       LiveConfig{Keys: keys},
		PodTarget: &PodTarget{Store: store},
		orc:       NewOracle(keys),
	}

	errs := make(chan error, threads)
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			w := &liveWorker{
				run: run,
				tid: tid,
				rng: xrand.New(uint64(tid) + 1),
			}
			for i := 0; i < opsPer; i++ {
				if c := ths[tid].Run(func() {
					switch w.rng.Intn(3) {
					case 0:
						w.stepWrite()
					case 1:
						w.stepReadForeign()
					default:
						w.stepReadOwn()
					}
				}); c != nil {
					errs <- fmt.Errorf("tid %d: unexpected crash at %s", tid, c.Point)
					return
				}
				if w.pend != nil {
					errs <- fmt.Errorf("tid %d: pend left set without a crash", tid)
					return
				}
			}
		}(tid)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	var keyb, getb []byte
	for k := 0; k < keys; k++ {
		exp, settled := run.orc.Final(k)
		if !settled {
			t.Fatalf("key %d unsettled with no faults", k)
		}
		keyb = KeyBytes(keyb, k)
		got, found := store.Get(0, keyb, getb)
		getb = got
		if found != exp.Present {
			t.Fatalf("key %d: present=%v, oracle wants %v (ver %d)", k, found, exp.Present, exp.Ver)
		}
		if found {
			ver, err := DecodeVal(k, got)
			if err != nil {
				t.Fatalf("key %d: %v", k, err)
			}
			if ver != exp.Ver {
				t.Fatalf("key %d: ver %d, oracle wants %d", k, ver, exp.Ver)
			}
		}
	}
	if len(run.gates.Violations()) != 0 {
		t.Fatalf("violations: %v", run.gates.Violations())
	}
	if len(run.gates.LostAcks()) != 0 {
		t.Fatalf("lost acks with no faults: %v", run.gates.LostAcks())
	}
}

// TestValueCodec pins the self-validating codec: round-trips decode,
// and every single-byte corruption is caught.
func TestValueCodec(t *testing.T) {
	var buf []byte
	for k := 0; k < 32; k++ {
		for ver := uint64(1); ver <= 8; ver++ {
			buf = EncodeVal(buf, k, ver)
			got, err := DecodeVal(k, buf)
			if err != nil || got != ver {
				t.Fatalf("key %d ver %d: got %d, %v", k, ver, got, err)
			}
			if _, err := DecodeVal(k+1, buf); err == nil {
				t.Fatalf("key %d ver %d: accepted under wrong key", k, ver)
			}
		}
	}
	buf = EncodeVal(buf, 3, 5)
	for i := range buf {
		buf[i] ^= 0x40
		if _, err := DecodeVal(3, buf); err == nil {
			t.Fatalf("corruption at byte %d not detected", i)
		}
		buf[i] ^= 0x40
	}
	if _, err := DecodeVal(3, buf[:len(buf)-1]); err == nil {
		t.Fatal("truncation not detected")
	}
}
