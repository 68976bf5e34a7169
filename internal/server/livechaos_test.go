package server

import (
	"bytes"
	"sync/atomic"
	"testing"
	"time"

	"cxlalloc/internal/chaos"
)

// TestLiveChaosShort is the always-on smoke: a small online run with a
// modest fault rate must converge watchdog-only and pass all gates.
func TestLiveChaosShort(t *testing.T) {
	cfg := DefaultLiveConfig()
	cfg.Seed = 7
	cfg.Duration = 1500 * time.Millisecond
	cfg.FaultRate = 2.0
	cfg.Keys = 128
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
	if rep.Ops == 0 || rep.Acked == 0 || rep.ReadsChecked == 0 {
		t.Fatalf("no traffic ran: %d ops, %d acked, %d reads checked", rep.Ops, rep.Acked, rep.ReadsChecked)
	}
	if rep.Crashes == 0 {
		t.Errorf("no crashes landed mid-traffic (rate too low for window?)")
	}
	if rep.Repairs == 0 {
		t.Errorf("no watchdog repairs: recovery was not exercised")
	}
}

// A zero field is no longer a default: validate rejects each zero that
// would divide by zero or run for no time.
func TestLiveConfigRejectsZeroes(t *testing.T) {
	for i, zero := range []func(*LiveConfig){
		func(c *LiveConfig) { c.Keys = 0 },
		func(c *LiveConfig) { c.Duration = 0 },
		func(c *LiveConfig) { c.FaultRate = 0 },
		func(c *LiveConfig) { c.LeaseWall = 0 },
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

// TestLiveChaosReplay records a short run's schedule and replays it,
// requiring a bit-for-bit identical injection timeline and green gates.
func TestLiveChaosReplay(t *testing.T) {
	cfg := DefaultLiveConfig()
	cfg.Seed = 11
	cfg.Duration = 1500 * time.Millisecond
	cfg.FaultRate = 2.0
	cfg.Keys = 128
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
	if err := chaos.WriteSchedule(&buf, rec.Schedule); err != nil {
		t.Fatal(err)
	}
	loaded, err := chaos.ReadSchedule(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !chaos.SameSchedule(rec.Schedule, loaded) {
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

// TestOracleStressNoFaults races Issuer lanes over a real Server with
// NO fault injection and asserts the oracle end to end — the -race check
// that the bracketed read check and the writer protocol are sound
// through the queue hop before any chaos is layered on them. The slo
// issuers' zipfian draws keep every lane on a few hot keys.
func TestOracleStressNoFaults(t *testing.T) {
	r := newTestRun(t, nil)
	r.startServer()
	var stop atomic.Bool
	lanes := Lanes(r.issuers, 4, &stop)
	time.Sleep(300 * time.Millisecond)
	stop.Store(true)
	tally := <-lanes
	if tally.Crashed != 0 {
		t.Fatalf("%d ops crashed with no fault armed", tally.Crashed)
	}
	r.audit()
	checked, skipped := Reads(r.issuers)
	t.Logf("%d ops (%d failed), %d reads checked, %d skipped", tally.Ops, tally.Failed, checked, skipped)
	if v, l := r.gates.Violations(), r.gates.LostAcks(); len(v) != 0 || len(l) != 0 {
		t.Fatalf("violations %q, lost acks %q", v, l)
	}
	if checked == 0 || tally.Puts == 0 || tally.Deletes == 0 {
		t.Fatalf("stress did too little: %d reads checked, %d puts, %d deletes", checked, tally.Puts, tally.Deletes)
	}
}
