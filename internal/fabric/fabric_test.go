package fabric

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cxlalloc/internal/server"
)

// Fast monitor timings so dark detection and stalled-claim retakes
// land quickly under test.
func testConfig() Config {
	return Config{
		Pods:      3,
		Threads:   4,
		Procs:     2,
		Shards:    16,
		Seed:      7,
		DarkGrace: 60 * time.Millisecond,
		MigStall:  30 * time.Millisecond,
	}
}

func newTestFabric(t *testing.T, cfg Config) *Fabric {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(f.Stop)
	return f
}

func waitFor(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", msg)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func doPut(t *testing.T, c *server.Client, key, val []byte) {
	t.Helper()
	r := server.NewRequest()
	r.Op, r.Key, r.Val, r.Deadline = server.OpPut, key, val, 5*time.Second
	if resp := c.Do(r); resp.Err != nil {
		t.Fatalf("put %q: %v", key, resp.Err)
	}
}

func doGet(t *testing.T, c *server.Client, key []byte) ([]byte, bool) {
	t.Helper()
	r := server.NewRequest()
	r.Op, r.Key, r.Deadline = server.OpGet, key, 5*time.Second
	resp := c.Do(r)
	if resp.Err != nil {
		t.Fatalf("get %q: %v", key, resp.Err)
	}
	return resp.Value, resp.Found
}

func preload(t *testing.T, f *Fabric, n int) map[string][]byte {
	t.Helper()
	c := server.NewClient(f, 1)
	data := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key-%04d", i))
		v := []byte(fmt.Sprintf("val-%04d-%d", i, f.ShardOfKey(k)))
		doPut(t, c, k, v)
		data[string(k)] = v
	}
	return data
}

func checkAllReadable(t *testing.T, f *Fabric, data map[string][]byte) {
	t.Helper()
	c := server.NewClient(f, 2)
	for k, want := range data {
		got, found := doGet(t, c, []byte(k))
		if !found || !bytes.Equal(got, want) {
			t.Fatalf("key %q: found=%v got %q want %q", k, found, got, want)
		}
	}
}

// countShardKeys counts shard s's keys on pod p's store, via the agent.
func countShardKeys(t *testing.T, f *Fabric, p, s int) int {
	t.Helper()
	n := 0
	if err := f.AgentRun(p, func(tid int) {
		f.Store(p).Range(tid, func(k, _ []byte) bool {
			if f.ShardOfKey(k) == s {
				n++
			}
			return true
		})
	}); err != nil {
		t.Fatalf("countShardKeys pod %d: %v", p, err)
	}
	return n
}

func TestRingPlacementDeterministicAndStable(t *testing.T) {
	const pods, shards = 5, 64
	all := func(int) bool { return true }
	r1 := buildRing(pods, 42, all)
	r2 := buildRing(pods, 42, all)
	owners := make([]int, shards)
	for s := 0; s < shards; s++ {
		owners[s] = r1.place(uint64(s), 42)
		if got := r2.place(uint64(s), 42); got != owners[s] {
			t.Fatalf("shard %d: nondeterministic placement %d vs %d", s, owners[s], got)
		}
	}
	// Removing pod 2 must move only pod 2's shards.
	r3 := buildRing(pods, 42, func(p int) bool { return p != 2 })
	for s := 0; s < shards; s++ {
		got := r3.place(uint64(s), 42)
		if owners[s] != 2 && got != owners[s] {
			t.Fatalf("shard %d moved %d->%d though its owner survived", s, owners[s], got)
		}
		if owners[s] == 2 && got == 2 {
			t.Fatalf("shard %d still on removed pod", s)
		}
	}
}

func TestShardWordAndClaim(t *testing.T) {
	w := packWord(7, shardFrozen, 0x123456789abc)
	if wordOwner(w) != 7 || wordState(w) != shardFrozen || wordEpoch(w) != 0x123456789abc {
		t.Fatalf("pack/unpack mismatch: %x", w)
	}
	var sl shardSlot
	tok, ok := sl.tryClaim()
	if !ok || !sl.holds(tok) {
		t.Fatal("fresh claim failed")
	}
	if _, ok := sl.tryClaim(); ok {
		t.Fatal("second tryClaim succeeded on held claim")
	}
	tok2 := sl.takeClaim()
	if sl.holds(tok) || !sl.holds(tok2) {
		t.Fatal("takeover did not supersede holder")
	}
	sl.release(tok) // stale release must be a no-op
	if !sl.holds(tok2) {
		t.Fatal("stale release dropped live claim")
	}
	sl.release(tok2)
	if _, ok := sl.tryClaim(); !ok {
		t.Fatal("claim not reacquirable after release")
	}
}

func TestFabricRoutedPutGet(t *testing.T) {
	f := newTestFabric(t, testConfig())
	data := preload(t, f, 64)
	checkAllReadable(t, f, data)
	// Placement must actually spread shards over pods.
	podsUsed := map[int]bool{}
	for s := 0; s < f.cfg.Shards; s++ {
		p, _ := f.Owner(s)
		podsUsed[p] = true
	}
	if len(podsUsed) < 2 {
		t.Fatalf("all shards on one pod: %v", podsUsed)
	}
}

func TestFrozenShardRejectsWritesServesReads(t *testing.T) {
	f := newTestFabric(t, testConfig())
	data := preload(t, f, 32)

	var key []byte
	for k := range data {
		key = []byte(k)
		break
	}
	s := f.ShardOfKey(key)
	sl := &f.shard[s]
	w := sl.word.Load()
	if !sl.word.CompareAndSwap(w, packWord(wordOwner(w), shardFrozen, wordEpoch(w))) {
		t.Fatal("freeze CAS failed")
	}
	// The monitor must not "fix" an unclaimed frozen word; re-thaw below.
	defer sl.word.Store(w)

	r := server.NewRequest()
	r.Op, r.Key, r.Val, r.Deadline = server.OpPut, key, []byte("nope"), time.Second
	f.Submit(r)
	resp := r.Wait()
	var frozen *ShardFrozenError
	if !errors.As(resp.Err, &frozen) {
		t.Fatalf("write to frozen shard: got %v, want ShardFrozenError", resp.Err)
	}

	g := server.NewRequest()
	g.Op, g.Key, g.Deadline = server.OpGet, key, time.Second
	f.Submit(g)
	gresp := g.Wait()
	if gresp.Err != nil || !gresp.Found || !bytes.Equal(gresp.Value, data[string(key)]) {
		t.Fatalf("read through frozen shard: err=%v found=%v", gresp.Err, gresp.Found)
	}
}

func TestMigrateMovesShard(t *testing.T) {
	f := newTestFabric(t, testConfig())
	data := preload(t, f, 96)

	s := 0
	src, epoch := f.Owner(s)
	dst := (src + 1) % f.cfg.Pods
	if err := f.Migrate(s, dst, ""); err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	if p, e := f.Owner(s); p != dst || e != epoch+1 {
		t.Fatalf("owner after migrate: pod %d epoch %d, want pod %d epoch %d", p, e, dst, epoch+1)
	}
	if n := countShardKeys(t, f, src, s); n != 0 {
		t.Fatalf("source still holds %d keys of shard %d after drain", n, s)
	}
	checkAllReadable(t, f, data)
	if v := f.Violations(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
	st := f.Stats()
	if st.MigStarts != 1 || st.MigFlips != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestMigrateInterruptRecovered(t *testing.T) {
	for _, step := range MigrationSteps {
		t.Run(step, func(t *testing.T) {
			f := newTestFabric(t, testConfig())
			data := preload(t, f, 64)

			s := 3
			src, epoch := f.Owner(s)
			dst := (src + 1) % f.cfg.Pods
			if err := f.Migrate(s, dst, step); err != nil {
				t.Fatalf("Migrate: %v", err)
			}
			// The interrupted migrator left the claim held; the monitor's
			// stalled-claim sweep must retake and finish the handoff.
			waitFor(t, 5*time.Second, func() bool {
				p, e := f.Owner(s)
				return p == dst && e == epoch+1 && f.Quiesced()
			}, "interrupted handoff to converge")
			if n := countShardKeys(t, f, src, s); n != 0 {
				t.Fatalf("source still holds %d keys of shard %d", n, s)
			}
			checkAllReadable(t, f, data)
			st := f.Stats()
			if st.MigInterrupts != 1 || st.MigRetakes == 0 {
				t.Fatalf("stats after interrupt at %s: %+v", step, st)
			}
			if v := f.Violations(); len(v) != 0 {
				t.Fatalf("violations: %v", v)
			}
		})
	}
}

// A driver that is alive but slow is retaken like a dead one; when it
// wakes, the shard belongs to its successor and must be left alone. The
// first driver of a handoff is parked just before its install until the
// retaker has flipped and clients have written to the new owner: it
// must not scrub their new keys, put its old values over their new
// ones, or report the moved-on destination as a verify mismatch.
func TestSupersededDriverIsFencedOut(t *testing.T) {
	cfg := testConfig()
	cfg.MigStall = 5 * time.Millisecond
	f := newTestFabric(t, cfg)
	const s = 0
	var keys [][]byte
	for i := 0; len(keys) < 12; i++ {
		if k := []byte(fmt.Sprintf("key-%04d", i)); f.ShardOfKey(k) == s {
			keys = append(keys, k)
		}
	}
	c := server.NewClient(f, 1)
	for _, k := range keys[:8] {
		doPut(t, c, k, append([]byte("old-"), k...))
	}

	release := make(chan struct{})
	var parked atomic.Bool
	f.testHookPreInstall = func(m *migration) {
		if m.shard == s && parked.CompareAndSwap(false, true) {
			<-release
		}
	}
	src, epoch := f.Owner(s)
	dst := (src + 1) % f.cfg.Pods
	first := make(chan error, 1)
	go func() { first <- f.Migrate(s, dst, "") }()
	waitFor(t, 5*time.Second, func() bool {
		p, e := f.Owner(s)
		_, _, _, claimed := f.ShardState(s)
		return p == dst && e == epoch+1 && !claimed
	}, "the retaker to finish the handoff the parked driver started")
	if !parked.Load() {
		t.Fatal("the first driver was never parked")
	}

	// The new owner takes writes: every old key replaced, four keys new.
	want := make(map[string][]byte)
	for _, k := range keys {
		want[string(k)] = append([]byte("new-"), k...)
		doPut(t, c, k, want[string(k)])
	}
	close(release)
	if err := <-first; err == nil {
		t.Fatal("the superseded driver reported a completed handoff")
	}
	checkAllReadable(t, f, want)
	if n := countShardKeys(t, f, dst, s); n != len(keys) {
		t.Fatalf("new owner holds %d keys of the shard, want %d", n, len(keys))
	}
	if v := f.Violations(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
	if p, e := f.Owner(s); p != dst || e != epoch+1 {
		t.Fatalf("owner moved to pod %d epoch %d after the superseded driver woke", p, e)
	}
}

func TestPodDarkFailover(t *testing.T) {
	f := newTestFabric(t, testConfig())
	data := preload(t, f, 96)

	victim := 0
	owned := f.OwnedShards(victim)
	if len(owned) == 0 {
		t.Fatalf("victim owns no shards; pick another seed")
	}
	// An orderly kill: the pod stops heartbeating (server down, agent
	// idle) and the monitor must declare it dark and evacuate.
	f.MarkDying(victim)
	f.Server(victim).Stop()

	waitFor(t, 5*time.Second, func() bool {
		return f.Decommissioned(victim) && len(f.OwnedShards(victim)) == 0 && f.Quiesced()
	}, "failover to evacuate the dark pod")

	checkAllReadable(t, f, data)
	st := f.Stats()
	if st.PodDarks != 1 || st.Failovers != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.FalseShardTakeovers != 0 {
		t.Fatalf("false takeovers on an expected kill: %+v", st)
	}
	if got := len(f.MTTRs()); got != 1 {
		t.Fatalf("MTTR entries: %d", got)
	}
	if v := f.Violations(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
}

func TestUnexpectedDarkCountsFalseTakeover(t *testing.T) {
	f := newTestFabric(t, testConfig())
	data := preload(t, f, 48)

	victim := 0
	owned := len(f.OwnedShards(victim))
	// Stall the heartbeat plane WITHOUT marking the pod dying: the
	// monitor's evacuation is safe (epoch fencing) but must be counted
	// as a false takeover against ground truth.
	f.Server(victim).Stop()

	waitFor(t, 5*time.Second, func() bool {
		return f.Decommissioned(victim) && f.Quiesced()
	}, "unexpected-dark failover")

	st := f.Stats()
	if st.FalseShardTakeovers != uint64(owned) {
		t.Fatalf("false takeovers: got %d want %d", st.FalseShardTakeovers, owned)
	}
	if len(f.Violations()) == 0 {
		t.Fatal("expected a recorded violation for the false takeover")
	}
	// Safety must hold regardless: every acked write stays readable.
	checkAllReadable(t, f, data)
}

// TestFabricMigrationStress races live client traffic against repeated
// shard migrations (some interrupted mid-protocol) across all pods.
// Run under -race in CI.
func TestFabricMigrationStress(t *testing.T) {
	f := newTestFabric(t, testConfig())
	const lanes, keysPerLane = 4, 24

	keys := make([][]byte, lanes*keysPerLane)
	want := make([]atomic.Uint64, len(keys))
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("stress-%03d", i))
	}
	val := func(i int, ver uint64) []byte {
		return []byte(fmt.Sprintf("v-%03d-%016x", i, ver))
	}
	c0 := server.NewClient(f, 99)
	for i := range keys {
		doPut(t, c0, keys[i], val(i, 0))
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for lane := 0; lane < lanes; lane++ {
		wg.Add(1)
		go func(lane int) {
			defer wg.Done()
			c := server.NewClient(f, uint64(100+lane))
			for ver := uint64(1); ; ver++ {
				select {
				case <-stop:
					return
				default:
				}
				for j := 0; j < keysPerLane; j++ {
					i := lane*keysPerLane + j
					r := server.NewRequest()
					r.Op, r.Key, r.Val = server.OpPut, keys[i], val(i, ver)
					r.Deadline = 2 * time.Second
					// App-level retry: each Do call refreshes retry budget,
					// so freeze windows and handoffs are ridden out.
					for {
						if resp := c.Do(r); resp.Err == nil {
							want[i].Store(ver)
							break
						}
						select {
						case <-stop:
							return
						default:
						}
						r.Reset()
					}
				}
			}
		}(lane)
	}

	// Churn: walk every shard through a migration; every third one is
	// interrupted mid-protocol and must be finished by the monitor.
	for round := 0; round < 2; round++ {
		for s := 0; s < f.cfg.Shards; s++ {
			src, _ := f.Owner(s)
			dst := (src + 1 + round) % f.cfg.Pods
			if dst == src {
				dst = (dst + 1) % f.cfg.Pods
			}
			step := ""
			if s%3 == 0 {
				step = MigrationSteps[(s/3+round)%len(MigrationSteps)]
			}
			_ = f.Migrate(s, dst, step) // claim races with retakes are fine
			if step != "" {
				waitFor(t, 5*time.Second, func() bool {
					_, busy := func() (int, bool) {
						f.migMu.Lock()
						defer f.migMu.Unlock()
						_, b := f.migs[s]
						return 0, b
					}()
					w := f.shard[s].word.Load()
					return !busy && wordState(w) == shardServing
				}, "interrupted handoff to settle")
			}
		}
	}
	close(stop)
	wg.Wait()
	waitFor(t, 5*time.Second, f.Quiesced, "fabric to quiesce")

	c := server.NewClient(f, 7)
	for i := range keys {
		got, found := doGet(t, c, keys[i])
		exp := val(i, want[i].Load())
		if !found || !bytes.Equal(got, exp) {
			t.Fatalf("key %s: found=%v got %q want %q", keys[i], found, got, exp)
		}
	}
	if v := f.Violations(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
	if ft := f.FalseTakeovers(); ft != 0 {
		t.Fatalf("thread-level false takeovers: %d", ft)
	}
}

// TestFabricChaosRecordReplay runs a short seeded fabricchaos record,
// requires every gate to pass, then replays the emitted schedule and
// requires bit-for-bit schedule reproduction plus the same gates.
func TestFabricChaosRecordReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("fabricchaos run is seconds long")
	}
	cfg := fabric_chaos_testConfig()
	rec, err := RunChaos(cfg)
	if err != nil {
		t.Fatalf("record run: %v", err)
	}
	if !rec.Ok() {
		t.Fatalf("record gates failed:\n%s", FormatChaosReport(rec))
	}
	if len(rec.Schedule) == 0 {
		t.Fatalf("record run injected nothing:\n%s", FormatChaosReport(rec))
	}

	cfg.Replay = rec.Schedule
	rep, err := RunChaos(cfg)
	if err != nil {
		t.Fatalf("replay run: %v", err)
	}
	if !rep.ReplayOK {
		t.Fatalf("replay schedule mismatch:\n%s", FormatChaosReport(rep))
	}
	if !rep.Ok() {
		t.Fatalf("replay gates failed:\n%s", FormatChaosReport(rep))
	}
}

// A zero field is no longer a default: validate rejects each zero that
// would divide by zero or run for no time.
func TestChaosConfigRejectsZeroes(t *testing.T) {
	for i, zero := range []func(*ChaosConfig){
		func(c *ChaosConfig) { c.Issuers = 0 },
		func(c *ChaosConfig) { c.Keys = 0 },
		func(c *ChaosConfig) { c.Duration = 0 },
		func(c *ChaosConfig) { c.FaultRate = 0 },
	} {
		cfg := DefaultChaosConfig()
		zero(&cfg)
		if cfg.validate() == nil {
			t.Errorf("zeroed field %d validated", i)
		}
	}
	if err := DefaultChaosConfig().validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func fabric_chaos_testConfig() ChaosConfig {
	cfg := DefaultChaosConfig()
	cfg.Keys, cfg.Issuers, cfg.Seed = 96, 4, 41
	cfg.Duration, cfg.FaultRate = 2500*time.Millisecond, 2.5
	cfg.DarkGrace, cfg.MigStall = 150*time.Millisecond, 60*time.Millisecond
	return cfg
}

// An idle fabric's workers are parked, not polling; the pod clocks must
// advance all the same (the server's sampler kicks them), or the monitor
// would read every quiet pod as dark.
func TestIdleFabricPodsStayLit(t *testing.T) {
	cfg := testConfig()
	f := newTestFabric(t, cfg)
	before := make([]uint64, cfg.Pods)
	for i := range before {
		before[i] = f.Pod(i).Heap().ClockNow(0)
	}
	time.Sleep(3 * cfg.DarkGrace)
	if st := f.Stats(); st.PodDarks != 0 || st.Failovers != 0 {
		t.Fatalf("idle fabric: %d pods declared dark, %d failovers", st.PodDarks, st.Failovers)
	}
	for i, c0 := range before {
		if c1 := f.Pod(i).Heap().ClockNow(0); c1 <= c0 {
			t.Errorf("pod %d: clock stood at %d for %v of idleness", i, c1, 3*cfg.DarkGrace)
		}
	}
}
