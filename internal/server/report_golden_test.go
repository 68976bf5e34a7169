package server_test

import (
	"testing"
	"time"

	"cxlalloc/internal/chaos"
	"cxlalloc/internal/fabric"
	"cxlalloc/internal/server"
)

// TestReportFormatGolden: one report core, rendered by livechaos and by
// fabricchaos, in record mode with clean gates and in replay mode with a
// violation and a lost ack, prints exactly the lines each harness has
// always printed.
func TestReportFormatGolden(t *testing.T) {
	core := func(replayed bool) server.Report {
		r := server.Report{
			Verdict:  server.Verdict{Seed: 7, PendingAllocs: 1, ReadsChecked: 390, ReadsSkipped: 2},
			Duration: 5 * time.Second, Elapsed: 5000400 * time.Microsecond, Replayed: replayed,
			Ops: 1000, Acked: 800, Failed: 10, Crashed: 3, Puts: 300, Gets: 400, Deletes: 100,
			Throughput: 199.98, LatencyP50: 3552 * time.Nanosecond, LatencyP99: 74752 * time.Nanosecond,
			Schedule: []chaos.FaultSpec{{I: 0, Kind: chaos.FaultThreadKill}, {I: 1, Kind: chaos.FaultNMPBurst}},
			Outcomes: []chaos.FaultOutcome{{I: 0}, {I: 1}},
		}
		if replayed {
			r.Violations = []string{"replay: emitted schedule differs from loaded schedule"}
			r.LostAcks = []string{"final: key 3 acked ver 2 missing"}
		}
		return r
	}
	live := func(replayed bool) string {
		return server.FormatLiveReport(&server.LiveReport{
			Report:  core(replayed),
			Threads: 4, Procs: 2, Keys: 384,
			Crashes: 3, ThreadKills: 1, ProcKills: 1, NMPBursts: 1, NMPFaults: 61, CrashDiscards: 3, LinesDropped: 5,
			Repairs: 2, Fenced: 1, FalseAlarms: 4, SelfFences: 1,
			MTTRCount: 2, MTTRP50: 713 * time.Millisecond, MTTRP99: 900 * time.Millisecond, MTTRMax: 900 * time.Millisecond,
			Availability: 0.7288,
			CrashPoints:  map[string]uint64{"small.alloc.post-take": 2},
		})
	}
	fab := func(replayed bool) string {
		return fabric.FormatChaosReport(&fabric.ChaosReport{
			Report: core(replayed),
			Pods:   3, Threads: 4, Procs: 2, Shards: 16, Keys: 384, Issuers: 6,
			Retries: 12, PodKills: 1, PodFences: 1, MigInterrupts: 2,
			Fabric: fabric.Stats{PodDarks: 1, PodHeals: 1, PodFences: 1, Failovers: 1,
				MigStarts: 5, MigFlips: 4, MigRetakes: 2, MigInterrupts: 2, RouterRejects: 9},
			MTTRCount: 1, MTTRP50: 3 * time.Millisecond, MTTRMax: 3 * time.Millisecond, MTTRBound: 10 * time.Second,
		})
	}
	for _, c := range []struct {
		name, got, want string
	}{
		{"livechaos record", live(false), `livechaos: 4 threads / 2 procs / 384 keys, seed 7, 5s traffic (record mode)
  traffic:   1000 ops (200 ops/s), 400 acked writes (300 puts, 100 deletes), 400 gets, 10 failed
  latency:   p50 3.552µs  p99 74.752µs
  oracle:    390 reads checked, 2 skipped (raced >1 transition)
  injected:  1 thread kills, 1 proc kills, 1 nmp bursts -> 3 crashes, 61 mCAS faults, 3 crash-discards (5 lines dropped), 1 pending allocs adopted
  crash at:  small.alloc.post-take x2
  watchdog:  2 repairs, 1 fenced, 4 false alarms, 0 rescues, 1 self-fences
  mttr:      2 spans, p50 713ms  p99 900ms  max 900ms; availability 0.7288
  gates:     0 invariant violations, 0 lost acks, 0 false takeovers -> PASS
`},
		{"livechaos replay", live(true), `livechaos: 4 threads / 2 procs / 384 keys, seed 7, 5s traffic (replay mode)
  traffic:   1000 ops (200 ops/s), 400 acked writes (300 puts, 100 deletes), 400 gets, 10 failed
  latency:   p50 3.552µs  p99 74.752µs
  oracle:    390 reads checked, 2 skipped (raced >1 transition)
  injected:  1 thread kills, 1 proc kills, 1 nmp bursts -> 3 crashes, 61 mCAS faults, 3 crash-discards (5 lines dropped), 1 pending allocs adopted
  crash at:  small.alloc.post-take x2
  watchdog:  2 repairs, 1 fenced, 4 false alarms, 0 rescues, 1 self-fences
  mttr:      2 spans, p50 713ms  p99 900ms  max 900ms; availability 0.7288
  replay:    schedule match = false (2 faults)
  gates:     1 invariant violations, 1 lost acks, 0 false takeovers -> FAIL
    violation: replay: emitted schedule differs from loaded schedule
    lost-ack:  final: key 3 acked ver 2 missing
`},
		{"fabricchaos record", fab(false), `fabricchaos: 3 pods x 4 threads, 16 shards, 384 keys, 6 issuers, seed 7, 5s traffic (record mode)
  traffic:   1000 ops (200 ops/s), 800 acked (300 puts, 100 deletes), 400 gets, 10 failed, 3 crashed, 12 retries
  latency:   p50 3.552µs  p99 74.752µs
  oracle:    390 reads checked, 2 skipped (raced >1 transition)
  injected:  1 pod kills, 1 pod fences, 2 mig interrupts (2 faults scheduled)
  fabric:    1 darks, 1 fences, 1 heals, 1 failovers; migrations 5 started, 4 flipped, 2 retaken, 2 interrupted, 0 aborted; 9 router rejects
  failover:  1 MTTR spans, p50 3ms  max 3ms (bound 10s)
  pending allocs adopted from rescues: 1
  gates:     0 violations, 0 lost acks, 0 false shard takeovers, 0 thread false takeovers -> PASS
`},
		{"fabricchaos replay", fab(true), `fabricchaos: 3 pods x 4 threads, 16 shards, 384 keys, 6 issuers, seed 7, 5s traffic (replay mode)
  traffic:   1000 ops (200 ops/s), 800 acked (300 puts, 100 deletes), 400 gets, 10 failed, 3 crashed, 12 retries
  latency:   p50 3.552µs  p99 74.752µs
  oracle:    390 reads checked, 2 skipped (raced >1 transition)
  injected:  1 pod kills, 1 pod fences, 2 mig interrupts (2 faults scheduled)
  fabric:    1 darks, 1 fences, 1 heals, 1 failovers; migrations 5 started, 4 flipped, 2 retaken, 2 interrupted, 0 aborted; 9 router rejects
  failover:  1 MTTR spans, p50 3ms  max 3ms (bound 10s)
  pending allocs adopted from rescues: 1
  replay:    schedule match = false (2 faults)
  gates:     1 violations, 1 lost acks, 0 false shard takeovers, 0 thread false takeovers -> FAIL
    violation: replay: emitted schedule differs from loaded schedule
    lost-ack:  final: key 3 acked ver 2 missing
`},
	} {
		if c.got != c.want {
			t.Errorf("%s:\n got %q\nwant %q", c.name, c.got, c.want)
		}
	}
}
