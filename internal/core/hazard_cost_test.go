package core

import (
	"testing"

	"cxlalloc/internal/atomicx"
	"cxlalloc/internal/telemetry"
)

// The hazard scans' device cost, counted the way magazine_cost_test.go
// counts a pop: exact per-thread cache events on an incoherent pod with
// no latency model. A scan reads each of a thread's hazard lines fresh
// once — one flush and one fetch per line, ⌈(2+NumHazards)/8⌉ lines,
// since the slots are words 2.. of the thread's huge state — not once
// per slot.

// hazardCostEnv is costEnv's pod with hazards hazard slots per thread.
func hazardCostEnv(t *testing.T, hazards int) *env {
	cfg := testConfig()
	cfg.Mode = atomicx.ModeMCAS
	cfg.CheckInvariants = false
	cfg.NumHazards = hazards
	return newEnv(t, cfg, 2, 2)
}

// wantReads fails unless c is exactly lines fresh line reads plus
// stores hazard stores, each a store hit, a flush, a write-back and a
// fence.
func wantReads(t *testing.T, op string, c telemetry.CacheStats, lines, stores uint64) {
	t.Helper()
	want := telemetry.CacheStats{
		Loads: lines, Fetches: lines, Flushes: lines + stores,
		Stores: stores, Hits: stores, Writebacks: stores, Fences: stores,
	}
	if c != want {
		t.Fatalf("%s: counted %+v\nwant %+v", op, c, want)
	}
}

func TestHazardScanCostsOneReadPerLine(t *testing.T) {
	// ⌈(2+NumHazards)/8⌉ lines per thread.
	for _, tc := range []struct{ hazards, lines uint64 }{{8, 2}, {64, 9}} {
		e := hazardCostEnv(t, int(tc.hazards))
		const tid = 0
		ts := &e.h.threads[tid]
		lines := tc.lines
		off := e.h.lay.HugeDataOff // page-aligned, never published below

		miss := lineCost(e, tid, func() {
			if e.h.hazardPublished(ts, off) {
				t.Fatal("hazardPublished found an offset no thread published")
			}
		})
		wantReads(t, "hazardPublished miss", miss, uint64(e.cfg.NumThreads)*lines, 0)

		// An empty list: the scan reads every line and finds nothing to do.
		wantReads(t, "empty hazardSweep", lineCost(e, tid, func() { e.h.hazardSweep(ts, tid) }), lines, 0)

		// A publish checks every slot for off, then stores into the first
		// empty one, whose line the scan left resident.
		publish := lineCost(e, tid, func() {
			if !e.h.tryPublishHazard(ts, tid, off) {
				t.Fatal("tryPublishHazard failed on an empty list")
			}
		})
		wantReads(t, "tryPublishHazard", publish, lines, 1)
		wantReads(t, "tryPublishHazard again", lineCost(e, tid, func() {
			e.h.tryPublishHazard(ts, tid, off)
		}), 1, 0)
		if !e.h.hazardPublished(ts, off) {
			t.Fatal("published hazard not seen")
		}

		// A removal stops at the slot it clears, in the first line.
		wantReads(t, "removeHazard", lineCost(e, tid, func() { e.h.removeHazard(ts, tid, off) }), 1, 1)
		if e.h.hazardPublished(ts, off) {
			t.Fatal("removed hazard still seen")
		}
	}
}
