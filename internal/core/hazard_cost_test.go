package core

import (
	"testing"

	"cxlalloc/internal/atomicx"
	"cxlalloc/internal/telemetry"
)

// The hazard scans' device cost, counted the way magazine_cost_test.go
// counts a pop: exact per-thread cache events on an incoherent pod with
// no latency model. A scan reads a thread's first hazard line fresh for
// the occupancy mask (word 1; the line also holds slots 0–5), then only
// the lines that hold set bits — one flush and one fetch per line read,
// whatever NumHazards is.

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
	for _, hazards := range []int{8, 64} {
		e := hazardCostEnv(t, hazards)
		const tid = 0
		ts := &e.h.threads[tid]
		off := func(k int) uint64 { return e.h.lay.HugeDataOff + uint64(k)*uint64(PageSize) }
		publish := func(p uint64) {
			if !e.h.tryPublishHazard(ts, tid, p) {
				t.Fatalf("%d hazards: tryPublishHazard(%#x) failed", hazards, p)
			}
		}
		found := func(p uint64) bool { return e.h.hazardPublished(ts, p) }

		// A miss reads the one mask line of every thread.
		miss := lineCost(e, tid, func() {
			if found(off(0)) {
				t.Fatal("hazardPublished found an offset no thread published")
			}
		})
		wantReads(t, "hazardPublished miss", miss, uint64(e.cfg.NumThreads), 0)

		// An empty list: the mask line says there is nothing to do.
		wantReads(t, "empty hazardSweep", lineCost(e, tid, func() { e.h.hazardSweep(ts, tid) }), 1, 0)

		// A publish reads the mask line, then stores the slot and its bit,
		// both in that line: the slot's write-back keeps it resident.
		wantReads(t, "tryPublishHazard", lineCost(e, tid, func() { publish(off(0)) }), 1, 2)
		wantReads(t, "tryPublishHazard again", lineCost(e, tid, func() { publish(off(0)) }), 1, 0)
		if !found(off(0)) {
			t.Fatal("published hazard not seen")
		}

		// A removal clears the bit in the line the scan read.
		wantReads(t, "removeHazard", lineCost(e, tid, func() { e.h.removeHazard(ts, tid, off(0)) }), 1, 1)
		if found(off(0)) {
			t.Fatal("removed hazard still seen")
		}

		// Slot 6 is the first slot past line 0. Filling slots 0–5 first,
		// its publish write-allocates the slot's line (a fetch without a
		// read), and a scan that reaches it reads exactly two lines.
		for k := 1; k <= 6; k++ {
			publish(off(k))
		}
		slot6 := off(7)
		got := lineCost(e, tid, func() { publish(slot6) })
		want := telemetry.CacheStats{Loads: 1, Fetches: 2, Flushes: 3, Stores: 2, Hits: 1, Writebacks: 2, Fences: 2}
		if got != want {
			t.Fatalf("tryPublishHazard into slot 6: counted %+v\nwant %+v", got, want)
		}
		if _, i, ok := e.h.findHazard(ts, tid, slot6); !ok || i != 6 {
			t.Fatalf("hazard %#x in slot %d (found %v), want slot 6", slot6, i, ok)
		}
		wantReads(t, "hazardPublished in slot 6", lineCost(e, tid, func() {
			if !found(slot6) {
				t.Fatal("slot 6 hazard not seen")
			}
		}), 2, 0)
		wantReads(t, "removeHazard in slot 6", lineCost(e, tid, func() { e.h.removeHazard(ts, tid, slot6) }), 2, 1)
		if found(slot6) {
			t.Fatal("removed slot 6 hazard still seen")
		}
	}
}
