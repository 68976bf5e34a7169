package main

import (
	"math"
	"testing"

	"cxlalloc/internal/memsim"
	"cxlalloc/internal/telemetry"
)

func TestLadderSelfTimesTelescope(t *testing.T) {
	// Ops/s per rung, bottom first. The server rung is slower than the
	// fabric above it (one pod against three), so fabric's self time is
	// negative; the identity must hold all the same.
	for _, rates := range [][5]float64{
		{4.1e6, 2.0e6, 1.46e6, 0.55e6, 0.8e6},
		{7.5e7, 2.3e6, 2.3e6, 2.3e6, 2.3e6}, // alloc_mix: nothing above core
	} {
		res := newResult(workloads[0], 1, 1, 1)
		l := ladder{rate: rates}
		l.report(res)
		sum := res.Metrics["workload.gen_ns_per_op"].Value
		share := res.Shares["workload"]
		for _, layer := range ladderLayers[1:] {
			sum += res.Metrics[layer+".self_ns_per_op"].Value
			share += res.Shares[layer]
		}
		top := res.Metrics["fabric.ns_per_op"].Value
		if math.Abs(sum-top) > 1e-9*top {
			t.Errorf("self times sum to %v, fabric.ns_per_op is %v", sum, top)
		}
		if math.Abs(top-2e9/rates[4]) > 1e-9*top {
			t.Errorf("fabric.ns_per_op %v is not 2e9 / %v ops/s", top, rates[4])
		}
		if math.Abs(share-1) > 1e-9 {
			t.Errorf("shares sum to %v", share)
		}
	}
}

func TestSimNanosPricesCountedEvents(t *testing.T) {
	before := telemetry.Snapshot{
		Cache: telemetry.CacheStats{Fetches: 10, Writebacks: 5, Flushes: 7, Hits: 1000, Fences: 3},
		NMP:   telemetry.NMPStats{SpWrs: 4, SpRds: 4, Successes: 3, Failures: 1},
	}
	after := telemetry.Snapshot{
		Cache: telemetry.CacheStats{Fetches: 110, Writebacks: 25, Flushes: 37, Hits: 9000, Fences: 300},
		NMP:   telemetry.NMPStats{SpWrs: 14, SpRds: 13, Successes: 9, Failures: 5},
	}
	// 100 fetches, 20 writebacks, 30 flushes, 10 spwr, 9 sprd, 10 mCAS
	// served; hits and fences are free in the model.
	const want = 100*357 + 20*180 + 30*250 + 10*500 + 9*800 + 10*1000
	if got := simNanos(after.Delta(before)); got != want {
		t.Fatalf("simNanos = %v, want %v", got, float64(want))
	}
	l := memsim.LatencyCXL()
	if l.CXLLoad != 357 || l.CXLStore != 180 || l.FlushCost != 250 || l.MCASSpWr != 500 || l.MCASSpRd != 800 || l.MCASService != 1000 {
		t.Fatalf("memsim.LatencyCXL changed its price list (%+v): the expected sum above is stale", *l)
	}
	var sum telemetry.Snapshot
	addSnapshot(&sum, before)
	addSnapshot(&sum, after)
	if sum.Cache.Fetches != 120 || sum.NMP.Failures != 6 || sum.Cache.Fences != 303 {
		t.Fatalf("addSnapshot: %+v", sum)
	}
}
