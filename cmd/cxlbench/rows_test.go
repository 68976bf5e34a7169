package main

import (
	"slices"
	"strings"
	"testing"

	"cxlalloc/internal/bench"
	"cxlalloc/internal/fabric"
	"cxlalloc/internal/server"
)

// TestRowExtraKeys pins each online experiment's NDJSON Extra key set:
// a row must keep every key it has ever carried.
func TestRowExtraKeys(t *testing.T) {
	slo := "seed capacity tick_rate mult target_rate acked good client_drops latency_p50 latency_p99 latency_p999 " +
		"shed_total shed_queue_full shed_codel shed_deadline shed_write shed_pod_full shed_breaker " +
		"retries breaker_opens breaker_reroutes worker_crashes crash_resolves"
	sloRep := &server.SLOReport{Points: []server.SLOPoint{{}}, ChaosPoint: &server.SLOPoint{}}
	for _, c := range []struct {
		exp  string
		row  bench.Row
		keys string
	}{
		{"livechaos", liveChaosRow(&server.LiveReport{}),
			"seed latency_p50 latency_p99 acked crashes thread_kills proc_kills nmp_bursts nmp_faults crash_discards " +
				"lines_dropped repairs mttr_p50 mttr_p99 mttr_max availability violations lost_acks false_takeovers replayed replay_ok"},
		{"fabricchaos", fabricChaosRow(&fabric.ChaosReport{}),
			"seed pods shards latency_p50 latency_p99 acked retries pod_kills pod_fences mig_interrupts failovers mig_flips " +
				"mig_retakes router_rejects mttr_p50 mttr_max violations lost_acks false_shard_takeovers false_takeovers replayed replay_ok"},
		{"slo", sloPointRow(sloRep, &sloRep.Points[0], "open-loop/1x"), slo},
		{"slochaos", sloChaosRow(sloRep), slo + " thread_kills proc_kills false_takeovers"},
	} {
		var got []string
		for k := range c.row.Extra {
			got = append(got, k)
		}
		want := strings.Fields(c.keys)
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("%s Extra keys\n got %v\nwant %v", c.exp, got, want)
		}
	}
}
