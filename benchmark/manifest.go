package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// metricDef names a metric and its unit. BENCHMARK.json, at the
// repository root, is the authority (it also holds each end-to-end
// metric's bound); manifest_test.go keeps these tables equal to it.
type metricDef struct{ Name, Unit string }

var endToEndMetrics = []metricDef{
	{mSatOps, "ops/s"}, {mLatP50, "us"}, {mLatP99, "us"}, {mOKShare, "ratio"},
	{mSimNs, "ns/op"}, {mSpaceAmp, "ratio"}, {mSetup, "s"},
}

var perLayerMetrics = []metricDef{
	{"workload.gen_ns_per_op", "ns/op"},
	{"memsim.fences_per_op", "1/op"}, {"memsim.flushes_per_op", "1/op"},
	{"memsim.fetches_per_op", "1/op"}, {"memsim.writebacks_per_op", "1/op"}, {"memsim.hit_ratio", "ratio"},
	{"nmp.mcas_per_op", "1/op"}, {"nmp.fail_ratio", "ratio"}, {"nmp.retries_per_op", "1/op"},
	{"liveness.run_ns_p50", "ns"}, {"liveness.renews_per_op", "1/op"},
	{"core.ns_per_op", "ns/op"}, {"core.self_ns_per_op", "ns/op"},
	{"core.alloc_small_ns_p50", "ns"}, {"core.alloc_small_ns_p99", "ns"},
	{"core.alloc_large_ns_p50", "ns"}, {"core.alloc_large_ns_p99", "ns"},
	{"core.alloc_huge_us_p50", "us"},
	{"core.free_local_ns_p50", "ns"}, {"core.free_local_ns_p99", "ns"},
	{"core.free_remote_ns_p50", "ns"}, {"core.free_remote_ns_p99", "ns"},
	{"core.small_allocs_per_op", "1/op"}, {"core.large_allocs_per_op", "1/op"}, {"core.huge_allocs_per_op", "1/op"},
	{"vas.faults_per_kop", "1/kop"}, {"core.recover_us_p50", "us"},
	{"core.pressure_max", "ratio"}, {"core.hwcc_share", "ratio"}, {"epoch.reclaim_lag", "count"},
	{"kvstore.ns_per_op", "ns/op"}, {"kvstore.self_ns_per_op", "ns/op"},
	{"kvstore.get_ns_p50", "ns"}, {"kvstore.get_ns_p99", "ns"},
	{"kvstore.put_ns_p50", "ns"}, {"kvstore.put_ns_p99", "ns"},
	{"kvstore.delete_ns_p50", "ns"}, {"kvstore.delete_ns_p99", "ns"},
	{"kvstore.hit_ratio", "ratio"}, {"kvstore.false_miss", "count"},
	{"server.ns_per_op", "ns/op"}, {"server.self_ns_per_op", "ns/op"},
	{"server.submit_ns_p50", "ns"}, {"server.submit_ns_p99", "ns"},
	{"server.sojourn_us_p50", "us"}, {"server.sojourn_us_p99", "us"}, {"server.shed_share", "ratio"},
	{"fabric.ns_per_op", "ns/op"}, {"fabric.self_ns_per_op", "ns/op"},
	{"fabric.route_ns_p50", "ns"}, {"fabric.pod_load_skew", "ratio"}, {"fabric.bounce_share", "ratio"},
	{"bench.trace_overhead_pct", "%"},
}

// manifest is what the benchmark reads of BENCHMARK.json.
type manifest struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readManifest(root string) (*manifest, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &m, nil
}
