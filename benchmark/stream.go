package main

import "cxlalloc/internal/workload"

// nConns is the load shape's connection count: two driver goroutines and
// no others, on every workload and at every rung.
const nConns = 2

// wlSpec is one benchmark workload. KV workloads carry the spec their op
// stream is drawn from; alloc_mix has none (allocmix.go).
type wlSpec struct {
	Name string
	KV   workload.KVSpec
	// SatCap bounds one saturation phase in ops. The pods' mapped-slab
	// pressure only ever grows (remote-free stranding), so a phase may not
	// run past the op count at which pressure was checked to have levelled
	// off clear of the 0.90 write-shed watermark.
	SatCap uint64
	// NoMiss marks a workload without deletes over a fully preloaded
	// keyspace: every miss is a wrong answer.
	NoMiss bool
}

var workloads = []wlSpec{
	{
		Name: "kv_mixed", SatCap: 8_000_000,
		KV: workload.KVSpec{
			Name: "kv_mixed", InsertFrac: 0.25, DeleteFrac: 0.25,
			KeyDist: workload.Zipfian, KeyMin: 8, KeyMax: 8,
			ValMin: 960, ValMax: 960, Keyspace: 1024,
		},
	},
	{
		Name: "kv_read", SatCap: 8_000_000, NoMiss: true,
		KV: workload.KVSpec{
			Name: "kv_read", InsertFrac: 0.05,
			KeyDist: workload.Zipfian, KeyMin: 8, KeyMax: 8,
			ValMin: 960, ValMax: 960, Keyspace: 1024,
		},
	},
	{
		Name: "kv_bigval", SatCap: 6_000_000,
		KV: workload.KVSpec{
			Name: "kv_bigval", InsertFrac: 0.40, DeleteFrac: 0.10,
			KeyDist: workload.Zipfian, KeyMin: 16, KeyMax: 40,
			ValMin: 64, ValMax: 16 << 10, ValLogUniform: true, Keyspace: 512,
		},
	},
	{Name: "alloc_mix", SatCap: 20_000_000},
}

func workloadByName(name string) (wlSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return wlSpec{}, false
}

// preloadSizes draws the value length every key is preloaded with.
func preloadSizes(spec workload.KVSpec, seed uint64) []int {
	g := workload.NewKVGen(spec, seed, nConns, nConns+1)
	sizes := make([]int, spec.Keyspace)
	for i := range sizes {
		sizes[i] = g.ValSize()
	}
	return sizes
}
