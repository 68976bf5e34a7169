package main

import (
	"testing"
	"time"

	"cxlalloc/internal/workload"
	"cxlalloc/internal/xrand"
)

func secs(n int) time.Duration { return time.Duration(n) * time.Second }

// streamHash folds the first n ops of a connection's stream into one word:
// the same seed must give the same ops on every commit.
func streamHash(spec workload.KVSpec, seed uint64, conn, n int) uint64 {
	g := workload.NewKVGen(spec, seed, conn, nConns)
	h := uint64(0)
	for i := 0; i < n; i++ {
		o := g.Next()
		h = xrand.Mix(h ^ uint64(o.Kind)<<60 ^ o.KeyID<<20 ^ uint64(len(o.Val)))
	}
	return h
}

func TestStreamIsAFunctionOfTheSeed(t *testing.T) {
	const n = 20000
	for _, w := range workloads {
		if w.KV.Keyspace == 0 {
			continue
		}
		for conn := 0; conn < nConns; conn++ {
			a, b := streamHash(w.KV, 2026, conn, n), streamHash(w.KV, 2026, conn, n)
			if a != b {
				t.Errorf("%s conn %d: same seed, different streams", w.Name, conn)
			}
			if c := streamHash(w.KV, 2027, conn, n); c == a {
				t.Errorf("%s conn %d: seeds 2026 and 2027 gave the same stream", w.Name, conn)
			}
		}
		if streamHash(w.KV, 2026, 0, n) == streamHash(w.KV, 2026, 1, n) {
			t.Errorf("%s: both connections draw the same stream", w.Name)
		}
	}
	a, b := allocRNG(2026, 0), allocRNG(2026, 0)
	other := allocRNG(2027, 0)
	same := true
	for i := 0; i < 1000; i++ {
		x := drawSize(a)
		if x != drawSize(b) {
			t.Fatal("alloc_mix: same seed, different sizes")
		}
		same = same && x == drawSize(other)
	}
	if same {
		t.Fatal("alloc_mix: seeds 2026 and 2027 drew the same sizes")
	}
}

func TestWorkloadMixes(t *testing.T) {
	const n = 200000
	for _, w := range workloads {
		if w.KV.Keyspace == 0 {
			continue
		}
		g := workload.NewKVGen(w.KV, 1, 0, nConns)
		var puts, dels int
		for i := 0; i < n; i++ {
			o := g.Next()
			switch o.Kind {
			case workload.OpInsert:
				puts++
				if len(o.Val) < hdrLen || len(o.Val) > w.KV.ValMax {
					t.Fatalf("%s: value length %d", w.Name, len(o.Val))
				}
			case workload.OpDelete:
				dels++
			}
			if o.KeyID >= w.KV.Keyspace || len(o.Key) < w.KV.KeyMin || len(o.Key) > w.KV.KeyMax {
				t.Fatalf("%s: key %d of %d bytes", w.Name, o.KeyID, len(o.Key))
			}
		}
		if got := float64(puts) / n; got < w.KV.InsertFrac-0.01 || got > w.KV.InsertFrac+0.01 {
			t.Errorf("%s: put share %.3f, want %.2f", w.Name, got, w.KV.InsertFrac)
		}
		if got := float64(dels) / n; got < w.KV.DeleteFrac-0.01 || got > w.KV.DeleteFrac+0.01 {
			t.Errorf("%s: delete share %.3f, want %.2f", w.Name, got, w.KV.DeleteFrac)
		}
		if w.NoMiss && dels != 0 {
			t.Errorf("%s: a workload on which every miss is false may not delete", w.Name)
		}
	}
}
