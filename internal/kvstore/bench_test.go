package kvstore

import (
	"fmt"
	"testing"

	"cxlalloc/internal/xrand"
)

// BenchmarkStoreMixed runs kv_mixed's operation mix, 50 % get, 25 % put
// and 25 % delete of 960 B values over 1024 keys, on a ModeMCAS pod of
// two threads in two processes, alternating threads so about half of
// all values are retired by the thread that did not allocate them.
// Besides time it reports the device events an operation costs: mcas/op
// (mCAS pairs, successes plus failures), which an epoch drain's remote
// frees pay, and flushes/op (SWcc flushes), which its local runs pay.
func BenchmarkStoreMixed(b *testing.B) {
	const threads, keys = 2, 1024
	s, heap, _ := newPodStore(b, threads, 256, nil)
	keyb := make([][]byte, keys)
	for k := range keyb {
		keyb[k] = []byte(fmt.Sprintf("key%05d", k))
		if err := s.Put(k%threads, keyb[k], make([]byte, 960)); err != nil {
			b.Fatal(err)
		}
	}
	val, dst := make([]byte, 960), make([]byte, 0, 960)
	rng := xrand.New(2026)
	heap.PublishStats()
	s0 := heap.Snapshot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tid, k := i%threads, keyb[rng.Intn(keys)]
		switch r := rng.Intn(4); {
		case r < 2:
			dst, _ = s.Get(tid, k, dst)
		case r == 2:
			if err := s.Put(tid, k, val); err != nil {
				b.Fatal(err)
			}
		default:
			s.Delete(tid, k)
		}
	}
	b.StopTimer()
	heap.PublishStats()
	d := heap.Snapshot().Delta(s0)
	n := float64(b.N)
	b.ReportMetric(float64(d.NMP.Successes+d.NMP.Failures)/n, "mcas/op")
	b.ReportMetric(float64(d.Cache.Flushes)/n, "flushes/op")
}
