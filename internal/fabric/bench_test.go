package fabric

import (
	"fmt"
	"testing"
	"time"

	"cxlalloc/internal/server"
)

// BenchmarkFabricSubmit routes gets through a quiet three-pod fabric from
// one goroutine, with one request in flight (route + wake + respond) and
// with 256 (route + batched dispatch).
func BenchmarkFabricSubmit(b *testing.B) {
	cfg := testConfig()
	cfg.DarkGrace = 5 * time.Second // a loaded runner must not stall a pod dark mid-benchmark
	f, err := New(cfg)
	if err != nil {
		b.Fatalf("New: %v", err)
	}
	b.Cleanup(f.Stop)
	c := server.NewClient(f, 1)
	keys := make([][]byte, 256)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%04d", i))
		r := server.NewRequest()
		r.Op, r.Key, r.Val = server.OpPut, keys[i], []byte("a value of a few dozen bytes, as a cache entry might be")
		if resp := c.Do(r); resp.Err != nil {
			b.Fatalf("preload: %v", resp.Err)
		}
	}
	for _, window := range []int{1, 256} {
		b.Run(fmt.Sprintf("inflight=%d", window), func(b *testing.B) {
			ring := make([]*server.Request, window)
			for i := range ring {
				ring[i] = server.NewRequest()
				ring[i].Op = server.OpGet
			}
			collect := func(r *server.Request) {
				if resp := r.Wait(); resp.Err != nil || !resp.Found {
					b.Errorf("get %q: err=%v found=%v", r.Key, resp.Err, resp.Found)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := ring[i%window]
				if i >= window {
					collect(r)
				}
				r.Reset()
				r.Key = keys[i%len(keys)]
				f.Submit(r)
			}
			for i := max(0, b.N-window); i < b.N; i++ {
				collect(ring[i%window])
			}
		})
	}
}
