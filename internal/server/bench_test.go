package server

import (
	"fmt"
	"sync"
	"testing"
)

// benchServer is a fault-free 4-thread pod served as two groups of two
// workers, with nKeys small values preloaded through the front door.
func benchServer(b *testing.B, nKeys int) (*Server, [][]byte) {
	b.Helper()
	r := newTestRun(b, nil)
	srv := New(Config{Pod: r.Pod, Store: r.Store, Groups: testGroups})
	b.Cleanup(srv.Stop)
	keys := make([][]byte, nKeys)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%04d", i))
		req := putReq(string(keys[i]), "a value of a few dozen bytes, as a cache entry might be")
		srv.Submit(req)
		if resp := req.Wait(); resp.Err != nil {
			b.Fatalf("preload: %v", resp.Err)
		}
	}
	return srv, keys
}

// pipelineGets issues n gets over keys with window requests in flight
// from the calling goroutine, collecting in ring order.
func pipelineGets(b *testing.B, sub Submitter, keys [][]byte, window, n int) {
	ring := make([]*Request, window)
	for i := range ring {
		ring[i] = NewRequest()
		ring[i].Op = OpGet
	}
	collect := func(r *Request) {
		if resp := r.Wait(); resp.Err != nil || !resp.Found {
			b.Errorf("get %q: err=%v found=%v", r.Key, resp.Err, resp.Found)
		}
	}
	for i := 0; i < n; i++ {
		r := ring[i%window]
		if i >= window {
			collect(r)
		}
		r.Reset()
		r.Key = keys[i%len(keys)]
		sub.Submit(r)
	}
	for i := max(0, n-window); i < n; i++ {
		collect(ring[i%window])
	}
}

// One request in flight: every Submit finds the workers parked, so this
// is the cost of the wake path, push to response.
func BenchmarkServerSubmitWait(b *testing.B) {
	srv, keys := benchServer(b, 64)
	b.ReportAllocs()
	b.ResetTimer()
	pipelineGets(b, srv, keys, 1, b.N)
}

// Two connections with 256 requests in flight each: the workers never
// park, so this is the cost of the batched path.
func BenchmarkServerPipelined(b *testing.B) {
	srv, keys := benchServer(b, 64)
	const conns, window = 2, 256
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			pipelineGets(b, srv, keys, window, n)
		}((b.N + c) / conns)
	}
	wg.Wait()
}
