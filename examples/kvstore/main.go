// kvstore: a shared in-memory key-value store served by threads in
// different simulated processes — the paper's motivating use case
// (§5.2.1). Four threads across two processes run a YCSB-A-style mix
// (25% insert, 25% delete, 50% read, zipfian keys) against one
// lock-free index whose entries live in cxlalloc-managed shared memory.
//
//	go run ./examples/kvstore
package main

import (
	"fmt"
	"log"
	"sync"
	"time"

	"cxlalloc"
	"cxlalloc/internal/alloc"
	"cxlalloc/internal/kvstore"
	"cxlalloc/internal/workload"
)

const (
	nProcs      = 2
	perProc     = 2
	totalOps    = 200_000
	keyspace    = 50_000
	initialLoad = 20_000
)

func main() {
	pod, err := cxlalloc.NewPod(cxlalloc.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	var threads []*cxlalloc.Thread
	for p := 0; p < nProcs; p++ {
		proc := pod.NewProcess()
		for i := 0; i < perProc; i++ {
			th, err := proc.AttachThread()
			if err != nil {
				log.Fatal(err)
			}
			threads = append(threads, th)
		}
	}
	nThreads := len(threads)

	// The index is shared; entry bytes are cxlalloc allocations.
	store := kvstore.New(alloc.NewCXL(pod.Heap(), "cxlalloc"), 1<<16, nThreads)
	spec, err := workload.SpecByName("YCSB-A", keyspace, initialLoad)
	if err != nil {
		log.Fatal(err)
	}

	// Load phase.
	loadSpec := spec
	loadSpec.InsertFrac, loadSpec.DeleteFrac = 1.0, 0
	var wg sync.WaitGroup
	for i, th := range threads {
		wg.Add(1)
		go func(i int, th *cxlalloc.Thread) {
			defer wg.Done()
			g := workload.NewKVGen(loadSpec, 42, i, nThreads)
			for j := 0; j < initialLoad/nThreads; j++ {
				op := g.Next()
				if err := store.Put(th.ID(), op.Key, op.Val); err != nil {
					log.Fatal(err)
				}
			}
		}(i, th)
	}
	wg.Wait()

	// Timed mixed phase.
	start := time.Now()
	for i, th := range threads {
		wg.Add(1)
		go func(i int, th *cxlalloc.Thread) {
			defer wg.Done()
			g := workload.NewKVGen(spec, 7, i, nThreads)
			var val []byte
			for j := 0; j < totalOps/nThreads; j++ {
				op := g.Next()
				switch op.Kind {
				case workload.OpInsert:
					if err := store.Put(th.ID(), op.Key, op.Val); err != nil {
						log.Fatal(err)
					}
				case workload.OpDelete:
					store.Delete(th.ID(), op.Key)
				default:
					val, _ = store.Get(th.ID(), op.Key, val)
				}
			}
		}(i, th)
	}
	wg.Wait()
	elapsed := time.Since(start)
	store.Drain()

	st := store.Stats()
	f := threads[0].Footprint()
	fmt.Printf("YCSB-A: %d ops in %v — %.2fM ops/sec across %d threads in %d processes\n",
		totalOps, elapsed.Round(time.Millisecond),
		float64(totalOps)/elapsed.Seconds()/1e6, nThreads, nProcs)
	fmt.Printf("store: %d inserts (%d replaced), %d deletes, %d hits, %d misses, %d entries reclaimed\n",
		st.Inserts, st.Replaces, st.Deletes, st.Hits, st.Misses, st.Reclaimed)
	fmt.Printf("memory: %.1f MiB data, %.1f KiB HWcc metadata (%.4f%% of total)\n",
		float64(f.DataBytes)/(1<<20), float64(f.HWccBytes)/1024, 100*f.HWccFraction())
}
