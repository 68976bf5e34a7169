// mcas: running the pod with NO inter-host hardware cache coherence
// (paper §4, Figure 1(B)). All HWcc-metadata synchronization goes
// through the simulated near-memory-processing unit's memory-based CAS:
// a spwr (special write) carrying expected value, swap value, and target
// address, then a sprd (special read) that triggers the operation and
// returns the success bit — with same-address conflicts failing the
// competing operation, exactly as the FPGA prototype behaves.
//
//	go run ./examples/mcas
package main

import (
	"fmt"
	"log"
	"sync"

	"cxlalloc"
	"cxlalloc/internal/atomicx"
)

func main() {
	cfg := cxlalloc.DefaultConfig()
	cfg.Mode = atomicx.ModeMCAS // no HWcc anywhere: mCAS via the NMP
	pod, err := cxlalloc.NewPod(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// Two processes, one thread each: a producer-consumer pipeline whose
	// remote frees all synchronize through mCAS.
	prod, err := pod.NewProcess().AttachThread()
	if err != nil {
		log.Fatal(err)
	}
	cons, err := pod.NewProcess().AttachThread()
	if err != nil {
		log.Fatal(err)
	}

	const msgs = 20000
	ch := make(chan cxlalloc.Ptr, 256)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(ch)
		for i := 0; i < msgs; i++ {
			p, err := prod.Alloc(128)
			if err != nil {
				log.Fatal(err)
			}
			prod.Bytes(p, 128)[0] = byte(i)
			ch <- p
		}
	}()
	go func() {
		defer wg.Done()
		for p := range ch {
			_ = cons.Bytes(p, 128)[0]
			cons.Free(p) // remote free: an mCAS on the slab's countdown
		}
	}()
	wg.Wait()

	st := pod.Snapshot().NMP
	fmt.Printf("moved %d messages with zero hardware cache coherence\n", msgs)
	fmt.Printf("NMP unit served %d spwr / %d sprd operations\n", st.SpWrs, st.SpRds)
	fmt.Printf("  mCAS successes: %d, failures: %d (of which %d same-address conflicts)\n",
		st.Successes, st.Failures, st.Conflicts)
	f := prod.Footprint()
	fmt.Printf("device-biased (uncachable mCAS) metadata: %d B — %.4f%% of the heap\n",
		f.HWccBytes, 100*f.HWccFraction())
	fmt.Println("the other 99.99% of metadata stayed CPU-cached under the SWcc protocol")
}
