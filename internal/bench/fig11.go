package bench

import (
	"fmt"
	"sync"
	"time"

	"cxlalloc/internal/memsim"
	"cxlalloc/internal/nmp"
	"cxlalloc/internal/telemetry"
)

// RunFig11 regenerates Figure 11: the latency distribution of a CAS on
// a CXL memory location under three implementations, across thread
// counts:
//
//   - sw_cas: the CPU's CAS instruction, coherent, benefiting from the
//     cache (only safe on pods WITH inter-host HWcc).
//   - sw_flush_cas: cache-line flush then CAS — the software emulation
//     of mCAS used by prior work (also only safe with HWcc).
//   - hw_cas: the NMP unit's mCAS (§4), safe with no HWcc.
//
// The simulation reproduces the paper's measured structure: sw_cas is
// fastest; hw_cas pays fixed uncached spwr/sprd costs and loses at one
// thread, but its serialized unit degrades less under contention than
// flush+CAS retry storms, overtaking sw_flush_cas at the tail.
func RunFig11(threadCounts []int, opsPerThread int) ([]Row, error) {
	if len(threadCounts) == 0 {
		threadCounts = []int{1, 4, 8, 16}
	}
	lat := memsim.LatencyCXL()
	var rows []Row
	for _, impl := range []string{"sw_cas", "sw_flush_cas", "hw_cas"} {
		for _, threads := range threadCounts {
			p := measureCAS(impl, threads, opsPerThread, lat)
			rows = append(rows, Row{
				Experiment: "fig11",
				Workload:   impl,
				Allocator:  impl,
				Threads:    threads,
				Ops:        p.Count,
				Extra: map[string]string{
					"p50":   p.P50.String(),
					"p90":   p.P90.String(),
					"p99":   p.P99.String(),
					"p99.9": p.P999.String(),
				},
			})
		}
	}
	return rows, nil
}

// measureCAS runs a contended CAS loop on one shared CXL word,
// recording per-operation latencies into per-thread mergeable histograms
// (telemetry.Hist) instead of raw sample slices: constant memory per
// thread regardless of opsPerThread, and the merged percentiles are
// within one log-bucket (~3%) of the exact sorted-sample values.
func measureCAS(impl string, threads, opsPerThread int, lat *memsim.Latency) telemetry.Percentiles {
	dev := memsim.NewDevice(memsim.Config{HWccWords: 64})
	var unit *nmp.Unit
	if impl == "hw_cas" {
		unit = nmp.New(dev, lat)
	}
	hists := make([]telemetry.Hist, threads)
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			h := &hists[tid]
			for i := 0; i < opsPerThread; i++ {
				start := time.Now()
				for {
					var cur uint64
					switch impl {
					case "hw_cas":
						cur = unit.Load(tid, 0)
						if _, ok := unit.MCAS(tid, 0, cur, cur+1); ok {
							goto done
						}
					case "sw_flush_cas":
						// Flush the line, reload across the link, CAS.
						lat.Inject(lat.FlushCost)
						lat.Inject(lat.CXLLoad)
						cur = dev.HWccLoad(0)
						lat.Inject(lat.CASRTT)
						if dev.HWccCAS(0, cur, cur+1) {
							goto done
						}
					default: // sw_cas: mostly cache-resident
						lat.Inject(lat.LocalLoad)
						cur = dev.HWccLoad(0)
						lat.Inject(lat.CASRTT)
						if dev.HWccCAS(0, cur, cur+1) {
							goto done
						}
					}
				}
			done:
				h.Observe(time.Since(start))
			}
		}(t)
	}
	wg.Wait()
	var merged telemetry.Hist
	for t := range hists {
		merged.Merge(&hists[t])
	}
	return merged.Percentiles()
}

// FormatFig11 renders the percentile rows like the paper's figure
// series (one line per impl × thread count).
func FormatFig11(rows []Row) string {
	out := "\n== fig11 :: CAS latency on CXL memory ==\n"
	out += fmt.Sprintf("%-14s %8s %12s %12s %12s %12s\n", "impl", "threads", "p50", "p90", "p99", "p99.9")
	for _, r := range rows {
		out += fmt.Sprintf("%-14s %8d %12s %12s %12s %12s\n",
			r.Workload, r.Threads, r.Extra["p50"], r.Extra["p90"], r.Extra["p99"], r.Extra["p99.9"])
	}
	return out
}
