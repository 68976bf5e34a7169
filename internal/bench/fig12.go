package bench

import (
	"cxlalloc/internal/atomicx"
	"cxlalloc/internal/baselines/ralloc"
	"cxlalloc/internal/memsim"
)

// RunFig12 regenerates Figure 12: small-heap microbenchmark throughput
// under different CXL coherence assumptions — cxlalloc and ralloc each
// on local DRAM, on HWcc CXL memory, and on the NMP mCAS prototype.
//
// The paper's findings this must reproduce in shape:
//   - DRAM and HWcc-CXL perform similarly for both allocators.
//   - threadtest: cxlalloc-mcas retains a large fraction of
//     cxlalloc-hwcc (the SWcc protocol keeps local metadata cached),
//     while ralloc-mcas collapses (it reads a size class from
//     uncachable memory on every free).
//   - xmalloc: cxlalloc-mcas pays an mCAS per remote free and drops
//     far below hwcc, but scales better than ralloc-mcas, whose shared
//     partial superblocks contend on mCAS.
func RunFig12(sc Scale) ([]Row, error) {
	type variant struct {
		name string
		fac  Factory
	}
	latCXL := memsim.LatencyCXL()
	latDRAM := memsim.LatencyDRAM()
	mkRalloc := func(name string, mode atomicx.Mode, lat *memsim.Latency) Factory {
		return Factory{Name: name, New: func(threads int) (*Instance, error) {
			r := ralloc.New(sc.ArenaBytes, threads, mode, lat)
			inst := &Instance{A: r, Ralloc: r}
			for tid := 0; tid < threads; tid++ {
				inst.TIDs = append(inst.TIDs, tid)
			}
			return inst, nil
		}}
	}
	variants := []variant{
		{"cxlalloc", NewCXLFactory(CXLVariant{Name: "cxlalloc", Mode: atomicx.ModeDRAM, Latency: latDRAM, Procs: sc.Procs}, sc.ArenaBytes)},
		{"cxlalloc-hwcc", NewCXLFactory(CXLVariant{Name: "cxlalloc-hwcc", Mode: atomicx.ModeHWcc, Latency: latCXL, Procs: sc.Procs}, sc.ArenaBytes)},
		{"cxlalloc-mcas", NewCXLFactory(CXLVariant{Name: "cxlalloc-mcas", Mode: atomicx.ModeMCAS, Latency: latCXL, Procs: sc.Procs}, sc.ArenaBytes)},
		{"ralloc", mkRalloc("ralloc", atomicx.ModeDRAM, latDRAM)},
		{"ralloc-hwcc", mkRalloc("ralloc-hwcc", atomicx.ModeHWcc, latCXL)},
		{"ralloc-mcas", mkRalloc("ralloc-mcas", atomicx.ModeMCAS, latCXL)},
	}
	var rows []Row
	for _, shape := range []string{"threadtest-small", "xmalloc-small"} {
		for _, v := range variants {
			for _, threads := range sc.Threads {
				row, err := runMicro("fig12", v.fac, shape, sc, threads, 64)
				if err != nil {
					return nil, err
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}
