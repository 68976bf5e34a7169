package bench

import (
	"fmt"

	"cxlalloc/internal/telemetry"
	"cxlalloc/internal/workload"
)

// RunFig9 regenerates Figure 9: the threadtest-small and xmalloc-small
// allocator microbenchmarks across every allocator and thread count.
// threadtest uses fixed-size, entirely thread-local operations (peak
// allocator throughput); xmalloc is producer-consumer, stressing the
// remote-free path.
func RunFig9(sc Scale) ([]Row, error) {
	var rows []Row
	for _, shape := range []string{"threadtest-small", "xmalloc-small"} {
		for _, fac := range Factories(sc) {
			for _, threads := range sc.Threads {
				row, err := runMicro("fig9", fac, shape, sc, threads, 64)
				if err != nil {
					return nil, err
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// MetricsSink, when non-nil, receives the unified telemetry snapshot of
// every cxlalloc instance a microbenchmark cell measures, after the
// workload joined and the published mirrors were force-refreshed (so the
// snapshot is exact, not cadence-lagged). cmd/cxlbench installs it for
// -metrics; dims carry experiment/workload/allocator/threads/trial.
var MetricsSink func(dims map[string]string, s telemetry.Snapshot)

// runMicro runs one microbenchmark cell over sc.Trials trials.
// objSize chooses small (64 B) or huge (multi-MiB) objects.
func runMicro(exp string, fac Factory, shape string, sc Scale, threads, objSize int) (Row, error) {
	row := Row{
		Experiment: exp,
		Workload:   shape,
		Allocator:  fac.Name,
		Threads:    threads,
		Procs:      sc.Procs,
	}
	// xmalloc needs producer/consumer pairs.
	if shape[:7] == "xmalloc" && threads < 2 {
		row.Failed = "needs >= 2 threads"
		return row, nil
	}
	var tputs []float64
	for trial := 0; trial < sc.Trials; trial++ {
		inst, err := fac.New(threads)
		if err != nil {
			return row, err
		}
		var res workload.MicroResult
		switch {
		case shape[:10] == "threadtest":
			// Fixed total work: rounds scale inversely with threads.
			batch := 100
			rounds := sc.Ops / (2 * batch * threads)
			if rounds < 1 {
				rounds = 1
			}
			if objSize > 1<<20 {
				batch, rounds = 4, max(1, sc.Ops/(2*4*threads*256))
			}
			res = workload.Threadtest(inst.A, inst.TIDs, rounds, batch, objSize)
		default: // xmalloc
			pairs := threads / 2
			tids := inst.TIDs[:pairs*2]
			perProducer := sc.Ops / (2 * pairs)
			if objSize > 1<<20 {
				perProducer = max(1, perProducer/256)
			}
			res = workload.Xmalloc(inst.A, tids, perProducer, objSize)
		}
		if res.Errors > 0 && res.Ops == 0 {
			row.Failed = "crash: allocations failed"
			return row, nil
		}
		tputs = append(tputs, res.OpsPerSec())
		row.Ops = res.Ops
		row.ElapsedSec = res.Elapsed.Seconds()
		f := inst.A.Footprint()
		row.PSSBytes = f.PSS()
		row.HWccBytes = f.HWccBytes
		if res.Errors > 0 {
			row.Extra = map[string]string{"allocErrors": fmt.Sprint(res.Errors)}
		}
		if MetricsSink != nil && inst.Heap != nil {
			inst.Heap.PublishStats()
			MetricsSink(map[string]string{
				"experiment": exp,
				"workload":   shape,
				"allocator":  fac.Name,
				"threads":    fmt.Sprint(threads),
				"trial":      fmt.Sprint(trial),
			}, inst.Heap.Snapshot())
		}
		releaseMemory()
	}
	return summarizeTrials(row, tputs), nil
}
