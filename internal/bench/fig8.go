package bench

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"cxlalloc/internal/alloc"
	"cxlalloc/internal/core"
	"cxlalloc/internal/kvstore"
	"cxlalloc/internal/workload"
)

// RunFig8 regenerates Figure 8: throughput and memory consumption for
// the in-memory key-value store workloads (YCSB Load/A/D and the four
// memcached traces) across every allocator and thread count.
//
// Matching the paper's setup: the index is the shared lock-free hash
// table, cross-process allocators spread threads over Scale.Procs
// simulated processes, each trial performs a fixed amount of work, and
// the reported memory is the PSS analogue summed across processes.
func RunFig8(sc Scale, workloads []string) ([]Row, error) {
	var rows []Row
	specs := workload.Specs(sc.Keyspace, sc.InitialLoad)
	for _, spec := range specs {
		if len(workloads) > 0 && !contains(workloads, spec.Name) {
			continue
		}
		for _, fac := range Factories(sc) {
			for _, threads := range sc.Threads {
				row, err := runKVOnce("fig8", fac, spec, sc, threads)
				if err != nil {
					return nil, err
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// runKVOnce runs one (workload, allocator, threads) cell over
// sc.Trials trials.
func runKVOnce(exp string, fac Factory, spec workload.KVSpec, sc Scale, threads int) (Row, error) {
	row := Row{
		Experiment: exp,
		Workload:   spec.Name,
		Allocator:  fac.Name,
		Threads:    threads,
		Procs:      sc.Procs,
	}
	var tputs []float64
	for trial := 0; trial < sc.Trials; trial++ {
		inst, err := fac.New(threads)
		if err != nil {
			return row, err
		}
		res, err := runKVTrial(inst, spec, sc, threads, sc.Seed+uint64(trial))
		if err != nil {
			var unsupported *unsupportedError
			if errors.As(err, &unsupported) {
				// The paper reports cxl-shm "crashes" on MC-12/MC-37;
				// the harness records the failed configuration.
				row.Failed = unsupported.reason
				return row, nil
			}
			return row, err
		}
		tputs = append(tputs, res.tput)
		row.Ops = res.ops
		row.ElapsedSec = res.elapsed.Seconds()
		row.PSSBytes = res.pss
		row.HWccBytes = res.hwcc
		releaseMemory()
	}
	return summarizeTrials(row, tputs), nil
}

// releaseMemory returns freed arenas to the OS between trials (outside
// any timed region). It trades wall time for peak RSS: each next
// NewDevice and NewArena then zeroes pages the OS must fault back in
// (memclrNoHeapPointers under makeslice is 87 % of TestRunFig12's CPU).
// Measured on 2 vCPUs with runtime.GC() alone: this package's tests take
// 11 s instead of 35 s, and -exp fig12 -scale small -trials 1 -threads 2
// 13 s instead of 25 s, but that run's peak RSS rises from 3.2 to 4.7 GB.
func releaseMemory() {
	runtime.GC()
	debug.FreeOSMemory()
}

type unsupportedError struct{ reason string }

func (e *unsupportedError) Error() string { return e.reason }

type kvResult struct {
	ops     int
	elapsed time.Duration
	tput    float64
	pss     uint64
	hwcc    uint64
}

func runKVTrial(inst *Instance, spec workload.KVSpec, sc Scale, threads int, seed uint64) (kvResult, error) {
	store := kvstore.New(inst.A, sc.Buckets, threads)

	// Initial load (not timed), partitioned across threads.
	if spec.InitialLoad > 0 {
		loadSpec := spec
		loadSpec.InsertFrac = 1.0
		loadSpec.DeleteFrac = 0
		var wg sync.WaitGroup
		errCh := make(chan error, threads)
		per := spec.InitialLoad / threads
		for i, tid := range inst.TIDs {
			wg.Add(1)
			go func(i, tid int) {
				defer wg.Done()
				g := workload.NewKVGen(loadSpec, seed^0x10ad, i, threads)
				for j := 0; j < per; j++ {
					op := g.Next()
					if err := store.Put(tid, op.Key, op.Val); err != nil {
						errCh <- err
						return
					}
				}
			}(i, tid)
		}
		wg.Wait()
		select {
		case err := <-errCh:
			return kvResult{}, classify(err)
		default:
		}
	}

	// Timed run: fixed total work divided evenly.
	per := sc.Ops / threads
	var wg sync.WaitGroup
	errCh := make(chan error, threads)
	start := time.Now()
	for i, tid := range inst.TIDs {
		wg.Add(1)
		go func(i, tid int) {
			defer wg.Done()
			g := workload.NewKVGen(spec, seed, i, threads)
			var val []byte
			for j := 0; j < per; j++ {
				op := g.Next()
				switch op.Kind {
				case workload.OpInsert:
					if err := store.Put(tid, op.Key, op.Val); err != nil {
						errCh <- err
						return
					}
				case workload.OpDelete:
					store.Delete(tid, op.Key)
				default:
					val, _ = store.Get(tid, op.Key, val)
				}
			}
		}(i, tid)
	}
	wg.Wait()
	elapsed := time.Since(start)
	select {
	case err := <-errCh:
		return kvResult{}, classify(err)
	default:
	}
	store.Drain()
	f := inst.A.Footprint()
	ops := per * threads
	return kvResult{
		ops:     ops,
		elapsed: elapsed,
		tput:    float64(ops) / elapsed.Seconds(),
		pss:     f.PSS(),
		hwcc:    f.HWccBytes,
	}, nil
}

func classify(err error) error {
	if errors.Is(err, alloc.ErrUnsupportedSize) {
		return &unsupportedError{reason: "crash: allocation size unsupported"}
	}
	if errors.Is(err, alloc.ErrOutOfMemory) || errors.Is(err, core.ErrOutOfMemory) {
		return &unsupportedError{reason: "crash: out of memory"}
	}
	return fmt.Errorf("bench: kv trial failed: %w", err)
}
