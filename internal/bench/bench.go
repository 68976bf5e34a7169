// Package bench is the benchmark harness that regenerates every table
// and figure of the paper's evaluation (§5). Each experiment has a
// Run* entry point returning Rows; cmd/cxlbench prints them as aligned
// tables (the same rows/series the paper plots) and optionally as
// NDJSON, mirroring the paper's artifact output format.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"cxlalloc/internal/alloc"
	"cxlalloc/internal/atomicx"
	"cxlalloc/internal/baselines/boostipc"
	"cxlalloc/internal/baselines/cxlshm"
	"cxlalloc/internal/baselines/lightning"
	"cxlalloc/internal/baselines/mim"
	"cxlalloc/internal/baselines/ralloc"
	"cxlalloc/internal/core"
	"cxlalloc/internal/crash"
	"cxlalloc/internal/memsim"
	"cxlalloc/internal/vas"
)

// Row is one measured data point.
type Row struct {
	Experiment string            `json:"experiment"`
	Workload   string            `json:"workload"`
	Allocator  string            `json:"allocator"`
	Threads    int               `json:"threads"`
	Procs      int               `json:"procs,omitempty"`
	Ops        int               `json:"ops,omitempty"`
	ElapsedSec float64           `json:"elapsed_sec,omitempty"`
	Throughput float64           `json:"throughput,omitempty"` // ops/sec (mean over trials)
	ThroughStd float64           `json:"throughput_std,omitempty"`
	PSSBytes   uint64            `json:"pss_bytes,omitempty"`
	HWccBytes  uint64            `json:"hwcc_bytes,omitempty"`
	Failed     string            `json:"failed,omitempty"` // why this configuration cannot run
	Extra      map[string]string `json:"extra,omitempty"`
}

// Scale sizes an experiment run. The paper's full-scale numbers (8.4M
// operations, 64 GiB heaps, 80 threads) are reachable by raising these.
type Scale struct {
	Ops         int    // total operations per trial
	Keyspace    uint64 // distinct keys
	InitialLoad int    // preloaded records for read-mostly workloads
	Buckets     int    // hash index buckets
	ArenaBytes  int    // per-allocator backing memory
	Trials      int    // repetitions (paper: 10)
	Threads     []int  // thread counts to sweep
	Procs       int    // processes for cross-process allocators (paper: 10)
	Seed        uint64
}

// SmallScale is sized for CI and bench_test.go (seconds per experiment).
func SmallScale() Scale {
	return Scale{
		Ops:         30_000,
		Keyspace:    20_000,
		InitialLoad: 10_000,
		Buckets:     1 << 15,
		ArenaBytes:  1 << 30,
		Trials:      1,
		Threads:     []int{1, 4},
		Procs:       2,
		Seed:        2026,
	}
}

// DefaultScale is a laptop-scale reproduction (minutes per experiment).
func DefaultScale() Scale {
	return Scale{
		Ops:         400_000,
		Keyspace:    200_000,
		InitialLoad: 100_000,
		Buckets:     1 << 18,
		ArenaBytes:  768 << 20,
		Trials:      3,
		Threads:     []int{1, 2, 4, 8},
		Procs:       2,
		Seed:        2026,
	}
}

// Instance is one constructed allocator under test.
type Instance struct {
	A      alloc.Allocator
	TIDs   []int             // attached thread slots, one per worker
	Heap   *core.Heap        // non-nil for cxlalloc variants
	Ralloc *ralloc.Allocator // non-nil for ralloc variants
	Spaces []*vas.Space
	Crash  *crash.Injector // non-nil for cxlalloc variants
}

// Factory builds a fresh Instance with the given worker count.
type Factory struct {
	Name string
	New  func(threads int) (*Instance, error)
}

// CXLVariant parameterizes cxlalloc factories.
type CXLVariant struct {
	Name           string
	Mode           atomicx.Mode
	Latency        *memsim.Latency
	NonRecoverable bool
	AlwaysFresh    bool
	NoDisown       bool
	Procs          int // simulated processes to spread threads over
	// WithInjector installs a crash injector (Figure 7 only: the
	// injector's bookkeeping costs a lock per crash point, which must
	// not contaminate throughput experiments).
	WithInjector bool
}

// NewCXLFactory builds a cxlalloc Instance factory: a device sized for
// arenaBytes of data, procs processes with fault handlers, threads
// spread round-robin.
func NewCXLFactory(v CXLVariant, arenaBytes int) Factory {
	return Factory{Name: v.Name, New: func(threads int) (*Instance, error) {
		cfg := core.DefaultConfig()
		cfg.NumThreads = threads
		if cfg.NumThreads > 512 {
			return nil, fmt.Errorf("bench: %d threads exceeds slot limit", threads)
		}
		cfg.MaxSmallSlabs = arenaBytes / core.SmallSlabSize
		cfg.MaxLargeSlabs = arenaBytes / core.LargeSlabSize
		cfg.HugeRegionSize = 16 << 20
		cfg.NumReservations = arenaBytes / int(cfg.HugeRegionSize)
		cfg.DescsPerThread = 128
		if threads*cfg.DescsPerThread > 1<<16 {
			cfg.DescsPerThread = (1 << 16) / threads
		}
		cfg.NumHazards = 64
		cfg.Mode = v.Mode
		cfg.Latency = v.Latency
		cfg.NonRecoverable = v.NonRecoverable
		cfg.AlwaysFreshOwner = v.AlwaysFresh
		cfg.NoDisown = v.NoDisown
		var inj *crash.Injector
		if v.WithInjector {
			inj = crash.NewInjector()
			cfg.Crash = inj
		}

		dc, err := core.DeviceFor(cfg)
		if err != nil {
			return nil, err
		}
		dev := memsim.NewDevice(dc)
		h, err := core.NewHeap(cfg, dev)
		if err != nil {
			return nil, err
		}
		procs := v.Procs
		if procs <= 0 {
			procs = 1
		}
		if procs > threads {
			procs = threads
		}
		inst := &Instance{A: alloc.NewCXL(h, v.Name), Heap: h, Crash: inj}
		for p := 0; p < procs; p++ {
			sp := vas.NewSpace(p, dev, core.PageSize)
			sp.SetHandler(func(tid int, s *vas.Space, page uint64) bool {
				return h.HandleFault(tid, s.Install, page)
			})
			inst.Spaces = append(inst.Spaces, sp)
		}
		for tid := 0; tid < threads; tid++ {
			if err := h.AttachThread(tid, inst.Spaces[tid%procs]); err != nil {
				return nil, err
			}
			inst.TIDs = append(inst.TIDs, tid)
		}
		return inst, nil
	}}
}

// Factories returns the evaluation's allocator lineup (Figure 8/9), in
// the paper's order.
func Factories(sc Scale) []Factory {
	simple := func(name string, mk func(threads int) alloc.Allocator) Factory {
		return Factory{Name: name, New: func(threads int) (*Instance, error) {
			inst := &Instance{A: mk(threads)}
			for tid := 0; tid < threads; tid++ {
				inst.TIDs = append(inst.TIDs, tid)
			}
			return inst, nil
		}}
	}
	return []Factory{
		NewCXLFactory(CXLVariant{Name: "cxlalloc", Procs: sc.Procs}, sc.ArenaBytes),
		NewCXLFactory(CXLVariant{Name: "cxlalloc-nonrecoverable", NonRecoverable: true, Procs: sc.Procs}, sc.ArenaBytes),
		simple("mimalloc", func(t int) alloc.Allocator { return mim.New(sc.ArenaBytes, t) }),
		simple("ralloc", func(t int) alloc.Allocator {
			inst := ralloc.New(sc.ArenaBytes, t, atomicx.ModeDRAM, nil)
			return inst
		}),
		simple("cxl-shm", func(t int) alloc.Allocator { return cxlshm.New(sc.ArenaBytes) }),
		simple("boost", func(t int) alloc.Allocator { return boostipc.New(sc.ArenaBytes) }),
		simple("lightning", func(t int) alloc.Allocator {
			return lightning.New(sc.ArenaBytes, sc.ArenaBytes/1024)
		}),
	}
}

// --- output ---

// WriteNDJSON emits rows one JSON object per line (the artifact's
// result format).
func WriteNDJSON(w io.Writer, rows []Row) error {
	enc := json.NewEncoder(w)
	for _, r := range rows {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return nil
}

// PrintTable renders rows as an aligned text table grouped by workload.
func PrintTable(w io.Writer, rows []Row) {
	if len(rows) == 0 {
		return
	}
	byWorkload := map[string][]Row{}
	var order []string
	for _, r := range rows {
		if _, ok := byWorkload[r.Workload]; !ok {
			order = append(order, r.Workload)
		}
		byWorkload[r.Workload] = append(byWorkload[r.Workload], r)
	}
	for _, wl := range order {
		rs := byWorkload[wl]
		fmt.Fprintf(w, "\n== %s :: %s ==\n", rs[0].Experiment, wl)
		fmt.Fprintf(w, "%-26s %8s %6s %14s %12s %12s %10s  %s\n",
			"allocator", "threads", "procs", "ops/sec", "±std", "PSS", "HWcc", "notes")
		sort.SliceStable(rs, func(i, j int) bool {
			if rs[i].Allocator != rs[j].Allocator {
				return rs[i].Allocator < rs[j].Allocator
			}
			return rs[i].Threads < rs[j].Threads
		})
		for _, r := range rs {
			notes := r.Failed
			if len(r.Extra) > 0 {
				keys := make([]string, 0, len(r.Extra))
				for k := range r.Extra {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				var parts []string
				for _, k := range keys {
					parts = append(parts, k+"="+r.Extra[k])
				}
				if notes != "" {
					notes += " "
				}
				notes += strings.Join(parts, " ")
			}
			fmt.Fprintf(w, "%-26s %8d %6d %14s %12s %12s %10s  %s\n",
				r.Allocator, r.Threads, r.Procs,
				humanFloat(r.Throughput), humanFloat(r.ThroughStd),
				humanBytes(r.PSSBytes), humanBytes(r.HWccBytes), notes)
		}
	}
}

func humanFloat(v float64) string {
	switch {
	case v == 0:
		return "-"
	case v >= 1e9:
		return fmt.Sprintf("%.2fG", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.2fk", v/1e3)
	default:
		return fmt.Sprintf("%.1f", v)
	}
}

func humanBytes(v uint64) string {
	switch {
	case v == 0:
		return "-"
	case v >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(v)/(1<<30))
	case v >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(v)/(1<<20))
	case v >= 1<<10:
		return fmt.Sprintf("%.2fKiB", float64(v)/(1<<10))
	default:
		return fmt.Sprintf("%dB", v)
	}
}

// summarizeTrials folds per-trial throughputs into a Row.
func summarizeTrials(row Row, tput []float64) Row {
	if len(tput) == 0 {
		return row
	}
	var sum float64
	for _, v := range tput {
		sum += v
	}
	mean := sum / float64(len(tput))
	var varSum float64
	for _, v := range tput {
		varSum += (v - mean) * (v - mean)
	}
	row.Throughput = mean
	if len(tput) > 1 {
		row.ThroughStd = math.Sqrt(varSum / float64(len(tput)-1))
	}
	return row
}
