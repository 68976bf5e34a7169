// Command cxlbench regenerates the paper's tables and figures (the
// counterpart of the artifact's script/run.sh + workload TOMLs).
//
// Usage:
//
//	cxlbench -list                           # registered experiments
//	cxlbench -exp all                        # everything, default scale
//	cxlbench -exp fig8 -workloads YCSB-A     # one figure, one workload
//	cxlbench -exp fig11 -threads 1,4,8,16    # latency sweep
//	cxlbench -exp table1                     # property matrix
//	cxlbench -exp fig9 -scale small -out results.ndjson
//	cxlbench -exp hotpath -json BENCH_hotpath.json -label after
//	cxlbench -exp hotpath -cpuprofile cpu.pprof -memprofile mem.pprof
//	cxlbench -trace out.json -exp fig9 -scale small
//	cxlbench -exp slo -json BENCH_slo.json -label baseline
//
// Run cxlbench -list for the experiment registry with descriptions, and
// cxlbench -h for the flags: the run-wide ones, then each experiment's
// own with its real default. An experiment's flag is accepted only when
// -exp names that experiment. -exp all runs the paper's tables/figures
// and the offline gates; the online gates (livechaos, slo, slochaos,
// fabricchaos) run only when named.
//
// -exp slo drives open-loop YCSB-shaped load through the KV service
// front end (internal/server) at fixed multiples of measured capacity,
// reporting goodput, p50/p99/p999, and shed/retry/breaker counts, with
// hard gates: no lost acks, goodput at 2x >= 80% of capacity, bounded
// p99, shedding engaged at the top rate. -exp slochaos reruns the 2x
// point while killing whole process groups (watchdog-only recovery)
// and additionally gates that the circuit breaker opened and nothing
// acked was lost.
//
// -exp livechaos runs the online chaos gate: continuous kvstore traffic
// with no quiesce while a seeded injector kills threads and whole
// processes at random crash points, resolves each crash with an
// adversarial persist-subset drop, and fires NMP fault bursts; the
// liveness watchdog is the only recovery path. The run reports ops/s,
// p99 latency, MTTR percentiles, availability, and three gates
// (invariants+ledger, lost acks, false takeovers). The fault schedule
// is recorded to -schedule-out as NDJSON and replayed bit-for-bit with
// -replay:
//
//	cxlbench -exp livechaos -seed 1 -duration 10s -schedule-out s.ndjson
//	cxlbench -exp livechaos -seed 1 -replay s.ndjson
//
// -exp persist runs the adversarial persistence sweep: every crash
// point crossed with enumerated/sampled persist subsets of the
// crash-time write window. A single failing cell replays with
//
//	cxlbench -exp persist -seed S -persist-point P -persist-mask 0xM
//
// (the exact line every violation report prints). -persist-mutate runs
// the sweep against the deliberately broken SkipOplogFlush allocator,
// which must fail — the mutation meta-test.
//
// -json appends a labeled run (rows sorted, stable field order) to a
// BENCH_*.json trajectory file, so per-PR before/after numbers are
// machine-recorded and diffable in review. -cpuprofile/-memprofile
// write standard pprof profiles of whatever experiments ran.
//
// -trace records every pod event of the run (alloc/free, SWcc flushes,
// mCAS retries, crashes, recoveries, lease activity) into a Chrome
// trace_event JSON loadable in chrome://tracing or ui.perfetto.dev.
// -metrics appends one unified telemetry snapshot per measured cxlalloc
// cell as NDJSON.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"cxlalloc/internal/bench"
	"cxlalloc/internal/telemetry"
)

// An experiment is one -exp name: a one-line description for -list,
// whether -exp all includes it, the flags it owns (nil for none), bound
// straight into the config its runner reads, and the runner.
type experiment struct {
	name  string
	desc  string
	inAll bool
	flags *flag.FlagSet
	check func() error // cross-flag rules, run before anything when named
	run   func(sc bench.Scale) ([]bench.Row, error)
}

// paperExp is an experiment of -exp all without flags of its own.
func paperExp(name, desc string, run func(sc bench.Scale) ([]bench.Row, error)) *experiment {
	return &experiment{name: name, desc: desc, inAll: true, run: run}
}

// newFlags is a flag set that prints nothing: parse reports its errors.
func newFlags(name string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

// experiments builds the registry behind -exp and -list, each experiment
// bound to a fresh default config. Order is the -exp all execution order.
func experiments() []*experiment {
	return []*experiment{
		paperExp("table1", "property matrix across allocators (Table 1)", bench.RunTable1),
		paperExp("table2", "YCSB workload suite at default scale (Table 2)", func(sc bench.Scale) ([]bench.Row, error) { return bench.RunTable2(sc, 0) }),
		paperExp("fig7", "recovery time vs live objects (Figure 7)", func(sc bench.Scale) ([]bench.Row, error) { return bench.RunFig7(sc, 0, 0) }),
		fig8Exp(),
		paperExp("fig9", "multi-process scaling (Figure 9)", bench.RunFig9),
		paperExp("fig10", "PSS footprint under churn (Figure 10)", func(sc bench.Scale) ([]bench.Row, error) { return bench.RunFig10(sc, nil) }),
		paperExp("fig11", "operation latency percentiles by thread count (Figure 11)", func(sc bench.Scale) ([]bench.Row, error) {
			return bench.RunFig11(sc.Threads, max(sc.Ops/100, 200))
		}),
		paperExp("fig12", "HWcc traffic accounting (Figure 12)", bench.RunFig12),
		paperExp("ablation-recovery", "recovery path ablation", bench.RunAblationRecovery),
		paperExp("ablation-owner-cache", "owner-cache ablation", bench.RunAblationOwnerCache),
		paperExp("ablation-hwcc", "HWcc accounting ablation", bench.RunAblationHWccAccounting),
		paperExp("ablation-disown", "disown batching ablation", func(sc bench.Scale) ([]bench.Row, error) { return bench.RunAblationDisown(sc, 0) }),
		paperExp("chaos", "crash-point sweep gate (thread/process kills, NMP faults)", runChaos),
		persistExp(),
		paperExp("mttr", "watchdog repair-time distribution", bench.RunMTTR),
		paperExp("hotpath", "allocation hot-path microbenchmark", bench.RunHotpath),
		paperExp("obs", "telemetry overhead on/off comparison", bench.RunObs),
		liveChaosExp(),
		sloExp(),
		sloChaosExp(),
		fabricChaosExp(),
	}
}

func fig8Exp() *experiment {
	var wl []string
	e := paperExp("fig8", "throughput by workload and allocator (Figure 8)", func(sc bench.Scale) ([]bench.Row, error) { return bench.RunFig8(sc, wl) })
	e.flags = newFlags(e.name)
	e.flags.Func("workloads", "comma-separated workload filter (default: all)", func(s string) error {
		wl = strings.Split(s, ",")
		return nil
	})
	return e
}

// invocation is a parsed command line: the experiments to run, in order,
// the scale they run at, and where the run's outputs go.
type invocation struct {
	list bool
	exps []*experiment
	sc   bench.Scale

	out, jsonOut, label    string
	cpuProfile, memProfile string
	traceOut, metricsOut   string
	traceCap               int
}

// shared is the command-line flag for one name that one or more
// experiments declare: a value given once is set on each of them.
type shared []*flag.Flag

func (s *shared) String() string {
	if len(*s) == 0 {
		return ""
	}
	return (*s)[0].Value.String()
}

func (s *shared) Set(v string) error {
	for _, f := range *s {
		if err := f.Value.Set(v); err != nil {
			return err
		}
	}
	return nil
}

func (s *shared) IsBoolFlag() bool {
	b, ok := (*s)[0].Value.(interface{ IsBoolFlag() bool })
	return ok && b.IsBoolFlag()
}

// parse reads a command line without running anything. Every error is a
// usage error (exit 2); flag.ErrHelp means -h was asked for and the usage
// went to stderr.
func parse(args []string, stderr io.Writer) (*invocation, error) {
	inv := &invocation{}
	exps := experiments()

	global := newFlags("cxlbench")
	expList := global.String("exp", "all", "experiment to run (comma-separated; see -list)")
	global.BoolVar(&inv.list, "list", false, "print the registered experiments and exit")
	scaleName := global.String("scale", "default", "small | default")
	global.StringVar(&inv.out, "out", "", "append NDJSON results to this file")
	global.StringVar(&inv.jsonOut, "json", "", "append a labeled, stably sorted run to this BENCH_*.json file")
	global.StringVar(&inv.label, "label", "current", "run label recorded in -json output (e.g. before, after)")
	global.StringVar(&inv.cpuProfile, "cpuprofile", "", "write a pprof CPU profile of the run to this file")
	global.StringVar(&inv.memProfile, "memprofile", "", "write a pprof heap profile after the run to this file")
	global.StringVar(&inv.traceOut, "trace", "", "record a Chrome trace_event JSON of the run to this file (open in chrome://tracing or ui.perfetto.dev)")
	global.IntVar(&inv.traceCap, "trace-cap", 1<<20, "per-thread trace ring capacity (events) for -trace; rounds up to a power of two")
	global.StringVar(&inv.metricsOut, "metrics", "", "append unified metrics snapshots (NDJSON, one per measured cxlalloc cell) to this file")

	// The scale flags edit the chosen scale's fields, whichever order
	// -scale and they come in.
	var edits []func(*bench.Scale)
	scaleInt := func(name, usage string, field func(*bench.Scale) *int) {
		global.Func(name, usage+" (default: the scale's)", func(s string) error {
			v, err := strconv.Atoi(s)
			if err == nil && v <= 0 {
				err = errors.New("must be positive")
			}
			edits = append(edits, func(sc *bench.Scale) { *field(sc) = v })
			return err
		})
	}
	scaleInt("procs", "process count", func(sc *bench.Scale) *int { return &sc.Procs })
	scaleInt("ops", "total operations per trial", func(sc *bench.Scale) *int { return &sc.Ops })
	scaleInt("trials", "trial count", func(sc *bench.Scale) *int { return &sc.Trials })
	scaleInt("arena", "per-allocator backing memory (bytes)", func(sc *bench.Scale) *int { return &sc.ArenaBytes })
	global.Func("threads", "thread counts, e.g. 1,2,4,8 (default: the scale's)", func(s string) error {
		var ts []int
		for _, f := range strings.Split(s, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return err
			}
			ts = append(ts, n)
		}
		edits = append(edits, func(sc *bench.Scale) { sc.Threads = ts })
		return nil
	})
	global.Func("seed", fmt.Sprintf("workload RNG seed, recorded in every report row (default %d)", bench.DefaultScale().Seed), func(s string) error {
		v, err := strconv.ParseUint(s, 0, 64)
		edits = append(edits, func(sc *bench.Scale) { sc.Seed = v })
		return err
	})

	fs := newFlags("cxlbench")
	global.VisitAll(func(f *flag.Flag) { fs.Var(f.Value, f.Name, f.Usage) })
	owners := map[string][]string{}
	for _, e := range exps {
		if e.flags == nil {
			continue
		}
		e.flags.VisitAll(func(f *flag.Flag) {
			if owners[f.Name] == nil {
				fs.Var(&shared{}, f.Name, "")
			}
			s := fs.Lookup(f.Name).Value.(*shared)
			*s = append(*s, f)
			owners[f.Name] = append(owners[f.Name], e.name)
		})
	}

	if err := fs.Parse(args); err != nil {
		if err == flag.ErrHelp {
			usage(stderr, global, exps)
		}
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}

	names := strings.Split(*expList, ",")
	if *expList == "all" {
		names = names[:0]
		for _, e := range exps {
			if e.inAll {
				names = append(names, e.name)
			}
		}
	}
	named := map[string]bool{}
	for _, n := range names {
		n = strings.TrimSpace(n)
		var found *experiment
		for _, e := range exps {
			if e.name == n {
				found = e
			}
		}
		if found == nil {
			return nil, fmt.Errorf("unknown experiment %q", n)
		}
		named[n] = true
		inv.exps = append(inv.exps, found)
	}

	// An experiment's flag configures only that experiment: one given
	// without it is a mistake, not a no-op.
	var err error
	fs.Visit(func(f *flag.Flag) {
		for _, o := range owners[f.Name] {
			if named[o] {
				return
			}
		}
		if owners[f.Name] != nil && err == nil {
			err = fmt.Errorf("-%s belongs to -exp %s, which -exp %s does not name", f.Name, strings.Join(owners[f.Name], "/"), *expList)
		}
	})
	if err != nil {
		return nil, err
	}
	for _, e := range inv.exps {
		if e.check != nil {
			if err := e.check(); err != nil {
				return nil, err
			}
		}
	}

	inv.sc = bench.DefaultScale()
	switch *scaleName {
	case "default":
	case "small":
		inv.sc = bench.SmallScale()
	default:
		return nil, fmt.Errorf("-scale %q: want small or default", *scaleName)
	}
	for _, edit := range edits {
		edit(&inv.sc)
	}
	return inv, nil
}

// usage prints the run-wide flags, then each experiment's own.
func usage(w io.Writer, global *flag.FlagSet, exps []*experiment) {
	fmt.Fprintln(w, "usage: cxlbench [flags] -exp NAME[,NAME...] [experiment flags]")
	fmt.Fprintln(w, "\nflags:")
	global.SetOutput(w)
	global.PrintDefaults()
	for _, e := range exps {
		if e.flags != nil {
			fmt.Fprintf(w, "\n-exp %s flags:\n", e.name)
			e.flags.SetOutput(w)
			e.flags.PrintDefaults()
		}
	}
}

func main() {
	inv, err := parse(os.Args[1:], os.Stderr)
	if err == flag.ErrHelp {
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "cxlbench:", err)
		fmt.Fprintln(os.Stderr, "run cxlbench -list for experiments, cxlbench -h for flags")
		os.Exit(2)
	}

	if inv.list {
		for _, e := range experiments() {
			scope := "  "
			if !e.inAll {
				scope = "* " // opt-in: not part of -exp all
			}
			fmt.Printf("%s%-22s %s\n", scope, e.name, e.desc)
		}
		fmt.Println("\nexperiments marked * run only when named (not part of -exp all)")
		return
	}

	if inv.cpuProfile != "" {
		f, err := os.Create(inv.cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	sc := inv.sc
	// -trace installs the global tracer for the whole invocation. Rings
	// must cover the widest thread sweep (chaos pods use 4 slots). A
	// requested trace is a request for the full event stream: hot-kind
	// sampling (the leave-it-on default that the obs experiment measures)
	// is switched to full fidelity, and the ring default is sized so a
	// hotpath-scale run fits without drops (tune with -trace-cap).
	var tracer *telemetry.Tracer
	if inv.traceOut != "" {
		maxT := 4
		for _, t := range sc.Threads {
			maxT = max(maxT, t)
		}
		telemetry.SetHotSamplePeriod(1)
		tracer = telemetry.Start(maxT, inv.traceCap)
	}
	var metrics []telemetry.MetricsRecord
	if inv.metricsOut != "" {
		bench.MetricsSink = func(dims map[string]string, s telemetry.Snapshot) {
			metrics = append(metrics, telemetry.MetricsRecord{Label: inv.label, Dims: dims, Values: s})
		}
	}

	var all []bench.Row
	for _, e := range inv.exps {
		rows, err := e.run(sc)
		if err != nil {
			fatal(err)
		}
		// Every report row carries the run's workload seed, so any cell
		// in any output file is reproducible from its own metadata.
		for i := range rows {
			if rows[i].Extra == nil {
				rows[i].Extra = map[string]string{}
			}
			if _, ok := rows[i].Extra["seed"]; !ok {
				rows[i].Extra["seed"] = fmt.Sprint(sc.Seed)
			}
		}
		all = append(all, rows...)
		print(e.name, rows)
	}

	if inv.out != "" {
		f, err := os.OpenFile(inv.out, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := bench.WriteNDJSON(f, all); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %d rows to %s\n", len(all), inv.out)
	}
	if inv.jsonOut != "" {
		if err := bench.AppendBenchJSON(inv.jsonOut, inv.label, all); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "recorded %d rows as run %q in %s\n", len(all), inv.label, inv.jsonOut)
	}
	if tracer != nil {
		telemetry.Stop()
		f, err := os.Create(inv.traceOut)
		if err != nil {
			fatal(err)
		}
		if err := telemetry.WriteChromeTrace(f, tracer); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote trace (%d events, %d dropped) to %s\n",
			tracer.Recorded(), tracer.Dropped(), inv.traceOut)
		if d := tracer.Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr, "WARNING: trace ring dropped %d events; the trace has gaps (grow the ring with -trace-cap or shrink the run)\n", d)
		}
	}
	if inv.metricsOut != "" {
		f, err := os.OpenFile(inv.metricsOut, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			fatal(err)
		}
		if err := telemetry.WriteMetricsNDJSON(f, metrics); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "wrote %d metrics snapshots to %s\n", len(metrics), inv.metricsOut)
	}
	if inv.memProfile != "" {
		f, err := os.Create(inv.memProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
	}
}

func print(e string, rows []bench.Row) {
	switch e {
	case "table1":
		fmt.Print(bench.FormatTable1(rows))
	case "table2":
		fmt.Print(bench.FormatTable2(rows))
	case "fig7":
		fmt.Print(bench.FormatFig7(rows))
	case "fig11":
		fmt.Print(bench.FormatFig11(rows))
	default:
		bench.PrintTable(os.Stdout, rows)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cxlbench:", err)
	os.Exit(1)
}
