// Command benchmark is the repository's benchmark: four workloads driven
// from outside through the public entry points of every layer, end-to-end
// metrics measured untraced, and a traced ladder that prices each layer.
// See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
)

const (
	exitFailed = 1 // a check failed, or -compare found a metric worse
	exitUsage  = 2 // bad flags, bad inputs, or too few CPUs
)

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "run one workload: kv_mixed, kv_read, kv_bigval or alloc_mix (default: all four)")
		seed     = flag.Uint64("seed", 2026, "workload seed: the same seed gives the same op streams")
		seconds  = flag.Float64("seconds", 0, "measuring time of one run (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", -1, "0: the untraced end-to-end run; 1: the traced per-layer run (default: both)")
		quick    = flag.Bool("quick", false, "a twentieth of the measuring time and 1 repeat; the output is stamped and -compare rejects it")
		spans    = flag.String("spans", "", "write the traced runs' spans to this file as NDJSON when the benchmark ends")
		out      = flag.String("json", "", "also write the full report to this file")
		compare  = flag.Bool("compare", false, "compare two full reports: -compare a.json b.json")
		asChild  = flag.Bool("as-child", false, "internal: one run of a full report; print its report, not the result line")
	)
	flag.Parse()
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: BENCHMARK.json not found in the working directory or above it")
		return exitUsage
	}
	man, err := readManifest(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return exitUsage
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare takes two report files")
			return exitUsage
		}
		return compareReports(man, flag.Arg(0), flag.Arg(1), os.Stdout)
	}
	if flag.NArg() != 0 || *trace < -1 || *trace > 1 {
		flag.Usage()
		return exitUsage
	}
	if runtime.NumCPU() < nConns || runtime.GOMAXPROCS(0) < nConns {
		fmt.Fprintf(os.Stderr, "benchmark: the load shape is %d driver goroutines on their own CPUs; this machine offers nproc %d, GOMAXPROCS %d\n",
			nConns, runtime.NumCPU(), runtime.GOMAXPROCS(0))
		return exitUsage
	}
	specs := workloads
	if *workload != "" {
		spec, ok := workloadByName(*workload)
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *workload)
			return exitUsage
		}
		specs = []wlSpec{spec}
	}
	if *seconds == 0 {
		*seconds = float64(man.RunSeconds)
	}
	traces := []int{0, 1}
	if *trace >= 0 {
		traces = []int{*trace}
	}
	if len(specs)*len(traces) > 1 {
		if *spans != "" {
			fmt.Fprintln(os.Stderr, "benchmark: -spans needs one traced run: -workload W -trace 1 -spans file")
			return exitUsage
		}
		return runAll(specs, traces, *out)
	}

	// One workload and one trace mode is the driver's unit of work.
	rep := report{
		Benchmark: "cxlalloc stack", Quick: *quick, Env: readEnv(root, *seed),
		LoadShape: loadShape, Model: simNote,
	}
	fmt.Fprintf(os.Stderr, "env: nproc %d GOMAXPROCS %d %s commit %s seed %d; time.Sleep(100us) takes %.3f ms here\n",
		rep.Env.NProc, rep.Env.GOMAXPROCS, rep.Env.GoVersion, rep.Env.GitCommit, rep.Env.Seed, rep.Env.Sleep100usMs)
	if !*asChild {
		fmt.Fprintln(os.Stderr, simNote)
	}
	if *quick {
		*seconds /= 20
	}
	var res *runResult
	if traces[0] == 0 {
		res = runE2E(specs[0], *seed, *seconds, *quick)
	} else {
		var kept []*spanBuf
		res, kept = runTraced(specs[0], *seed, *seconds)
		if *spans != "" {
			if err := writeSpans(*spans, kept); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark: writing spans:", err)
				return exitUsage
			}
		}
	}
	res.table(os.Stderr)
	rep.Runs = []runResult{*res}
	if err := writeReport(*out, rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: writing report:", err)
		return exitUsage
	}
	// The driver reads one line; a parent benchmark process reads the report.
	if *asChild {
		err = writeJSON(os.Stdout, rep, false)
	} else {
		err = writeJSON(os.Stdout, res.contract(), false)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return exitUsage
	}
	if !res.Correct {
		return exitFailed
	}
	return 0
}

func writeReport(path string, rep report) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeJSON(f, rep, true); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAll is the full report: every selected run, each in a process of its
// own, so that each is measured exactly as the driver measures it. (Run
// together in one process they are not: by the third workload the pods
// the earlier runs keep alive had tripled set-up time and cost a third of
// kv_bigval's throughput.) The flags other than the selection pass through.
func runAll(specs []wlSpec, traces []int, out string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return exitUsage
	}
	var pass []string
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "seed", "seconds", "quick":
			pass = append(pass, "-"+f.Name+"="+f.Value.String())
		}
	})
	fmt.Fprintln(os.Stderr, simNote)
	var rep report
	code := 0
	for _, spec := range specs {
		for _, tr := range traces {
			args := append([]string{"-as-child", "-workload", spec.Name, "-trace", fmt.Sprint(tr)}, pass...)
			cmd := exec.Command(exe, args...)
			var stdout bytes.Buffer
			cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
			err := cmd.Run()
			var child report
			if jerr := json.Unmarshal(stdout.Bytes(), &child); jerr != nil || len(child.Runs) != 1 {
				fmt.Fprintf(os.Stderr, "benchmark: %s trace %d gave no result: %v\n", spec.Name, tr, err)
				return exitUsage
			}
			if err != nil {
				code = exitFailed // the child's checks failed; its notes say why
			}
			if rep.Runs == nil {
				rep = child
			} else {
				rep.Runs = append(rep.Runs, child.Runs[0])
			}
		}
	}
	if err := writeReport(out, rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: writing report:", err)
		return exitUsage
	}
	if err := writeJSON(os.Stdout, rep, true); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return exitUsage
	}
	return code
}
