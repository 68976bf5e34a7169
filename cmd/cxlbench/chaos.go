package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"time"

	"cxlalloc/internal/bench"
	"cxlalloc/internal/chaos"
	"cxlalloc/internal/server"
)

// runChaos runs the robustness gate: every crash point the workload
// discovers is swept under thread-crash and process-crash, plus a
// seeded NMP fault run that must complete through the sw_flush_cas
// fallback. The pod runs with AutoRecover: the harness makes no
// explicit recovery calls — the watchdog alone must converge every
// crash. A failed gate is a hard error (non-zero exit).
func runChaos(sc bench.Scale) ([]bench.Row, error) {
	cfg := chaos.DefaultConfig()
	cfg.Seed = sc.Seed
	cfg.Ops = min(max(sc.Ops/100, 300), 2000)
	cfg.AutoRecover = true
	rep, err := chaos.Sweep(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Print(chaos.FormatReport(rep))

	var rows []bench.Row
	for _, mode := range []chaos.Mode{chaos.ModeThreadCrash, chaos.ModeProcessCrash} {
		fired := 0
		total := 0
		for _, r := range rep.Runs {
			if r.Mode != mode {
				continue
			}
			total++
			if r.Fired {
				fired++
			}
		}
		rows = append(rows, bench.Row{
			Experiment: "chaos",
			Workload:   "sweep/" + string(mode),
			Allocator:  "cxlalloc",
			Threads:    cfg.Threads,
			Procs:      cfg.Procs,
			Ops:        total,
			Extra: map[string]string{
				"points": fmt.Sprint(len(rep.Points)),
				"fired":  fmt.Sprint(fired),
				"seed":   fmt.Sprint(cfg.Seed),
			},
		})
	}
	rows = append(rows, bench.Row{
		Experiment: "chaos",
		Workload:   "nmp-faults",
		Allocator:  "cxlalloc-mcas",
		Threads:    cfg.Threads,
		Procs:      cfg.Procs,
		Extra: map[string]string{
			"faults":    fmt.Sprint(rep.NMP.Faults),
			"retries":   fmt.Sprint(rep.NMP.Retries),
			"fallbacks": fmt.Sprint(rep.NMP.Fallbacks),
			"completed": fmt.Sprint(rep.NMP.Completed),
			"seed":      fmt.Sprint(cfg.Seed),
		},
	})
	if !rep.Ok() {
		return rows, fmt.Errorf("chaos gate failed: %s", rep.Summary())
	}
	return rows, nil
}

// scheduleFlags declares the record/replay pair of the online harnesses:
// -replay loads a recorded fault schedule into *replay, and the returned
// string is where the run's schedule is to be written ("" for nowhere).
func scheduleFlags(fs *flag.FlagSet, replay *[]chaos.FaultSpec) *string {
	fs.Func("replay", "replay this NDJSON fault schedule instead of recording one", func(path string) error {
		specs, err := chaos.LoadSchedule(path)
		if err == nil && len(specs) == 0 {
			err = fmt.Errorf("%s holds no fault specs", path)
		}
		*replay = specs
		return err
	})
	return fs.String("schedule-out", "", "write the run's fault schedule to this NDJSON file")
}

// saveSchedule writes a run's fault schedule to path, if one was asked for.
func saveSchedule(exp, path string, specs []chaos.FaultSpec) error {
	if path == "" {
		return nil
	}
	if err := chaos.SaveSchedule(path, specs); err != nil {
		return fmt.Errorf("%s: writing schedule: %v", exp, err)
	}
	fmt.Fprintf(os.Stderr, "wrote %d fault specs to %s\n", len(specs), path)
	return nil
}

// liveChaosExp is the online chaos gate: continuous traffic, a seeded
// concurrent fault injector, watchdog-only recovery, and the lost-ack
// oracle. Any gate failure (invariant/ledger violation, a lost acked
// write, a false takeover) is a hard error (non-zero exit).
func liveChaosExp() *experiment {
	cfg := server.DefaultLiveConfig()
	fs := newFlags("livechaos")
	fs.DurationVar(&cfg.Duration, "duration", cfg.Duration, "traffic window")
	fs.DurationVar(&cfg.LeaseWall, "lease", cfg.LeaseWall, "target lease wall-clock expiry (raise on heavily shared machines to avoid benign claim storms)")
	schedOut := scheduleFlags(fs, &cfg.Replay)
	return &experiment{
		name:  "livechaos",
		desc:  "online chaos gate: live traffic, fault injection, watchdog-only recovery, lost-ack oracle",
		flags: fs,
		run: func(sc bench.Scale) ([]bench.Row, error) {
			cfg.Seed = sc.Seed
			return runLiveChaos(cfg, *schedOut)
		},
	}
}

func runLiveChaos(cfg server.LiveConfig, schedOut string) ([]bench.Row, error) {
	rep, err := server.RunLive(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Print(server.FormatLiveReport(rep))
	if err := saveSchedule("livechaos", schedOut, rep.Schedule); err != nil {
		return nil, err
	}
	rows := []bench.Row{liveChaosRow(rep)}
	if !rep.Ok() {
		return rows, fmt.Errorf("livechaos gate failed: %d invariant violations, %d lost acks, %d false takeovers",
			len(rep.Violations), len(rep.LostAcks), rep.FalseTakeovers)
	}
	return rows, nil
}

func liveChaosRow(rep *server.LiveReport) bench.Row {
	return onlineRow("livechaos", rep.Threads, rep.Procs, &rep.Report, map[string]string{
		"crashes":         fmt.Sprint(rep.Crashes),
		"thread_kills":    fmt.Sprint(rep.ThreadKills),
		"proc_kills":      fmt.Sprint(rep.ProcKills),
		"nmp_bursts":      fmt.Sprint(rep.NMPBursts),
		"nmp_faults":      fmt.Sprint(rep.NMPFaults),
		"crash_discards":  fmt.Sprint(rep.CrashDiscards),
		"lines_dropped":   fmt.Sprint(rep.LinesDropped),
		"repairs":         fmt.Sprint(rep.Repairs),
		"mttr_p50":        rep.MTTRP50.Round(time.Millisecond).String(),
		"mttr_p99":        rep.MTTRP99.Round(time.Millisecond).String(),
		"mttr_max":        rep.MTTRMax.Round(time.Millisecond).String(),
		"availability":    fmt.Sprintf("%.4f", rep.Availability),
		"false_takeovers": fmt.Sprint(rep.FalseTakeovers),
	})
}

// onlineRow is the bench row of a fault-injected online run (livechaos,
// fabricchaos): the report core's columns and Extra keys, added to the
// harness's own in extra.
func onlineRow(exp string, threads, procs int, r *server.Report, extra map[string]string) bench.Row {
	extra["seed"] = fmt.Sprint(r.Seed)
	extra["latency_p50"] = r.LatencyP50.String()
	extra["latency_p99"] = r.LatencyP99.String()
	extra["acked"] = fmt.Sprint(r.Acked)
	extra["violations"] = fmt.Sprint(len(r.Violations))
	extra["lost_acks"] = fmt.Sprint(len(r.LostAcks))
	extra["replayed"] = fmt.Sprint(r.Replayed)
	extra["replay_ok"] = fmt.Sprint(r.ReplayOK)
	return bench.Row{
		Experiment: exp,
		Workload:   "online",
		Allocator:  "cxlalloc-mcas",
		Threads:    threads,
		Procs:      procs,
		Ops:        int(r.Ops),
		ElapsedSec: r.Elapsed.Seconds(),
		Throughput: r.Throughput,
		Extra:      extra,
	}
}

// persistExp is the adversarial persistence gate: the crash-point ×
// persist-subset sweep under the SWcc crash-eviction model. With
// -persist-point and -persist-mask it instead replays exactly one
// cell — the form every violation's repro line takes — and fails with
// a non-zero exit if that cell still violates an invariant. A failed
// sweep is a hard error unless a -persist-mutate flag is set, in which
// case the sweep runs against that mutant and must fail (and the failure
// must minimize to a deterministic counterexample).
//
// Deliberately NOT scaled by -scale/-ops: a violation's repro line
// records only seed+point+mask, so the workload behind a cell must be a
// pure function of the seed. Sweep cost is tuned with -persist-cap and
// -persist-samples instead.
func persistExp() *experiment {
	cfg := chaos.DefaultPersistConfig()
	var mask *uint64
	fs := newFlags("persist")
	fs.Func("persist-point", "restrict the sweep to one crash point (required for -persist-mask)", func(s string) error {
		cfg.Points = []string{s}
		return nil
	})
	fs.Func("persist-mask", "replay a single cell with this hex persist mask (e.g. 0x7ff) instead of sweeping", func(s string) error {
		m, err := strconv.ParseUint(s, 0, 64)
		if err != nil {
			return errors.New("want hex like 0x7ff")
		}
		mask = &m
		return nil
	})
	fs.IntVar(&cfg.SubsetCap, "persist-cap", cfg.SubsetCap, "exhaustive subset enumeration cap (windows wider than this are sampled)")
	fs.IntVar(&cfg.Samples, "persist-samples", cfg.Samples, "sampled cells per capped window")
	fs.BoolVar(&cfg.SkipOplogFlush, "persist-mutate", cfg.SkipOplogFlush, "run against the SkipOplogFlush mutant (sweep must fail; meta-test)")
	fs.BoolVar(&cfg.SkipCommitFence, "persist-mutate-fence", cfg.SkipCommitFence, "run against the SkipCommitFence mutant — magazine pop without its commit fence (sweep must fail; meta-test)")
	return &experiment{
		name:  "persist",
		desc:  "adversarial persistence gate (crash point x persist subset)",
		inAll: true,
		flags: fs,
		check: func() error {
			if cfg.SkipOplogFlush && cfg.SkipCommitFence {
				return errors.New("-persist-mutate and -persist-mutate-fence are separate meta-tests; run one at a time")
			}
			if mask != nil && cfg.Points == nil {
				return errors.New("-persist-mask requires -persist-point (a repro line names both)")
			}
			return nil
		},
		run: func(sc bench.Scale) ([]bench.Row, error) {
			cfg.Seed = sc.Seed
			if mask != nil {
				return replayPersistCell(cfg, *mask)
			}
			return runPersist(cfg)
		},
	}
}

func mutated(cfg chaos.PersistConfig) bool { return cfg.SkipOplogFlush || cfg.SkipCommitFence }

func replayPersistCell(cfg chaos.PersistConfig, mask uint64) ([]bench.Row, error) {
	point := cfg.Points[0]
	win, err := chaos.ReplayPersistCell(cfg, point, mask)
	if err != nil {
		return nil, fmt.Errorf("persist cell %s mask=%#x (window %d lines): %v", point, mask, win, err)
	}
	fmt.Printf("persist cell ok: point=%s mask=%#x window=%d lines seed=%d mutate=%v\n",
		point, mask, win, cfg.Seed, mutated(cfg))
	return []bench.Row{{
		Experiment: "persist",
		Workload:   "replay/" + point,
		Allocator:  "cxlalloc",
		Threads:    cfg.Threads,
		Procs:      cfg.Procs,
		Extra: map[string]string{
			"mask":   fmt.Sprintf("%#x", mask),
			"window": fmt.Sprint(win),
			"seed":   fmt.Sprint(cfg.Seed),
			"mutate": fmt.Sprint(mutated(cfg)),
		},
	}}, nil
}

func runPersist(cfg chaos.PersistConfig) ([]bench.Row, error) {
	rep, err := chaos.PersistSweep(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Print(chaos.FormatPersistReport(rep))
	rows := []bench.Row{{
		Experiment: "persist",
		Workload:   "sweep",
		Allocator:  "cxlalloc",
		Threads:    cfg.Threads,
		Procs:      cfg.Procs,
		Ops:        cfg.Ops,
		Extra: map[string]string{
			"points":     fmt.Sprint(len(rep.Points)),
			"cells":      fmt.Sprint(rep.CellsRun),
			"dropped":    fmt.Sprint(rep.LinesDropped),
			"capped":     fmt.Sprint(rep.Capped),
			"violations": fmt.Sprint(len(rep.Violations)),
			"seed":       fmt.Sprint(cfg.Seed),
			"mutate":     fmt.Sprint(mutated(cfg)),
		},
	}}
	if mutated(cfg) {
		// Mutation meta-test: the broken allocator MUST be caught,
		// and the catch must carry a minimized, replayable repro.
		if len(rep.Violations) == 0 {
			which := "SkipOplogFlush"
			if cfg.SkipCommitFence {
				which = "SkipCommitFence"
			}
			return rows, fmt.Errorf("persist mutation gate failed: %s sweep found no violation", which)
		}
		v := rep.Violations[0]
		if len(v.MinDrop) == 0 || v.Repro == "" {
			return rows, fmt.Errorf("persist mutation gate failed: violation not minimized (%+v)", v)
		}
		fmt.Printf("mutation caught: %s\n", v.Repro)
		return rows, nil
	}
	if !rep.Ok() {
		return rows, fmt.Errorf("persist gate failed: %s", rep.Summary())
	}
	return rows, nil
}
