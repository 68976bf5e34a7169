package main

import (
	"fmt"
	"strconv"
	"strings"

	"cxlalloc/internal/bench"
	"cxlalloc/internal/server"
)

// rates is -slo-rates: offered-load multipliers of measured capacity.
type rates []float64

func (r rates) String() string {
	s := make([]string, len(r))
	for i, m := range r {
		s[i] = strconv.FormatFloat(m, 'g', -1, 64)
	}
	return strings.Join(s, ",")
}

func (r *rates) Set(s string) error {
	var out rates
	for _, f := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil || v <= 0 {
			return fmt.Errorf("bad entry %q (want positive load multipliers, e.g. 0.5,1,2,4)", f)
		}
		out = append(out, v)
	}
	*r = out
	return nil
}

func sloPointRow(rep *server.SLOReport, p *server.SLOPoint, workload string) bench.Row {
	s := p.Server
	return bench.Row{
		Experiment: "slo",
		Workload:   workload,
		Allocator:  "cxlalloc-mcas",
		Threads:    rep.Threads,
		Procs:      rep.Procs,
		Ops:        int(p.Offered),
		ElapsedSec: p.Elapsed.Seconds(),
		Throughput: p.Goodput,
		Extra: map[string]string{
			"seed":             fmt.Sprint(rep.Seed),
			"capacity":         fmt.Sprintf("%.0f", rep.Capacity),
			"tick_rate":        fmt.Sprintf("%.0f", rep.TickRate),
			"mult":             fmt.Sprintf("%g", p.Mult),
			"target_rate":      fmt.Sprintf("%.0f", p.TargetRate),
			"acked":            fmt.Sprint(p.Acked),
			"good":             fmt.Sprint(p.Good),
			"client_drops":     fmt.Sprint(p.ClientDrops),
			"latency_p50":      p.P50.String(),
			"latency_p99":      p.P99.String(),
			"latency_p999":     p.P999.String(),
			"shed_total":       fmt.Sprint(p.TotalShed),
			"shed_queue_full":  fmt.Sprint(s.ShedQueueFull),
			"shed_codel":       fmt.Sprint(s.ShedCoDel),
			"shed_deadline":    fmt.Sprint(s.ShedDeadline),
			"shed_write":       fmt.Sprint(s.ShedWrite),
			"shed_pod_full":    fmt.Sprint(s.ShedPodFull),
			"shed_breaker":     fmt.Sprint(s.ShedBreaker),
			"retries":          fmt.Sprint(p.Retries),
			"breaker_opens":    fmt.Sprint(s.BreakerOpens),
			"breaker_reroutes": fmt.Sprint(s.BreakerReroutes),
			"worker_crashes":   fmt.Sprint(s.WorkerCrashes),
			"crash_resolves":   fmt.Sprint(s.CrashResolves),
		},
	}
}

// sloExp is the service-level overload sweep: closed-loop capacity
// measurement, then open-loop points at the configured multiples. Any
// failed gate (lost ack, invariant violation, goodput collapse at 2x,
// unbounded p99, shedding never engaging) is a hard error.
func sloExp() *experiment {
	cfg := server.DefaultSLOConfig()
	fs := newFlags("slo")
	fs.DurationVar(&cfg.Window, "slo-window", cfg.Window, "measured window per rate point")
	fs.Var((*rates)(&cfg.Rates), "slo-rates", "offered-load multipliers of measured capacity")
	return &experiment{
		name:  "slo",
		desc:  "open-loop overload sweep through the KV service front end (goodput, p99, shed/retry gates)",
		flags: fs,
		run: func(sc bench.Scale) ([]bench.Row, error) {
			cfg.Seed = sc.Seed
			return runSLO(cfg)
		},
	}
}

func runSLO(cfg server.SLOConfig) ([]bench.Row, error) {
	rep, err := server.RunSLO(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Print(server.FormatSLOReport(rep, false))
	var rows []bench.Row
	for i := range rep.Points {
		p := &rep.Points[i]
		rows = append(rows, sloPointRow(rep, p, fmt.Sprintf("open-loop/%gx", p.Mult)))
	}
	if g := rep.Gates(false); !g.Ok() {
		return rows, fmt.Errorf("slo gate failed: violations=%d lostAcks=%d goodputOK=%v p99Bounded=%v shedEngaged=%v",
			len(rep.Violations), len(rep.LostAcks), g.GoodputOK, g.P99Bounded, g.ShedEngaged)
	}
	return rows, nil
}

// sloChaosExp is the fault-injected service gate: 2x load while whole
// process groups are killed, watchdog-only recovery. The breaker must
// open (requests re-route around dead processes), no acked write may be
// lost, and the heap must audit clean.
func sloChaosExp() *experiment {
	cfg := server.DefaultSLOConfig()
	fs := newFlags("slochaos")
	fs.DurationVar(&cfg.Window, "slo-window", cfg.Window, "capacity-phase window; the chaos phase runs twice as long")
	fs.DurationVar(&cfg.LeaseWall, "lease", cfg.LeaseWall, "target lease wall-clock expiry (raise on heavily shared machines to avoid benign claim storms)")
	return &experiment{
		name:  "slochaos",
		desc:  "service gate under process-group kills at 2x load (breaker + lost-ack gates)",
		flags: fs,
		run: func(sc bench.Scale) ([]bench.Row, error) {
			cfg.Seed = sc.Seed
			return runSLOChaos(cfg)
		},
	}
}

func runSLOChaos(cfg server.SLOConfig) ([]bench.Row, error) {
	rep, err := server.RunSLOChaos(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Print(server.FormatSLOReport(rep, true))
	var rows []bench.Row
	if rep.ChaosPoint != nil {
		rows = append(rows, sloChaosRow(rep))
	}
	if g := rep.Gates(true); !g.Ok() {
		return rows, fmt.Errorf("slochaos gate failed: violations=%d lostAcks=%d falseTakeovers=%d breakerEngaged=%v",
			len(rep.Violations), len(rep.LostAcks), rep.FalseTakeovers, g.BreakerEngaged)
	}
	return rows, nil
}

func sloChaosRow(rep *server.SLOReport) bench.Row {
	row := sloPointRow(rep, rep.ChaosPoint, "chaos/2x")
	row.Extra["thread_kills"] = fmt.Sprint(rep.Kills)
	row.Extra["proc_kills"] = fmt.Sprint(rep.ProcKills)
	row.Extra["false_takeovers"] = fmt.Sprint(rep.FalseTakeovers)
	return row
}
