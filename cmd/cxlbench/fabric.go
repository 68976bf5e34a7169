package main

import (
	"fmt"
	"time"

	"cxlalloc/internal/bench"
	"cxlalloc/internal/fabric"
)

// fabricChaosExp is the multi-pod fabric gate: live traffic through the
// shard router while the injector kills whole pods, fences pods off, and
// crashes migrators mid-handoff; the fabric monitor is the only recovery
// path. Gates: zero lost acked writes (fabric-wide oracle), zero
// invariant violations per surviving pod, zero false shard takeovers,
// bounded failover MTTR, and — in record mode — fault coverage (at least
// one full pod kill and one interrupted migration). Any gate failure is a
// hard error (non-zero exit).
func fabricChaosExp() *experiment {
	cfg := fabric.DefaultChaosConfig()
	fs := newFlags("fabricchaos")
	fs.DurationVar(&cfg.Duration, "duration", cfg.Duration, "traffic window")
	fs.DurationVar(&cfg.DarkGrace, "fabric-grace", cfg.DarkGrace, "pod dark-detection grace (raise on heavily shared machines to avoid benign false takeovers)")
	schedOut := scheduleFlags(fs, &cfg.Replay)
	return &experiment{
		name:  "fabricchaos",
		desc:  "multi-pod fabric gate: pod kills, fences, interrupted migrations under live traffic (failover + lost-ack + replay gates)",
		flags: fs,
		run: func(sc bench.Scale) ([]bench.Row, error) {
			cfg.Seed = sc.Seed
			return runFabricChaos(cfg, *schedOut)
		},
	}
}

func runFabricChaos(cfg fabric.ChaosConfig, schedOut string) ([]bench.Row, error) {
	rep, err := fabric.RunChaos(cfg)
	if err != nil {
		return nil, err
	}
	fmt.Print(fabric.FormatChaosReport(rep))
	if err := saveSchedule("fabricchaos", schedOut, rep.Schedule); err != nil {
		return nil, err
	}
	rows := []bench.Row{fabricChaosRow(rep)}
	if !rep.Ok() {
		return rows, fmt.Errorf("fabricchaos gate failed: %d violations, %d lost acks, %d false shard takeovers, MTTR max %v (bound %v)",
			len(rep.Violations), len(rep.LostAcks), rep.Fabric.FalseShardTakeovers, rep.MTTRMax, rep.MTTRBound)
	}
	if !rep.Replayed && (rep.PodKills < 1 || rep.MigInterrupts < 1) {
		return rows, fmt.Errorf("fabricchaos coverage gate failed: %d pod kills, %d mig interrupts (need >= 1 of each; lengthen -duration)",
			rep.PodKills, rep.MigInterrupts)
	}
	return rows, nil
}

func fabricChaosRow(rep *fabric.ChaosReport) bench.Row {
	s := rep.Fabric
	return onlineRow("fabricchaos", rep.Threads, rep.Procs, &rep.Report, map[string]string{
		"pods":                  fmt.Sprint(rep.Pods),
		"shards":                fmt.Sprint(rep.Shards),
		"retries":               fmt.Sprint(rep.Retries),
		"pod_kills":             fmt.Sprint(rep.PodKills),
		"pod_fences":            fmt.Sprint(rep.PodFences),
		"mig_interrupts":        fmt.Sprint(rep.MigInterrupts),
		"failovers":             fmt.Sprint(s.Failovers),
		"mig_flips":             fmt.Sprint(s.MigFlips),
		"mig_retakes":           fmt.Sprint(s.MigRetakes),
		"router_rejects":        fmt.Sprint(s.RouterRejects),
		"mttr_p50":              rep.MTTRP50.Round(time.Millisecond).String(),
		"mttr_max":              rep.MTTRMax.Round(time.Millisecond).String(),
		"false_shard_takeovers": fmt.Sprint(s.FalseShardTakeovers),
		"false_takeovers":       fmt.Sprint(rep.ThreadFalseTakeovers),
	})
}
