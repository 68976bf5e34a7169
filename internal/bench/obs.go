package bench

// The obs experiment measures the telemetry plane's own cost: the fig9
// small microbenchmarks, cxlalloc only, under every hotpath coherence
// model — each cell run once with tracing disabled (the production
// default: one atomic load + branch per instrumented site) and once with
// a live tracer installed. The disabled-mode throughput is the row's
// headline number, recorded per PR in BENCH_obs.json; the enabled-mode
// throughput, the derived overhead percentage, and the tracer's
// event/drop counts ride along in Extra.

import (
	"fmt"

	"cxlalloc/internal/telemetry"
)

// MetricsSink, when non-nil, receives the unified telemetry snapshot of
// every cxlalloc instance a microbenchmark cell measures, after the
// workload joined and the published mirrors were force-refreshed (so the
// snapshot is exact, not cadence-lagged). cmd/cxlbench installs it for
// -metrics; dims carry experiment/workload/allocator/threads/trial.
var MetricsSink func(dims map[string]string, s telemetry.Snapshot)

// obsRing is the per-thread ring capacity for enabled-mode obs runs.
// Sized so the drop gate is meaningful: with hot-event sampling at the
// default period a 600k-op trial records ~36k events (the tracer is
// reinstalled per enabled trial), and the ring must hold the trial
// (drop_pct < 1%) for "the recorder keeps up" to be a claim about the
// tracer rather than about the ring size.
const obsRing = 1 << 16

// RunObs runs the tracing-overhead experiment. It owns the global tracer
// for the duration: any tracer installed by -trace keeps its recorded
// events, but records nothing while obs cells run.
func RunObs(sc Scale) ([]Row, error) {
	prev := telemetry.Stop()
	defer func() {
		if prev != nil {
			telemetry.Resume(prev)
		}
	}()
	var rows []Row
	for _, shape := range []string{"threadtest-small", "xmalloc-small"} {
		for _, m := range HotpathModes {
			fac := NewCXLFactory(CXLVariant{Name: m.Name, Mode: m.Mode, Procs: sc.Procs}, sc.ArenaBytes)
			for _, threads := range sc.Threads {
				// Trials are paired — each disabled trial is immediately
				// followed by an enabled one — so slow drift in the host's
				// available cycles (the dominant noise source on shared
				// machines) hits both sides of the overhead ratio alike
				// instead of masquerading as tracer cost of either sign.
				scOne := sc
				scOne.Trials = 1
				var offT, onT []float64
				var events, dropped uint64
				var row Row
				failed := false
				for trial := 0; trial < sc.Trials && !failed; trial++ {
					off, err := runMicro("obs", fac, shape, scOne, threads, 64)
					if err != nil {
						return nil, err
					}
					if off.Failed != "" {
						rows = append(rows, off)
						failed = true
						break
					}
					telemetry.Start(threads, obsRing)
					on, err := runMicro("obs", fac, shape, scOne, threads, 64)
					tr := telemetry.Stop()
					if err != nil {
						return nil, err
					}
					row = off
					offT = append(offT, off.Throughput)
					onT = append(onT, on.Throughput)
					events += tr.Recorded()
					dropped += tr.Dropped()
				}
				if failed {
					continue
				}
				row = summarizeTrials(row, offT)
				on := summarizeTrials(Row{}, onT)
				if row.Extra == nil {
					row.Extra = map[string]string{}
				}
				row.Extra["tput_enabled"] = fmt.Sprintf("%.0f", on.Throughput)
				if on.Throughput > 0 {
					row.Extra["overhead_pct"] = fmt.Sprintf("%.2f", (row.Throughput/on.Throughput-1)*100)
				}
				row.Extra["events"] = fmt.Sprint(events)
				row.Extra["dropped"] = fmt.Sprint(dropped)
				row.Extra["sample_period"] = fmt.Sprint(telemetry.HotSamplePeriod())
				if total := events + dropped; total > 0 {
					row.Extra["drop_pct"] = fmt.Sprintf("%.2f", float64(dropped)/float64(total)*100)
				} else {
					row.Extra["drop_pct"] = "0.00"
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}
