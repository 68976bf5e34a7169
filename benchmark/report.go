package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// metric is one reported number: the median of the run's repeats, with
// the repeats themselves and the sample count behind each one's value.
type metric struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	Repeats []float64 `json:"repeats"`
	Samples int       `json:"samples,omitempty"` // per repeat, where the value is a percentile
	Note    string    `json:"note,omitempty"`
}

// runResult is one run: one workload, one seed, traced or not.
type runResult struct {
	Workload  string             `json:"workload"`
	Trace     int                `json:"trace"`
	Seed      uint64             `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Correct   bool               `json:"correct"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Checks    tally              `json:"checks"`
	Metrics   map[string]metric  `json:"metrics"`
	Shares    map[string]float64 `json:"ladder_share_of_fabric_ns_per_op,omitempty"`
	Notes     []string           `json:"notes,omitempty"`

	// keep holds every repeat's pods until the run ends. A pod's device is
	// hundreds of MiB of Go heap, nearly all of it never touched. Memory
	// fresh from the OS needs no zeroing, but once the collector has freed
	// one device the next is carved out of its span and zeroed page by page
	// — seconds of page faults that no single set-up of the system pays.
	keep []any
}

func newResult(spec wlSpec, trace int, seed uint64, seconds float64) *runResult {
	return &runResult{
		Workload: spec.Name, Trace: trace, Seed: seed, Seconds: seconds,
		Correct: true, Metrics: map[string]metric{},
	}
}

// fail records a failed check; the run is then not correct.
func (r *runResult) fail(format string, args ...any) {
	r.Correct = false
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// failedOps fails the run for the operations its checks counted as failed.
func (r *runResult) failedOps() {
	c := r.Checks
	r.fail("%d of %d operations failed: %d errors (first: %q), %d corrupt values, %d audit mismatches",
		r.Failed, r.Attempted, c.Errors, c.FirstError, c.Corrupt, c.AuditMismatch)
}

// set records a metric measured once in the run.
func (r *runResult) set(name, unit string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: unit, Min: v, Max: v, Repeats: []float64{v}}
}

// setQuantile records a percentile read off n samples. used is the
// percentile actually read: below 0.99 when n supports no p99.
func (r *runResult) setQuantile(name, unit string, v float64, n int, used float64) {
	r.set(name, unit, v)
	m := r.Metrics[name]
	m.Samples = n
	if used != 0.50 && used != 0.99 {
		m.Note = fmt.Sprintf("p%g: too few samples for p99", 100*used)
	}
	r.Metrics[name] = m
}

// setRepeats records a metric as the median of its repeats.
func (r *runResult) setRepeats(name, unit string, vs []float64, samples int) {
	s := spreadOf(vs)
	r.Metrics[name] = metric{Value: s.Med, Unit: unit, Min: s.Min, Max: s.Max, Repeats: vs, Samples: samples}
}

// contractLine is the driver's result line: exactly these keys, and per
// metric exactly value and unit.
type contractLine struct {
	Correct   bool                      `json:"correct"`
	Attempted uint64                    `json:"attempted"`
	Failed    uint64                    `json:"failed"`
	Metrics   map[string]contractMetric `json:"metrics"`
}

type contractMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *runResult) contract() contractLine {
	l := contractLine{Correct: r.Correct, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]contractMetric{}}
	for name, m := range r.Metrics {
		l.Metrics[name] = contractMetric{Value: m.Value, Unit: m.Unit}
	}
	return l
}

// report is the full output of one invocation.
type report struct {
	Benchmark string      `json:"benchmark"`
	Claim     *string     `json:"claim"` // always null: the benchmark claims no gain
	Quick     bool        `json:"quick"`
	Env       envBlock    `json:"env"`
	LoadShape string      `json:"load_shape"`
	Model     string      `json:"model"`
	Runs      []runResult `json:"runs"`
}

const loadShape = "closed loop, 2 driver goroutines (connections) and no others; kv_*: fabric of 3 pods x 2 workers, " +
	"16 shards, 1024 buckets, queue cap 1024, ModeMCAS, AutoRecover; each connection pipelines a ring of pre-allocated " +
	"requests: sat = 256 in flight for a fixed time (op-capped), light = 1 in flight for a fixed time; " +
	"alloc_mix: 2 threads in 2 processes on a DefaultConfig ModeMCAS pod; a run's time is shared by 6 repeats, each from a fresh set-up"

// table prints the run for people.
func (r *runResult) table(w io.Writer) {
	fmt.Fprintf(w, "\n%s  trace=%d seed=%d seconds=%g  correct=%v attempted=%d failed=%d false_miss=%d\n",
		r.Workload, r.Trace, r.Seed, r.Seconds, r.Correct, r.Attempted, r.Failed, r.Checks.FalseMiss)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "  %-28s %14.6g %-7s", n, m.Value, m.Unit)
		if len(m.Repeats) > 1 {
			fmt.Fprintf(w, " [%.6g .. %.6g] x%d", m.Min, m.Max, len(m.Repeats))
		}
		if m.Samples > 0 {
			fmt.Fprintf(w, " n=%d", m.Samples)
		}
		if m.Note != "" {
			fmt.Fprintf(w, " (%s)", m.Note)
		}
		fmt.Fprintln(w)
	}
	if len(r.Shares) > 0 {
		fmt.Fprintf(w, "  share of fabric.ns_per_op:")
		for _, l := range ladderLayers {
			fmt.Fprintf(w, " %s %.1f%%", l, 100*r.Shares[l])
		}
		fmt.Fprintln(w)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  ! %s\n", n)
	}
}

func writeJSON(w io.Writer, v any, indent bool) error {
	enc := json.NewEncoder(w)
	if indent {
		enc.SetIndent("", "  ")
	}
	return enc.Encode(v)
}
