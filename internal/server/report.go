package server

// The end of an online run and what it reports. livechaos and
// fabricchaos close their traffic window with EndWindow and report
// through one Report core; slo and slochaos share its Verdict. A harness
// adds only its own fields, lines and gates.

import (
	"fmt"
	"strings"
	"time"

	"cxlalloc/internal/chaos"
)

// EndWindow ends an online run's traffic window once its injector has
// stopped issuing, in the one order that cannot hang: converge on the
// harness's complaints plus any lane still awaiting a response, stop the
// target, and only then collect the lanes' tally. A lane can wait on a
// response nothing but stop answers (a crashed write on a slot no
// watchdog repairs); collecting first would block on it forever, where
// converging first turns it into a named violation after wait.
func EndWindow(g *chaos.Gates, wait time.Duration, lanes <-chan *Tally, stop func(), pending func() []string) *Tally {
	g.Converge(wait, func() []string {
		out := pending()
		if len(lanes) == 0 {
			out = append(out, "lanes still awaiting responses")
		}
		return out
	})
	stop()
	return <-lanes
}

// Verdict is what an online run's end-of-run audit found: the seed that
// reproduces the run, the adopted pending allocations the teardown
// freed, what the oracle did with the acknowledged reads, and the two
// gates every harness shares.
type Verdict struct {
	Seed                       uint64
	PendingAllocs              int
	ReadsChecked, ReadsSkipped uint64
	Violations                 []string
	LostAcks                   []string
}

// Ok reports whether the common gates passed: no violation, no lost ack.
func (v *Verdict) Ok() bool { return len(v.Violations) == 0 && len(v.LostAcks) == 0 }

// verdict reads a run's verdict once its audit and gates have recorded
// everything they found.
func verdict(seed uint64, pendingAllocs int, issuers []*Issuer, g *chaos.Gates) Verdict {
	v := Verdict{Seed: seed, PendingAllocs: pendingAllocs, Violations: g.Violations(), LostAcks: g.LostAcks()}
	v.ReadsChecked, v.ReadsSkipped = Reads(issuers)
	return v
}

// Report is the core of a fault-injected online run's report
// (livechaos, fabricchaos): the verdict, the traffic, and the fault
// schedule.
type Report struct {
	Verdict
	Duration time.Duration // configured traffic window
	Elapsed  time.Duration // measured traffic wall time
	Replayed bool

	// Traffic, from the lanes' Tally.
	Ops, Acked, Failed, Crashed uint64
	Puts, Gets, Deletes         uint64
	Throughput                  float64 // completed ops per second of traffic
	LatencyP50, LatencyP99      time.Duration

	// Schedule (record or replayed) and per-spec outcomes.
	Schedule []chaos.FaultSpec
	Outcomes []chaos.FaultOutcome
	ReplayOK bool // replay mode: emitted schedule == loaded schedule
}

// NewReport fills the report core of a run whose audit and own gates
// have recorded everything they found: t is what its lanes did over
// elapsed, faults its injector (whose Gates are the run's).
func NewReport(seed uint64, elapsed time.Duration, t *Tally, issuers []*Issuer, faults *chaos.Injector, pendingAllocs int) Report {
	r := Report{
		Duration: faults.Duration, Elapsed: elapsed, Replayed: faults.Replay != nil,
		Ops: t.Ops, Acked: t.Acked, Failed: t.Failed, Crashed: t.Crashed,
		Puts: t.Puts, Gets: t.Gets, Deletes: t.Deletes,
		LatencyP50: time.Duration(t.Latency.Quantile(0.50)),
		LatencyP99: time.Duration(t.Latency.Quantile(0.99)),
		Schedule:   faults.Schedule, Outcomes: faults.Outcomes,
		// A mismatch is recorded as a violation, so this comes before the verdict.
		ReplayOK: faults.ReplayOK(),
	}
	if elapsed > 0 {
		r.Throughput = float64(r.Ops) / elapsed.Seconds()
	}
	r.Verdict = verdict(seed, pendingAllocs, issuers, faults.Gates)
	return r
}

// Lines is what a harness adds to its report's shared lines.
type Lines struct {
	Head    string // the run and its shape: "livechaos: 4 threads / 2 procs / 384 keys"
	Traffic string // the traffic line after the op count and rate
	Body    string // the harness's own lines, between the oracle and replay lines
	Gates   string // the gate counts the verdict follows
	Ok      bool   // the verdict
}

// Format renders the report: the head, traffic, latency and oracle
// lines, the harness's own, the replay line of a replayed run, the gates
// line, and every violation and lost ack.
func (r *Report) Format(l Lines) string {
	var b strings.Builder
	mode := "record"
	if r.Replayed {
		mode = "replay"
	}
	fmt.Fprintf(&b, "%s, seed %d, %v traffic (%s mode)\n", l.Head, r.Seed, r.Elapsed.Round(time.Millisecond), mode)
	fmt.Fprintf(&b, "  traffic:   %d ops (%.0f ops/s), %s\n", r.Ops, r.Throughput, l.Traffic)
	fmt.Fprintf(&b, "  latency:   p50 %v  p99 %v\n", r.LatencyP50, r.LatencyP99)
	fmt.Fprintf(&b, "  oracle:    %d reads checked, %d skipped (raced >1 transition)\n", r.ReadsChecked, r.ReadsSkipped)
	b.WriteString(l.Body)
	if r.Replayed {
		fmt.Fprintf(&b, "  replay:    schedule match = %v (%d faults)\n", r.ReplayOK, len(r.Schedule))
	}
	fmt.Fprintf(&b, "  gates:     %s -> %s\n", l.Gates, map[bool]string{true: "PASS", false: "FAIL"}[l.Ok])
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "    violation: %s\n", v)
	}
	for _, v := range r.LostAcks {
		fmt.Fprintf(&b, "    lost-ack:  %s\n", v)
	}
	return b.String()
}
