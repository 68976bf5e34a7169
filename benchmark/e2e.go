package main

import (
	"fmt"
	"math"
	"time"
)

// End-to-end metrics: the same seven names on every workload, measured
// with tracing off. The entry point is fabric.Submit for kv_* and
// Thread.Alloc/Free for alloc_mix.
const (
	mSatOps   = "sat_ops_per_s"
	mLatP50   = "lat_p50_us"
	mLatP99   = "lat_p99_us"
	mOKShare  = "ok_share"
	mSimNs    = "sim_ns_per_op"
	mSpaceAmp = "space_amp"
	mSetup    = "setup_s"
)

// Shares of a run's --seconds: an untraced kv_* repeat splits its slice
// between the light and the sat phase.
const (
	e2eRepeats = 6
	lightShare = 0.4
)

// e2eSample is one repeat's end-to-end values.
type e2eSample struct {
	vals    map[string]float64
	latN    int
	tailPct float64
}

// runE2E is the untraced run: e2eRepeats fresh repeats (one when quick)
// sharing the measuring time, each metric reported as their median.
func runE2E(spec wlSpec, seed uint64, seconds float64, quick bool) *runResult {
	res := newResult(spec, 0, seed, seconds)
	repeats := e2eRepeats
	if quick {
		repeats = 1
	}
	slice := time.Duration(seconds / float64(repeats) * float64(time.Second))
	series := map[string][]float64{}
	var last e2eSample
	for i := 0; i < repeats; i++ {
		var s e2eSample
		var err error
		if spec.KV.Keyspace != 0 {
			s, err = kvRepeat(spec, seed, slice, res)
		} else {
			s, err = allocRepeat(spec, seed, slice, res)
		}
		if err != nil {
			res.fail("repeat %d: %v", i, err)
			break
		}
		for name, v := range s.vals {
			series[name] = append(series[name], v)
		}
		last = s
	}
	for _, m := range endToEndMetrics {
		n := 0
		if m.Name == mLatP50 || m.Name == mLatP99 {
			n = last.latN
		}
		res.setRepeats(m.Name, m.Unit, series[m.Name], n)
	}
	if m := res.Metrics[mLatP99]; last.tailPct != 0.99 {
		m.Note = fmt.Sprintf("p%g: too few samples for p99", 100*last.tailPct)
		res.Metrics[mLatP99] = m
	}
	res.Attempted, res.Failed = res.Checks.Attempted, res.Checks.failed()
	res.set(mOKShare, "ratio", res.Checks.okShare())
	if res.Failed != 0 {
		res.failedOps()
	}
	return res
}

// kvRepeat is one fresh kv_* repeat: set-up, light phase, sat phase,
// audit, stop, then the counts and the footprint.
//
// The light phase runs first so that the servers can be stopped right
// after the sat phase: only then may the threads' private counters be
// published, which makes the closing snapshot exact.
func kvRepeat(spec wlSpec, seed uint64, slice time.Duration, res *runResult) (e2eSample, error) {
	t0 := time.Now()
	e, err := newFabricEnv(spec, seed)
	if err != nil {
		return e2eSample{}, err
	}
	defer e.stop()
	res.keep = append(res.keep, e)
	vals := map[string]float64{mSetup: time.Since(t0).Seconds()}

	lightDur := time.Duration(lightShare * float64(slice))
	for _, c := range e.conns {
		c.lat = make([]int64, 0, 1<<16)
	}
	e.drive(lightWindow, lightDur, math.MaxUint64, "", nil)
	var lat []int64
	for _, c := range e.conns {
		lat = append(lat, c.lat...)
		c.lat = nil
	}
	p50, p99, used := tailOf(lat, 0.99)
	vals[mLatP50], vals[mLatP99] = float64(p50)/1e3, float64(p99)/1e3

	before := e.counts(false)
	sat := e.drive(satWindow, slice-lightDur, spec.SatCap, "", nil)
	mismatch, live := e.audit()
	e.stop()
	after := e.counts(true)
	vals[mSatOps] = sat.Rate
	vals[mSimNs] = simNanos(after.snap.Delta(before.snap)) / float64(sat.Ops)
	total, _ := e.footprint()
	vals[mSpaceAmp] = float64(total) / float64(live)

	t := e.tallies()
	t.AuditMismatch += mismatch
	res.Checks.add(t)
	e.checkFabric(res, after)
	return e2eSample{vals: vals, latN: len(lat), tailPct: used}, nil
}

// checkFabric fails the run on a fabric-level invariant failure or a pod
// declared dark.
func (e *kvEnv) checkFabric(res *runResult, c counters) {
	if e.fab == nil {
		return
	}
	for _, v := range e.fab.Violations() {
		res.fail("fabric violation: %s", v)
	}
	if c.fab.PodDarks != 0 {
		res.fail("%d pods went dark", c.fab.PodDarks)
	}
}
