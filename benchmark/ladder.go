package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cxlalloc"
	"cxlalloc/internal/alloc"
	"cxlalloc/internal/kvstore"
	"cxlalloc/internal/workload"
)

// The traced run replays the same seeded stream at every rung of a ladder,
// each rung one layer taller than the one below, with the same two driver
// goroutines:
//
//	gen      draw an op and materialise it; no call
//	core     Put = Alloc + copy + swap into a per-key pointer table + Free of
//	         the displaced block; Delete = swap 0 + Free; Get = nothing
//	kvstore  bare Store calls
//	server   one pod, 3 groups x 2 workers, Submit/Wait, 256 in flight
//	fabric   the end-to-end path
//
// A rung's ns_per_op is 2e9 ÷ its ops/s: core-nanoseconds, both cores
// being busy at every rung. A layer's self time is its rung minus the rung
// below, so the self times telescope to fabric.ns_per_op exactly.
var ladderLayers = []string{"workload", "core", "kvstore", "server", "fabric"}

// Shares of a traced run's --seconds: a kv_* workload's rungs, and
// alloc_mix's three phases.
var (
	tracedShare = struct{ gen, core, kvstore, server, fabric, fabricTraced, light, recover float64 }{
		0.04, 0.14, 0.14, 0.17, 0.20, 0.17, 0.12, 0.02,
	}
	allocTracedShare = struct{ untraced, traced, gen, recover float64 }{0.44, 0.44, 0.10, 0.02}
)

// shareOf is share f of a run's seconds.
func shareOf(seconds, f float64) time.Duration {
	return time.Duration(f * seconds * float64(time.Second))
}

// ladder holds each rung's ops/s, bottom first.
type ladder struct {
	rate [5]float64 // gen, core, kvstore, server, fabric
}

// nsPerOp is rung i's cost of one op in core-nanoseconds.
func (l ladder) nsPerOp(i int) float64 { return 2e9 / l.rate[i] }

// self is layer i's own share of that cost.
func (l ladder) self(i int) float64 {
	if i == 0 {
		return l.nsPerOp(0)
	}
	return l.nsPerOp(i) - l.nsPerOp(i-1)
}

// report writes the ladder's metrics and each layer's share of the top.
func (l ladder) report(res *runResult) {
	res.set("workload.gen_ns_per_op", "ns/op", l.nsPerOp(0))
	res.Shares = map[string]float64{"workload": l.self(0) / l.nsPerOp(4)}
	for i := 1; i < len(ladderLayers); i++ {
		name := ladderLayers[i]
		res.set(name+".ns_per_op", "ns/op", l.nsPerOp(i))
		res.set(name+".self_ns_per_op", "ns/op", l.self(i))
		res.Shares[name] = l.self(i) / l.nsPerOp(4)
	}
}

// span runs f; when sampled, it is recorded as a span of the request.
func (c *conn) span(kind spanKind, sampled bool, f func()) {
	if !sampled {
		f()
		return
	}
	t0 := c.spans.now()
	f()
	c.spans.add(kind, -1, uint64(c.id)<<56|c.issued, t0, c.spans.now())
}

// syncRung drives the rungs without a queue: each connection draws its op
// and applies it with a direct call (nil apply: the gen rung, which only
// draws). Every sampleEvery-th op is traced.
func syncRung(spec wlSpec, seed uint64, dur time.Duration, rung string,
	apply func(c *conn, s *slot, sampled bool)) (phase, []*spanBuf, tally) {
	epoch := time.Now()
	var wg sync.WaitGroup
	conns := make([]*conn, nConns)
	bufs := make([]*spanBuf, nConns)
	for i := range conns {
		conns[i] = newConn(i, spec, seed, epoch, 1)
		bufs[i] = newSpanBuf(rung, i, epoch)
		conns[i].spans = bufs[i]
	}
	start := time.Now()
	for _, c := range conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			c.pace = pace{start: start, dur: dur}
			s := &c.ring[0]
			for ; ; c.issued++ {
				if c.issued%64 == 0 && c.pace.tick(c.issued) {
					return
				}
				sampled := c.issued%sampleEvery == 0
				c.span(spGen, sampled, func() { c.draw(s) })
				if apply != nil {
					apply(c, s, sampled)
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var t tally
	for _, c := range conns {
		c.tally.Attempted = c.issued
		t.add(c.tally)
	}
	return newPhase(t.Attempted, elapsed, conns[0].pace.marks, conns[1].pace.marks), bufs, t
}

// rungPod is the one pod the core and kvstore rungs run on: the two
// driver goroutines are its two threads, in one process as in a fabric
// pod, plus the idle control slot.
func rungPod() (*cxlalloc.Pod, [nConns]*cxlalloc.Thread, error) {
	var ths [nConns]*cxlalloc.Thread
	pod, err := cxlalloc.NewPodWith(rungPodConfig(nConns + 1))
	if err != nil {
		return nil, ths, err
	}
	proc := pod.NewProcess()
	for i := range ths {
		if ths[i], err = proc.AttachThreadID(i); err != nil {
			return nil, ths, err
		}
	}
	_, err = pod.NewProcess().AttachThreadID(nConns)
	return pod, ths, err
}

// ownerBit tags a pointer-table entry with the connection that allocated
// the block, so a free can be timed as local or remote.
const ownerBit = 1 << 63

// coreRung applies the stream straight to the allocator.
func coreRung(spec wlSpec, seed uint64, dur time.Duration, res *runResult) (phase, []*spanBuf, error) {
	pod, ths, err := rungPod()
	if err != nil {
		return phase{}, nil, err
	}
	res.keep = append(res.keep, pod)
	table := make([]atomic.Uint64, spec.KV.Keyspace)
	keys := keyBytes(spec.KV)
	for id, n := range preloadSizes(spec.KV, seed) {
		p, err := ths[0].Alloc(len(keys[id]) + n)
		if err != nil {
			return phase{}, nil, fmt.Errorf("core rung preload: %w", err)
		}
		table[id].Store(p)
	}
	free := func(c *conn, old uint64, sampled bool) {
		if old == 0 {
			return
		}
		kind := spCoreFreeLocal
		if int(old>>63) != c.id {
			kind = spCoreFreeRemote
		}
		c.span(kind, sampled, func() { ths[c.id].Free(old &^ ownerBit) })
	}
	ph, bufs, t := syncRung(spec, seed, dur, "core", func(c *conn, s *slot, sampled bool) {
		switch s.kind {
		case workload.OpInsert:
			th := ths[c.id]
			n := len(s.key) + len(s.val)
			var p cxlalloc.Ptr
			var err error
			c.span(allocKind(n), sampled, func() { p, err = th.Alloc(n) })
			if err != nil {
				c.tally.Errors++
				return
			}
			buf := th.Bytes(p, n)
			copy(buf, s.key)
			copy(buf[len(s.key):], s.val)
			free(c, table[s.keyID].Swap(p|uint64(c.id)<<63), sampled)
		case workload.OpDelete:
			free(c, table[s.keyID].Swap(0), sampled)
		}
	})
	res.Checks.add(t)
	res.rungPressure("core", pressureVsFabric(pod))
	return ph, bufs, nil
}

// kvstoreRung applies the stream with bare Store calls.
func kvstoreRung(spec wlSpec, seed uint64, dur time.Duration, res *runResult) (phase, []*spanBuf, error) {
	pod, _, err := rungPod()
	if err != nil {
		return phase{}, nil, err
	}
	res.keep = append(res.keep, pod)
	store := kvstore.New(alloc.NewCXL(pod.Heap(), "cxlalloc"), fabricConfig.Buckets, nConns+1)
	keys := keyBytes(spec.KV)
	var val []byte
	for id, n := range preloadSizes(spec.KV, seed) {
		val = append(val[:0], make([]byte, n)...)
		encodeValue(val, uint64(id), preloadConn, 0)
		if err := store.Put(0, keys[id], val); err != nil {
			return phase{}, nil, fmt.Errorf("kvstore rung preload: %w", err)
		}
	}
	dst := make([][]byte, nConns)
	ph, bufs, t := syncRung(spec, seed, dur, "kvstore", func(c *conn, s *slot, sampled bool) {
		switch s.kind {
		case workload.OpRead:
			var found bool
			c.span(spKVGet, sampled, func() { dst[c.id], found = store.Get(c.id, s.key, dst[c.id]) })
			switch {
			case !found:
				c.tally.Misses++
				if c.noMiss {
					c.tally.FalseMiss++
				}
			default:
				c.tally.Hits++
				if _, _, err := checkValue(dst[c.id], s.keyID); err != nil {
					c.tally.Corrupt++
				}
			}
		case workload.OpInsert:
			var err error
			c.span(spKVPut, sampled, func() { err = store.Put(c.id, s.key, s.val) })
			if err != nil {
				c.tally.Errors++
			}
		case workload.OpDelete:
			c.span(spKVDelete, sampled, func() { store.Delete(c.id, s.key) })
		}
	})
	res.Checks.add(t)
	res.rungPressure("kvstore", pressureVsFabric(pod))
	return ph, bufs, nil
}

// rungPressure notes a lower rung whose one pod, taking every key, mapped
// more slabs than a fabric pod may: there the fabric would be shedding
// writes (0.90) or out of memory (1.0), and only the rung's roomier caps
// kept it running.
func (r *runResult) rungPressure(rung string, p float64) {
	if p >= 0.90 {
		r.Notes = append(r.Notes, fmt.Sprintf(
			"%s rung: its pod reached %.2f of a fabric pod's slab caps (remote-free stranding); the fabric sheds writes at 0.90", rung, p))
	}
}

// pipelinedRung is the server rung and both fabric runs: a sat phase
// (traced when rung is non-empty), audit, stop. It returns the phase and
// the counters around it; e is left stopped.
func pipelinedRung(e *kvEnv, dur time.Duration, rung string, bufs *[]*spanBuf, res *runResult) (phase, counters, counters) {
	res.keep = append(res.keep, e)
	before := e.counts(false)
	ph := e.drive(satWindow, dur, e.spec.SatCap, rung, bufs)
	mismatch, _ := e.audit()
	e.stop()
	after := e.counts(true)
	t := e.tallies()
	t.AuditMismatch += mismatch
	res.Checks.add(t)
	e.checkFabric(res, after)
	if e.fab == nil {
		res.rungPressure("server", after.pressure)
	}
	return ph, before, after
}

// nsIn converts a duration in ns to unit, "ns" or "us".
func nsIn(unit string, ns int64) float64 {
	if unit == "us" {
		return float64(ns) / 1e3
	}
	return float64(ns)
}

// setMedian records the median of a set of durations (ns). No samples — no
// such call on this workload — leaves the metric at 0.
func setMedian(res *runResult, name, unit string, samples []int64) {
	if len(samples) == 0 {
		return
	}
	p50, _, _ := tailOf(samples, 0.50)
	res.setQuantile(name, unit, nsIn(unit, p50), len(samples), 0.50)
}

// setTail records a set of durations (ns) as name_p50 and name_p99.
func setTail(res *runResult, name, unit string, samples []int64) {
	if len(samples) == 0 {
		return
	}
	setMedian(res, name+"_p50", unit, samples)
	_, p99, used := tailOf(samples, 0.99)
	res.setQuantile(name+"_p99", unit, nsIn(unit, p99), len(samples), used)
}

// recoverPasses measures thread-crash recovery (Thread.Kill, then
// Process.Recover) on stopped pods, on the heap as the workload left it,
// for dur. One pass kills and recovers every worker slot of every pod
// once; a pass's value is its Recover time per slot, because what one
// slot's recovery costs depends on what that slot happens to own, which
// scheduling decides, and the sum over all slots does not.
func recoverPasses(pods []*cxlalloc.Pod, slots int, dur time.Duration) ([]int64, error) {
	procs := make([]*cxlalloc.Process, len(pods))
	for i, pod := range pods {
		procs[i] = pod.NewProcess()
	}
	// Recovery allocates a fresh thread cache on the Go heap, so its time
	// depends on where the collector is in its cycle: start from a
	// just-collected heap.
	runtime.GC()
	var out []int64
	for start := time.Now(); time.Since(start) < dur; {
		var total time.Duration
		for pi, pod := range pods {
			for tid := 0; tid < slots; tid++ {
				th, err := pod.ThreadOf(tid)
				if err != nil {
					return nil, fmt.Errorf("recovery pass %d: %w", len(out), err)
				}
				th.Kill()
				t0 := time.Now()
				if _, _, err := procs[pi].Recover(tid); err != nil {
					return nil, fmt.Errorf("recovery pass %d: %w", len(out), err)
				}
				total += time.Since(t0)
			}
		}
		out = append(out, int64(total)/int64(len(pods)*slots))
	}
	return out, nil
}

// perCall times n batches of batch calls of f and returns each batch's
// time per call: for calls too short to time one by one.
func perCall(n, batch int, f func(i int)) []int64 {
	out := make([]int64, n)
	for b := range out {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			f(b*batch + i)
		}
		out[b] = int64(time.Since(t0)) / int64(batch)
	}
	return out
}

// runTraced is the traced run: it reports every per-layer metric. End-to-
// end values never come from it.
func runTraced(spec wlSpec, seed uint64, seconds float64) (*runResult, []*spanBuf) {
	res := newResult(spec, 1, seed, seconds)
	for _, m := range perLayerMetrics {
		res.set(m.Name, m.Unit, 0) // a layer off this workload's path did no work
	}
	var bufs []*spanBuf
	var err error
	if spec.KV.Keyspace != 0 {
		bufs, err = tracedKV(spec, seed, seconds, res)
	} else {
		bufs, err = tracedAlloc(spec, seed, seconds, res)
	}
	if err != nil {
		res.fail("%v", err)
	}
	res.Attempted, res.Failed = res.Checks.Attempted, res.Checks.failed()
	res.set("kvstore.false_miss", "count", float64(res.Checks.FalseMiss))
	if res.Failed != 0 {
		res.failedOps()
	}
	for _, b := range bufs {
		if b.dropped != 0 {
			res.Notes = append(res.Notes, fmt.Sprintf("%s conn %d: %d spans past the buffer cap were not kept", b.rung, b.conn, b.dropped))
		}
	}
	return res, bufs
}

// tracedKV runs a kv_* workload's ladder and returns every span recorded.
func tracedKV(spec wlSpec, seed uint64, seconds float64, res *runResult) ([]*spanBuf, error) {
	share := func(f float64) time.Duration { return shareOf(seconds, f) }
	var lad ladder
	var bufs []*spanBuf

	ph, b, t := syncRung(spec, seed, share(tracedShare.gen), "gen", nil)
	lad.rate[0] = ph.Rate
	res.Checks.add(t)
	bufs = append(bufs, b...)

	ph, b, err := coreRung(spec, seed, share(tracedShare.core), res)
	if err != nil {
		return nil, err
	}
	lad.rate[1] = ph.Rate
	bufs = append(bufs, b...)
	setTail(res, "core.alloc_small_ns", "ns", durations(b, spCoreAllocSmall))
	setTail(res, "core.alloc_large_ns", "ns", durations(b, spCoreAllocLarge))
	setTail(res, "core.free_local_ns", "ns", durations(b, spCoreFreeLocal))
	setTail(res, "core.free_remote_ns", "ns", durations(b, spCoreFreeRemote))

	ph, b, err = kvstoreRung(spec, seed, share(tracedShare.kvstore), res)
	if err != nil {
		return nil, err
	}
	lad.rate[2] = ph.Rate
	bufs = append(bufs, b...)
	setTail(res, "kvstore.get_ns", "ns", durations(b, spKVGet))
	setTail(res, "kvstore.put_ns", "ns", durations(b, spKVPut))
	setTail(res, "kvstore.delete_ns", "ns", durations(b, spKVDelete))

	se, err := newServerEnv(spec, seed)
	if err != nil {
		return nil, err
	}
	var sb []*spanBuf
	ph, _, _ = pipelinedRung(se, share(tracedShare.server), "server", &sb, res)
	lad.rate[3] = ph.Rate
	bufs = append(bufs, sb...)
	setTail(res, "server.submit_ns", "ns", durations(sb, spSubmit))

	// The fabric, untraced: the top rung's rate and every per-op count.
	fe, err := newFabricEnv(spec, seed)
	if err != nil {
		return nil, err
	}
	ph, before, after := pipelinedRung(fe, share(tracedShare.fabric), "", nil, res)
	lad.rate[4] = ph.Rate
	layerCounts(res, before, after, ph.Ops)
	res.set("core.pressure_max", "ratio", after.pressure)
	total, hwcc := fe.footprint()
	res.set("core.hwcc_share", "ratio", float64(hwcc)/float64(total))
	lad.report(res)
	rec, err := recoverPasses(fe.pods, fe.slots, share(tracedShare.recover))
	if err != nil {
		return nil, err
	}
	setMedian(res, "core.recover_us_p50", "us", rec)

	// The fabric, traced: the request spans, and what tracing costs.
	fe, err = newFabricEnv(spec, seed)
	if err != nil {
		return nil, err
	}
	var fb []*spanBuf
	traced, _, _ := pipelinedRung(fe, share(tracedShare.fabricTraced), "fabric", &fb, res)
	bufs = append(bufs, fb...)
	res.set("bench.trace_overhead_pct", "%", 100*(1-traced.Rate/ph.Rate))

	// The light window, every request traced: where a lone request waits.
	fe, err = newFabricEnv(spec, seed)
	if err != nil {
		return nil, err
	}
	res.keep = append(res.keep, fe)
	var lb []*spanBuf
	for _, c := range fe.conns {
		c.every = 1
	}
	fe.drive(lightWindow, share(tracedShare.light), math.MaxUint64, "fabric.light", &lb)
	res.Checks.add(fe.tallies())
	bufs = append(bufs, lb...)
	setTail(res, "server.sojourn_us", "us", durations(lb, spSojourn))
	keys := fe.keys
	route := perCall(4096, 64, func(i int) { fe.fab.Owner(fe.fab.ShardOfKey(keys[i%len(keys)])) })
	fe.stop()
	setMedian(res, "fabric.route_ns_p50", "ns", route)

	pod, ths, err := rungPod()
	if err != nil {
		return nil, err
	}
	res.keep = append(res.keep, pod)
	setMedian(res, "liveness.run_ns_p50", "ns", perCall(4096, 64, func(int) { ths[0].Run(func() {}) }))

	return bufs, nil
}

// layerCounts turns the counter deltas around the untraced fabric phase
// into per-op counts, one group per layer.
func layerCounts(res *runResult, before, after counters, ops uint64) {
	d := after.snap.Delta(before.snap)
	per := func(n uint64) float64 { return float64(n) / float64(ops) }
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	res.set("memsim.fences_per_op", "1/op", per(d.Cache.Fences))
	res.set("memsim.flushes_per_op", "1/op", per(d.Cache.Flushes))
	res.set("memsim.fetches_per_op", "1/op", per(d.Cache.Fetches))
	res.set("memsim.writebacks_per_op", "1/op", per(d.Cache.Writebacks))
	res.set("memsim.hit_ratio", "ratio", ratio(d.Cache.Hits, d.Cache.Loads+d.Cache.Stores))
	mcas := d.NMP.Successes + d.NMP.Failures
	res.set("nmp.mcas_per_op", "1/op", per(mcas))
	res.set("nmp.fail_ratio", "ratio", ratio(d.NMP.Failures, mcas))
	res.set("nmp.retries_per_op", "1/op", per(d.NMP.Failures+d.HW.MCASRetries))
	res.set("liveness.renews_per_op", "1/op", per(d.Liveness.Renews))
	res.set("core.small_allocs_per_op", "1/op", per(d.Alloc.SmallAllocs))
	res.set("core.large_allocs_per_op", "1/op", per(d.Alloc.LargeAllocs))
	res.set("core.huge_allocs_per_op", "1/op", per(d.Alloc.HugeAllocs))
	res.set("vas.faults_per_kop", "1/kop", 1e3*per(after.faults-before.faults))

	res.set("kvstore.hit_ratio", "ratio",
		ratio(after.kv.Hits-before.kv.Hits, after.kv.Hits-before.kv.Hits+after.kv.Misses-before.kv.Misses))
	res.set("epoch.reclaim_lag", "count", float64(after.kv.Replaces+after.kv.Deletes-after.kv.Reclaimed))

	var submitted, shed, bounced, maxExec, sumExec uint64
	for i := range after.srv {
		a, b := after.srv[i], before.srv[i]
		submitted += a.Submitted - b.Submitted
		shed += a.ShedQueueFull + a.ShedCoDel + a.ShedDeadline + a.ShedWrite + a.ShedPodFull + a.ShedBreaker -
			(b.ShedQueueFull + b.ShedCoDel + b.ShedDeadline + b.ShedWrite + b.ShedPodFull + b.ShedBreaker)
		bounced += a.ShedShard - b.ShedShard
		exec := a.Executed - b.Executed
		sumExec += exec
		if exec > maxExec {
			maxExec = exec
		}
	}
	bounced += after.fab.RouterRejects - before.fab.RouterRejects
	res.set("server.shed_share", "ratio", ratio(shed, submitted))
	res.set("fabric.bounce_share", "ratio", ratio(bounced, submitted))
	res.set("fabric.pod_load_skew", "ratio", ratio(maxExec*uint64(len(after.srv)), sumExec))
}

// tracedAlloc is alloc_mix's traced run: the draw alone, an untraced
// phase for the rate and the counts, and a traced phase timing every
// spanEvery-th Alloc and Free by size domain and by whose block it frees.
// The layers above core are off this workload's path: their rungs cost
// what core's does and their self time is 0.
func tracedAlloc(spec wlSpec, seed uint64, seconds float64, res *runResult) ([]*spanBuf, error) {
	e, err := newAllocEnv(seed)
	if err != nil {
		return nil, err
	}
	res.keep = append(res.keep, e)
	before := e.counts()
	ph := e.phase(shareOf(seconds, allocTracedShare.untraced), spec.SatCap)
	after := e.counts()
	layerCounts(res, before, after, ph.Ops)
	fp := e.pod.Heap().Footprint(0)
	res.set("core.hwcc_share", "ratio", fp.HWccFraction())
	res.set("core.pressure_max", "ratio", after.pressure)

	epoch := time.Now()
	var bufs []*spanBuf
	for i, w := range e.workers {
		w.every = spanEvery
		w.spans = newSpanBuf("core", i, epoch)
		bufs = append(bufs, w.spans)
	}
	traced := e.phase(shareOf(seconds, allocTracedShare.traced), spec.SatCap)
	res.set("bench.trace_overhead_pct", "%", 100*(1-traced.Rate/ph.Rate))
	setTail(res, "core.alloc_small_ns", "ns", durations(bufs, spCoreAllocSmall))
	setTail(res, "core.alloc_large_ns", "ns", durations(bufs, spCoreAllocLarge))
	setMedian(res, "core.alloc_huge_us_p50", "us", durations(bufs, spCoreAllocHuge))
	setTail(res, "core.free_local_ns", "ns", durations(bufs, spCoreFreeLocal))
	setTail(res, "core.free_remote_ns", "ns", durations(bufs, spCoreFreeRemote))
	rec, err := e.recoverHeld(shareOf(seconds, allocTracedShare.recover))
	if err != nil {
		return nil, err
	}
	setMedian(res, "core.recover_us_p50", "us", rec)
	e.audit(res)

	// The draw alone: one size per Alloc, nothing per Free.
	gen := allocGenRate(seed, shareOf(seconds, allocTracedShare.gen))
	lad := ladder{rate: [5]float64{gen, ph.Rate, ph.Rate, ph.Rate, ph.Rate}}
	lad.report(res)
	return bufs, nil
}

// allocGenRate is alloc_mix's gen rung: both workers' size draws with no
// allocator behind them, in ops (calls) per second — every draw stands for
// an Alloc and its Free.
func allocGenRate(seed uint64, dur time.Duration) float64 {
	var wg sync.WaitGroup
	paces := make([]pace, nConns)
	calls := make([]uint64, nConns)
	start := time.Now()
	for i := 0; i < nConns; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			paces[i] = pace{start: start, dur: dur}
			rng := allocRNG(seed, i)
			sum := 0
			for !paces[i].tick(calls[i]) {
				for j := 0; j < 16*roundBlocks; j++ {
					sum += drawSize(rng)
				}
				calls[i] += 2 * 16 * roundBlocks
			}
			genSink.Add(int64(sum))
		}(i)
	}
	wg.Wait()
	return newPhase(calls[0]+calls[1], time.Since(start), paces[0].marks, paces[1].marks).Rate
}

// genSink keeps the draws from being optimised away.
var genSink atomic.Int64
