package main

import (
	"encoding/binary"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"cxlalloc"
	"cxlalloc/internal/atomicx"
	"cxlalloc/internal/core"
	"cxlalloc/internal/xrand"
)

// alloc_mix is the paper's own user, with no KV store at all: two threads
// in two processes of one pod. Every round a thread allocates roundBlocks
// blocks, stamps each, verifies and frees every second one itself and
// hands the others to its peer, which verifies and frees them — so exactly
// half of all slab-backed frees are remote on every run. One op is one
// Alloc or Free call.
//
// Huge blocks are always freed by the thread that allocated them. Handing
// them over crashes about one run in ten at the seed commit: the peer's
// first touch (core.HandleFault) or free (findDesc) walks the owner's
// descriptor list without a retry, and when the owner's Maintain unlinks a
// freed descriptor under the walker, the walk ends early and a live block
// is reported as unmapped ("vas: segmentation fault") or as a double free.
const (
	roundBlocks  = 64
	handoffDepth = 4 // batches a thread may run ahead of its peer: bounds the live set
	minBlock     = 16
	maxBlock     = 32 << 10
	hugeBlock    = 600 << 10 // above core.LargeMax: the huge heap
	hugeOneIn    = 2048
	allocWarm    = 256 // rounds per thread run during set-up
	// Untraced, every latEvery-th call is timed for lat_p50_us/lat_p99_us;
	// traced, every spanEvery-th. Both are prime: a round is 128 calls plus
	// the peer's 32, and a stride sharing a factor with that keeps landing
	// on the same few calls of the round.
	latEvery  = 67
	spanEvery = 17
)

// blk is one live allocation and what its stamp must read.
type blk struct {
	p     cxlalloc.Ptr
	size  int
	stamp uint64
}

type batch [roundBlocks / 2]blk

// allocWorker is one thread of alloc_mix.
type allocWorker struct {
	id       int
	th       *cxlalloc.Thread
	rng      *xrand.Rand
	out      chan *batch   // to the peer
	in       chan *batch   // from the peer
	spare    []*batch      // batches the peer's frees emptied, reused for our sends
	live     *atomic.Int64 // requested bytes now live in slab-backed blocks, both workers
	peak     int64         // its high-water as this worker saw it
	calls    uint64
	every    uint64 // time every every-th call
	lat      []int64
	spans    *spanBuf
	pace     pace
	errs     uint64
	badStamp uint64
}

func allocRNG(seed uint64, worker int) *xrand.Rand {
	return xrand.New(xrand.Mix(seed) ^ xrand.Mix(uint64(worker)+1))
}

func drawSize(r *xrand.Rand) int {
	if r.Intn(hugeOneIn) == 0 {
		return hugeBlock
	}
	return int(minBlock * math.Pow(maxBlock/minBlock, r.Float64()))
}

func allocKind(size int) spanKind {
	switch {
	case size <= core.SmallMax():
		return spCoreAllocSmall
	case size <= core.LargeMax():
		return spCoreAllocLarge
	}
	return spCoreAllocHuge
}

// timed runs f, timing it when this call is a sampled one.
func (w *allocWorker) timed(kind spanKind, f func()) {
	w.calls++
	if w.calls%w.every != 0 {
		f()
		return
	}
	if w.spans != nil {
		t0 := w.spans.now()
		f()
		w.spans.add(kind, -1, uint64(w.id)<<56|w.calls, t0, w.spans.now())
		return
	}
	t0 := time.Now()
	f()
	w.lat = append(w.lat, int64(time.Since(t0)))
}

func (w *allocWorker) alloc() (blk, bool) {
	size := drawSize(w.rng)
	var p cxlalloc.Ptr
	var err error
	w.timed(allocKind(size), func() { p, err = w.th.Alloc(size) })
	if err != nil {
		w.errs++
		return blk{}, false
	}
	b := blk{p: p, size: size, stamp: xrand.Mix(p ^ uint64(w.id)<<56 ^ w.calls)}
	buf := w.th.Bytes(p, minBlock)
	binary.LittleEndian.PutUint64(buf, b.stamp)
	binary.LittleEndian.PutUint64(buf[8:], uint64(size))
	return b, true
}

// free verifies b's stamp and frees it; kind says whose block it is.
func (w *allocWorker) free(b blk, kind spanKind) {
	if b.p == 0 {
		return
	}
	buf := w.th.Bytes(b.p, minBlock)
	if binary.LittleEndian.Uint64(buf) != b.stamp || binary.LittleEndian.Uint64(buf[8:]) != uint64(b.size) {
		w.badStamp++
	}
	w.timed(kind, func() { w.th.Free(b.p) })
	if b.size <= core.LargeMax() {
		w.live.Add(-int64(b.size))
	}
}

func (w *allocWorker) freeBatch(b *batch) {
	for i := range b {
		w.free(b[i], spCoreFreeRemote)
		b[i] = blk{}
	}
	w.spare = append(w.spare, b)
}

// round allocates roundBlocks blocks, frees the odd half, hands the even
// half to the peer, and frees whatever the peer has handed over.
func (w *allocWorker) round() {
	var mine [roundBlocks]blk
	var sum int64
	for i := range mine {
		if b, ok := w.alloc(); ok {
			mine[i] = b
			if b.size <= core.LargeMax() {
				sum += int64(b.size)
			}
		}
	}
	if l := w.live.Add(sum); l > w.peak {
		w.peak = l
	}
	var out *batch
	if n := len(w.spare); n > 0 {
		out, w.spare = w.spare[n-1], w.spare[:n-1]
	} else {
		out = new(batch)
	}
	n := 0 // slab-backed blocks seen
	for _, b := range mine {
		switch {
		case b.size > core.LargeMax():
			w.free(b, spCoreFreeLocal)
		case n%2 == 1:
			w.free(b, spCoreFreeLocal)
			n++
		default:
			out[n/2] = b
			n++
		}
	}
	// Blocking but deadlock-free: while the peer's inbox is full, serve
	// our own, so two full inboxes cannot wait on each other.
	for sent := false; !sent; {
		select {
		case w.out <- out:
			sent = true
		case b := <-w.in:
			w.freeBatch(b)
		}
	}
	for more := true; more; {
		select {
		case b := <-w.in:
			w.freeBatch(b)
		default:
			more = false
		}
	}
	w.th.Maintain()
}

// run does rounds until dur has passed or maxCalls calls were made.
func (w *allocWorker) run(start time.Time, dur time.Duration, maxCalls uint64) {
	w.pace = pace{start: start, dur: dur}
	for first := w.calls; !w.pace.tick(w.calls) && w.calls-first < maxCalls; {
		w.round()
	}
}

// allocEnv is the alloc_mix pod and its two workers.
type allocEnv struct {
	pod     *cxlalloc.Pod
	workers [nConns]*allocWorker
	live    atomic.Int64
}

func newAllocEnv(seed uint64) (*allocEnv, error) {
	cfg := cxlalloc.DefaultConfig()
	cfg.Mode = atomicx.ModeMCAS
	pod, err := cxlalloc.NewPod(cfg)
	if err != nil {
		return nil, err
	}
	e := &allocEnv{pod: pod}
	// handoffDepth batches may wait in each direction.
	chans := [nConns]chan *batch{make(chan *batch, handoffDepth), make(chan *batch, handoffDepth)}
	for i := range e.workers {
		th, err := pod.NewProcess().AttachThreadID(i)
		if err != nil {
			return nil, err
		}
		e.workers[i] = &allocWorker{
			id: i, th: th, rng: allocRNG(seed, i),
			out: chans[1-i], in: chans[i], live: &e.live, every: latEvery,
		}
	}
	e.phase(time.Hour, allocWarm*2*roundBlocks*nConns)
	return e, nil
}

// phase runs both workers for dur (at most maxCalls calls in total); the
// heap is quiescent before and after.
func (e *allocEnv) phase(dur time.Duration, maxCalls uint64) phase {
	var rounds, wg sync.WaitGroup
	var before uint64
	quit := make(chan struct{})
	start := time.Now()
	for _, w := range e.workers {
		before += w.calls
		rounds.Add(1)
		wg.Add(1)
		go func(w *allocWorker) {
			defer wg.Done()
			w.run(start, dur, maxCalls/nConns)
			rounds.Done()
			// Keep serving the inbox until the peer has finished its rounds
			// too, or its last sends could block on a full inbox for ever.
			for {
				select {
				case b := <-w.in:
					w.freeBatch(b)
				case <-quit:
					return
				}
			}
		}(w)
	}
	rounds.Wait()
	close(quit)
	wg.Wait()
	for _, w := range e.workers {
		for more := true; more; {
			select {
			case b := <-w.in:
				w.freeBatch(b)
			default:
				more = false
			}
		}
	}
	elapsed := time.Since(start)
	var calls uint64
	for _, w := range e.workers {
		calls += w.calls
	}
	return newPhase(calls-before, elapsed, e.workers[0].pace.marks, e.workers[1].pace.marks)
}

// counts publishes and reads the pod's counters; the workers are idle.
func (e *allocEnv) counts() counters {
	e.pod.Heap().PublishStats()
	c := counters{snap: e.pod.Snapshot(), pressure: e.pod.Heap().MemPressure(0)}
	for _, w := range e.workers {
		c.faults += w.th.Process().FaultStats().Faults
	}
	return c
}

// allocRepeat is one fresh alloc_mix repeat: set-up, the timed phase, and
// the heap audits once everything is freed.
func allocRepeat(spec wlSpec, seed uint64, slice time.Duration, res *runResult) (e2eSample, error) {
	t0 := time.Now()
	e, err := newAllocEnv(seed)
	if err != nil {
		return e2eSample{}, err
	}
	res.keep = append(res.keep, e)
	vals := map[string]float64{mSetup: time.Since(t0).Seconds()}
	for _, w := range e.workers {
		w.lat = make([]int64, 0, 1<<16)
	}
	before := e.counts()
	sat := e.phase(slice, spec.SatCap)
	after := e.counts()
	var lat []int64
	for _, w := range e.workers {
		lat = append(lat, w.lat...)
	}
	p50, p99, used := tailOf(lat, 0.99)
	vals[mLatP50], vals[mLatP99] = float64(p50)/1e3, float64(p99)/1e3
	vals[mSatOps] = sat.Rate
	vals[mSimNs] = simNanos(after.snap.Delta(before.snap)) / float64(sat.Ops)
	vals[mSpaceAmp] = e.spaceAmp()
	e.audit(res)
	return e2eSample{vals: vals, latN: len(lat), tailPct: used}, nil
}

// spaceAmp is the mapped footprint over the high-water of requested bytes,
// slab-backed blocks only: huge blocks are mapped and unmapped exactly.
func (e *allocEnv) spaceAmp() float64 {
	var peak int64
	for _, w := range e.workers {
		if w.peak > peak {
			peak = w.peak
		}
	}
	return float64(e.pod.Heap().Footprint(0).Total()) / float64(peak)
}

// recoverHeld measures recovery for dur with one round's blocks of each
// worker held live, then frees them through the recovered slots.
func (e *allocEnv) recoverHeld(dur time.Duration) ([]int64, error) {
	var held []blk
	for _, w := range e.workers {
		for i := 0; i < roundBlocks; i++ {
			if b, ok := w.alloc(); ok {
				held = append(held, b)
			}
		}
	}
	rec, err := recoverPasses([]*cxlalloc.Pod{e.pod}, nConns, dur)
	if err != nil {
		return nil, err
	}
	for _, w := range e.workers {
		if w.th, err = e.pod.ThreadOf(w.id); err != nil {
			return nil, err
		}
	}
	for i, b := range held {
		e.workers[i%nConns].free(b, spCoreFreeRemote)
	}
	return rec, nil
}

// audit checks the heap once everything is freed and folds the workers'
// check counts into res.
func (e *allocEnv) audit(res *runResult) {
	heap := e.pod.Heap()
	for i := 0; i < 2; i++ { // huge descriptors are reclaimed a sweep after their free
		for _, w := range e.workers {
			w.th.Maintain()
		}
	}
	// The hot path leaves local frees unflushed in their thread's cache;
	// AuditEmpty reads the device image.
	heap.DrainCaches()
	if err := heap.CheckAll(0); err != nil {
		res.fail("heap invariants: %v", err)
	}
	if err := heap.AuditEmpty(0); err != nil {
		res.fail("heap not empty after the last free: %v", err)
	}
	for _, w := range e.workers {
		res.Checks.add(tally{Attempted: w.calls, Errors: w.errs, Corrupt: w.badStamp})
	}
}
