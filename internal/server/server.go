package server

import (
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"cxlalloc"
	"cxlalloc/internal/core"
	"cxlalloc/internal/kvstore"
	"cxlalloc/internal/telemetry"
)

// OpKind is a request's operation type.
type OpKind int

const (
	OpGet OpKind = iota
	OpPut
	OpDelete
)

// Request is one simulated-RPC request. Create with NewRequest; the
// buffers (Key, Val, Dst) belong to the caller and must stay untouched
// until the response arrives. A request is stamped at admission with its
// wall-clock arrival, and carries one absolute wall-clock deadline for
// its whole lifetime. Retries re-enter admission with a fresh arrival
// stamp but the original deadline (deadline propagation: a request never
// outlives its budget by being resubmitted).
type Request struct {
	Op    OpKind
	Key   []byte
	Val   []byte // put payload
	Dst   []byte // get destination buffer (grown as needed, reused)
	KeyID int    // caller's key tag, for the DecodeVer hook

	// Deadline is the relative budget; the absolute deadline is stamped
	// from it on the first Submit. Zero means effectively unbounded.
	Deadline time.Duration
	// PrevVer is, for deletes issued by a versioned client, the value
	// version being displaced — ground truth for crash resolution.
	PrevVer uint64

	// Shard and ShardEpoch are stamped by a fabric router at routing
	// time; the execution-time Gate re-validates them so an op admitted
	// before a shard moved cannot execute against the old owner.
	Shard      int
	ShardEpoch uint64

	arriveWall   time.Time
	deadlineWall time.Time

	resp Response
	// state is the completion word: reqPending until finish publishes the
	// response, reqWaiting while Wait is parked on wake. Wait consumes the
	// answer and returns the word to reqPending, so a request is answered
	// exactly once per Wait, as a one-slot channel would be.
	state atomic.Uint32
	wake  chan struct{} // finish's token for a parked Wait; cap 1
}

// Completion-word states (Request.state).
const (
	reqPending uint32 = iota
	reqWaiting
	reqDone
)

// NewRequest allocates a request with its completion word.
func NewRequest() *Request { return &Request{wake: make(chan struct{}, 1)} }

// Wait blocks until the server responds and returns the response. An
// answer that is already there costs one atomic load; only a Wait that
// gets there first parks, and only it costs finish a channel send.
func (r *Request) Wait() *Response {
	if r.state.Load() != reqDone && r.state.CompareAndSwap(reqPending, reqWaiting) {
		<-r.wake
	}
	r.state.Store(reqPending)
	return &r.resp
}

// finish publishes r's response, stamped done, and wakes a parked Wait.
// The fields of r.resp are written before the swap, so whoever reads the
// word as reqDone, or takes the token, reads the whole response.
func (r *Request) finish(err error, done time.Time) {
	r.resp.Err = err
	r.resp.DoneWall = done
	switch r.state.Swap(reqDone) {
	case reqWaiting:
		r.wake <- struct{}{}
	case reqDone:
		panic("server: request answered twice")
	}
}

// Reset prepares the request for a fresh operation (pooled reuse),
// keeping its buffers.
func (r *Request) Reset() {
	r.resp = Response{}
	r.arriveWall, r.deadlineWall = time.Time{}, time.Time{}
	r.PrevVer = 0
	r.Shard, r.ShardEpoch = 0, 0
}

// stamp records r's arrival at now and, the first time it is admitted
// or rejected, its absolute deadline; a resubmission keeps that one.
func (r *Request) stamp(now time.Time) {
	r.arriveWall = now
	if r.deadlineWall.IsZero() {
		d := r.Deadline
		if d <= 0 {
			d = 24 * time.Hour
		}
		r.deadlineWall = now.Add(d)
	}
}

// Response is the server's answer. Err == nil means the op executed
// and its effect is durable store state (an acknowledgement). A typed
// shed error means the op never executed. ErrCrashed means the op died
// mid-execution and Applied is its resolved fate.
type Response struct {
	Err      error
	Found    bool   // get/delete: key presence
	Value    []byte // get: result bytes (aliases Request.Dst)
	Applied  bool   // with ErrCrashed: whether the op's effect survived
	DoneWall time.Time
}

// Config parameterizes a Server. Pod, Store, and Groups are required;
// a zero QueueCap takes the default of 512.
type Config struct {
	Pod   *cxlalloc.Pod
	Store *kvstore.Store
	// Groups lists each process group's thread slots: one admission
	// queue, one circuit breaker, and one worker goroutine per tid.
	Groups [][]int

	QueueCap int // per-group admission queue bound (default 512)

	// PressureFn overrides the memory-pressure source (tests). Default:
	// the heap's MemPressure sampled every pressureEvery.
	PressureFn func() float64

	// DecodeVer extracts the version from a value's bytes (the
	// versioned client's codec); used to resolve a crashed delete's
	// fate exactly. Nil falls back to "value present ⇒ not applied".
	DecodeVer func(keyID int, val []byte) (uint64, error)

	// Gate, when set, runs immediately before each op executes (fabric
	// shard-ownership check): it re-validates the request's routing
	// stamps against current ownership. A non-nil error rejects the op
	// unexecuted (counted as ShedShard); a non-nil release pins the
	// shard for the op's duration and is invoked once the op's fate is
	// settled — including a crashed write's post-repair resolution — so
	// "pins drained" implies no in-flight effect can still land.
	Gate func(r *Request) (release func(), err error)
}

// Admission and shedding policy. A group's queue pops newest-first once
// it is half full (LIFO at QueueCap/2).
const (
	defaultQueueCap = 512
	coDelTarget     = 5 * time.Millisecond   // sojourn target
	coDelInterval   = 100 * time.Millisecond // above-target grace interval
	softWatermark   = 0.90                   // shed writes at this mapped-slab fraction
	hardWatermark   = 0.98                   // ErrPodFull at this fraction
	retryAfter      = 5 * time.Millisecond   // ErrPodFull hint
	pressureEvery   = time.Millisecond       // pressure sampler period
)

// group is one process group's service state.
type group struct {
	id   int
	tids []int
	q    *queue
	brk  breaker

	// Dispatch: a worker that finds q empty parks on wake; parked counts
	// the workers that have announced themselves idle, so a push costs
	// the submitter one atomic load while the group is busy and a channel
	// send only when somebody is there to receive it.
	parked atomic.Int32
	wake   chan struct{} // one token wakes one worker; cap = len(tids)

	admitted atomic.Uint64
	workers  []*worker // one per tid; Stats sums their executed counts
}

// signal wakes up to n parked workers of g. A token left over by a worker
// that un-parked on its own costs that worker one empty pass later.
func (g *group) signal(n int) {
	if p := int(g.parked.Load()); p < n {
		n = p
	}
	for ; n > 0; n-- {
		select {
		case g.wake <- struct{}{}:
		default:
			return // every worker already has a token waiting
		}
	}
}

// park blocks the calling worker until a push, the sampler's kick, or
// Stop signals the group. The queue is re-checked after the worker has
// announced itself: a push that could not yet see it parked left its
// request in the queue, and a push that comes later sees it and signals.
func (g *group) park(stopped *atomic.Bool) {
	g.parked.Add(1)
	if g.q.len() == 0 && !stopped.Load() {
		<-g.wake
	}
	g.parked.Add(-1)
}

// Server is the KV service front end. One worker goroutine serves per
// thread slot; requests enter through Submit and complete through
// their completion word (Request.Wait).
type Server struct {
	cfg    Config
	heap   *core.Heap
	groups []*group

	pressure atomic.Uint64 // float64 bits of the latest sample
	tickRate atomic.Uint64 // float64 bits; 0 = pace off
	stopped  atomic.Bool
	wg       sync.WaitGroup

	rr atomic.Uint64 // router cursor

	// owed is how many ticks the pod clock has fallen behind its calibrated
	// rate while a worker awaits repair; the next idle worker runs them.
	owed atomic.Int64

	refused                                atomic.Uint64 // answered by Submit itself, never routed
	shedQueueFull, shedCoDel, shedDeadline atomic.Uint64
	shedWrite, shedPodFull, shedBreaker    atomic.Uint64
	shedShard                              atomic.Uint64
	breakerReroutes                        atomic.Uint64
	workerCrashes, crashResolves           atomic.Uint64
	pendingCrashed                         atomic.Int64
}

const (
	// batchMax is how many requests a worker takes from its group's queue
	// per lock acquisition and clock reading. Small, because a request in
	// a private batch cannot be served by an idle sibling.
	batchMax   = 8
	repairPoll = 200 * time.Microsecond
)

// idlePeriod is how often the sampler kicks parked workers into their
// idle tick. The pod clock must keep advancing on an idle server — the
// fabric monitor reads a stalled clock as a dark pod, and a finite lease
// is renewed from Thread.Run — and a millisecond is far inside the
// shortest dark grace in use (60 ms). The sampler never sleeps longer than
// this, whatever pressureEvery says. A variable only so the dispatch
// tests can stretch it and prove that pushes, not kicks, wake the workers.
var idlePeriod = time.Millisecond

// New builds the server and starts its workers and pressure sampler.
func New(cfg Config) *Server {
	if cfg.QueueCap == 0 {
		cfg.QueueCap = defaultQueueCap
	}
	s := &Server{cfg: cfg, heap: cfg.Pod.Heap()}
	if cfg.PressureFn == nil {
		heap := s.heap
		cfg.PressureFn = func() float64 { return heap.MemPressure(0) }
		s.cfg.PressureFn = cfg.PressureFn
	}
	s.pressure.Store(math.Float64bits(cfg.PressureFn()))
	for gi, tids := range cfg.Groups {
		g := &group{
			id:   gi,
			tids: append([]int(nil), tids...),
			q:    newQueue(cfg.QueueCap, cfg.QueueCap/2, coDelTarget, coDelInterval),
			wake: make(chan struct{}, len(tids)),
		}
		s.groups = append(s.groups, g)
	}
	s.wg.Add(1)
	go s.sampler()
	for _, g := range s.groups {
		for _, tid := range g.tids {
			// Register serving before the goroutine is scheduled: a fresh
			// server must not shed ErrBreakerOpen in the instants before
			// its workers first run.
			g.brk.workerUp()
			w := &worker{s: s, g: g, tid: tid, up: true}
			w.batch = w.buf[:0]
			g.workers = append(g.workers, w)
			s.wg.Add(1)
			go w.serve()
		}
	}
	return s
}

// Stop shuts the server down: workers exit, answering the requests in
// their private batches ErrStopped, then every still-queued request is
// answered the same. Callers that need every in-flight op's true fate
// (the oracle harnesses) must wait for all outstanding responses before
// stopping.
func (s *Server) Stop() {
	s.stopped.Store(true)
	for _, g := range s.groups {
		// Unconditionally, not signal: a worker between its announcement
		// and its stopped check is not counted yet but will need the token.
		for range g.tids {
			select {
			case g.wake <- struct{}{}:
			default:
			}
		}
	}
	s.wg.Wait()
	for _, g := range s.groups {
		for _, r := range g.q.drain() {
			s.respond(r, ErrStopped)
		}
	}
}

// Pressure returns the latest memory-pressure sample.
func (s *Server) Pressure() float64 {
	return math.Float64frombits(s.pressure.Load())
}

// SetTickRate installs the calibrated pod-clock rate (ticks/second) a
// finite lease was sized from; pace keeps the clock at it while a worker
// awaits repair.
func (s *Server) SetTickRate(r float64) {
	s.tickRate.Store(math.Float64bits(r))
}

// Stats assembles the service-plane resilience counters.
func (s *Server) Stats() telemetry.ServerStats {
	st := telemetry.ServerStats{
		ShedQueueFull:   s.shedQueueFull.Load(),
		ShedCoDel:       s.shedCoDel.Load(),
		ShedDeadline:    s.shedDeadline.Load(),
		ShedWrite:       s.shedWrite.Load(),
		ShedPodFull:     s.shedPodFull.Load(),
		ShedBreaker:     s.shedBreaker.Load(),
		ShedShard:       s.shedShard.Load(),
		BreakerReroutes: s.breakerReroutes.Load(),
		WorkerCrashes:   s.workerCrashes.Load(),
		CrashResolves:   s.crashResolves.Load(),
	}
	for _, g := range s.groups {
		st.Admitted += g.admitted.Load()
		for _, w := range g.workers {
			st.Executed += w.executed.n.Load()
		}
		st.BreakerOpens += g.brk.opens.Load()
	}
	st.Submitted = st.Admitted + s.refused.Load()
	return st
}

// PendingCrashed returns how many crashed writes are still awaiting
// post-repair resolution. A fabric failover must drive this to zero —
// by rescuing the pod's dead slots so workers can resolve — before
// stopping the server: answering a maybe-applied write ErrStopped
// would hide its true fate from the acked-write oracle.
func (s *Server) PendingCrashed() int64 { return s.pendingCrashed.Load() }

// clockBase anchors the server's stamps; see now.
var clockBase = time.Now()

// now is the server's clock: one monotonic-only reading, cheaper than
// time.Now's wall-and-monotonic pair, placed on clockBase's wall clock.
// Every consumer of a stamp — CoDel's sojourn, the deadline check, a
// client's latency — subtracts or compares times that all carry
// monotonic readings, so the wall part is never consulted.
func now() time.Time { return clockBase.Add(time.Since(clockBase)) }

// respond answers r with err, stamped now, and returns the stamp.
func (s *Server) respond(r *Request, err error) time.Time {
	t := now()
	r.finish(err, t)
	return t
}

// Reject answers r with err without admitting it to any server — the
// router-level rejection path (fabric: dark pod, frozen shard, no
// owner). It stamps r as Submit does, so client backoff and deadline
// propagation see a normally stamped request.
func Reject(r *Request, err error) {
	t := now()
	r.stamp(t)
	r.finish(err, t)
}

// Submit admits r (asynchronously; the response arrives through r's
// Wait): watermark checks, breaker-aware routing, then the chosen
// group's bounded queue.
func (s *Server) Submit(r *Request) {
	t := now()
	r.stamp(t)
	if err := s.refuse(r); err != nil {
		s.refused.Add(1)
		r.finish(err, t)
		return
	}
	g := s.route(nil)
	if g == nil {
		s.refused.Add(1)
		s.shedBreaker.Add(1)
		r.finish(ErrBreakerOpen, t)
		return
	}
	g.admitted.Add(1)
	s.enqueue(g, r)
}

// refuse is Submit's pre-routing checks: nil admits r.
func (s *Server) refuse(r *Request) error {
	if s.stopped.Load() {
		return ErrStopped
	}
	if r.Op == OpGet {
		return nil
	}
	p := s.Pressure()
	if p >= hardWatermark {
		s.shedPodFull.Add(1)
		return &ErrPodFull{Pressure: p, RetryAfter: retryAfter}
	}
	if p >= softWatermark {
		s.shedWrite.Add(1)
		return ErrWriteShed
	}
	return nil
}

// enqueue pushes r onto g's queue and wakes a parked worker for it.
func (s *Server) enqueue(g *group, r *Request) {
	if ev := g.q.push(r); ev != nil {
		s.shedQueueFull.Add(1)
		s.respond(ev, ErrQueueFull)
	}
	g.signal(1)
}

// route picks the next group round-robin, skipping open breakers and
// the excluded group. nil means every eligible group is broken. A server
// of one group has nothing to rotate through, so it writes no cursor.
func (s *Server) route(except *group) *group {
	n := len(s.groups)
	if n == 1 {
		if g := s.groups[0]; g != except && !g.brk.open() {
			return g
		}
		return nil
	}
	start := int(s.rr.Add(1))
	skippedBroken := false
	for i := 0; i < n; i++ {
		g := s.groups[(start+i)%n]
		if g == except {
			continue
		}
		if g.brk.open() {
			skippedBroken = true
			continue
		}
		if skippedBroken {
			s.breakerReroutes.Add(1)
		}
		return g
	}
	return nil
}

// readmit moves an already admitted request to a live group other than
// except, or sheds it ErrBreakerOpen when there is none.
func (s *Server) readmit(r *Request, except *group) bool {
	t := s.route(except)
	if t == nil {
		s.shedBreaker.Add(1)
		s.respond(r, ErrBreakerOpen)
		return false
	}
	s.enqueue(t, r)
	return true
}

// reroute drains a just-broken group's queue into live groups, so
// admitted requests don't sit behind a ~400ms watchdog repair.
func (s *Server) reroute(g *group) {
	for _, r := range g.q.drain() {
		if s.readmit(r, g) {
			s.breakerReroutes.Add(1)
		}
	}
}

// sampler refreshes the pressure sample every pressureEvery and kicks the
// parked workers every idlePeriod (see idlePeriod), sleeping the shorter
// of the two. One goroutine with one timer does for every worker what a
// timer each would.
func (s *Server) sampler() {
	defer s.wg.Done()
	idle := idlePeriod
	var sampled time.Time
	kicked, want := time.Now(), uint64(0) // want: see pace
	for !s.stopped.Load() {
		now := time.Now()
		if now.Sub(sampled) >= pressureEvery {
			sampled = now
			s.pressure.Store(math.Float64bits(s.cfg.PressureFn()))
		}
		if dt := now.Sub(kicked); dt >= idle {
			kicked = now
			want = s.pace(dt, want)
			for _, g := range s.groups {
				g.signal(len(g.tids))
			}
		}
		time.Sleep(min(pressureEvery, idle))
	}
}

// pace keeps lease expiry on its wall-clock target when traffic does not.
// A lease is a number of pod ticks, sized from the tick rate measured
// under load; one idle tick per worker per kick is a hundredth of that
// rate, so a slot that died as the traffic ended would wait a hundred
// lease lengths for its repair, and the crashed write it holds with it.
// While a tick rate is installed and a worker is down, want is where the
// clock would be at that rate, dt after the last kick; what the clock is
// short of it goes to the idle workers (at most four kicks' worth: they
// catch up, they do not jump). A clock that keeps up by itself, or nobody
// to repair, re-anchors want to the clock.
func (s *Server) pace(dt time.Duration, want uint64) uint64 {
	tr := math.Float64frombits(s.tickRate.Load())
	if tr == 0 {
		return want
	}
	clock := s.heap.ClockNow(0)
	step := uint64(tr * dt.Seconds())
	want += step
	if want <= clock || !s.workerDown() {
		return clock
	}
	want = min(want, clock+4*step)
	s.owed.Store(int64(want - clock))
	return want
}

// workerDown reports whether any worker is waiting for its slot's repair.
func (s *Server) workerDown() bool {
	for _, g := range s.groups {
		if int(g.brk.serving.Load()) < len(g.tids) {
			return true
		}
	}
	return false
}

func (s *Server) countShed(err error) {
	if err == ErrCoDel {
		s.shedCoDel.Add(1)
	} else {
		s.shedDeadline.Add(1)
	}
}

// pendOp is a write that died mid-execution: kept in Go memory across
// the crash (a panic unwind leaves it exactly as the fault did) and
// resolved against store ground truth after the watchdog repairs the
// slot.
type pendOp struct {
	req     *Request
	ptr     cxlalloc.Ptr // put: captured allocation (0 = Alloc never returned)
	applied bool
	release func() // gate permit, held until the op's fate is settled
}

// settle releases a pend's gate permit (once).
func (p *pendOp) settle() {
	if p.release != nil {
		p.release()
		p.release = nil
	}
}

// worker serves one group from one thread slot.
type worker struct {
	s   *Server
	g   *group
	tid int
	th  *cxlalloc.Thread // nil while the slot is dead, until the watchdog repairs it
	up  bool             // registered with the group's breaker as serving

	// batch is what the worker popped and has not started: batch[0] runs
	// next. Nobody else can serve these, so a worker that goes down gives
	// them back before it waits for its repair.
	batch []*Request
	buf   [batchMax]*Request
	pend  *pendOp // a crashed write awaiting its post-repair resolution
	// pendBuf is the running write's crash record, reused: pend points
	// at it only while the worker runs nothing but its resolution.
	pendBuf pendOp

	// last is the stamp of the worker's latest response, which the next
	// fill reads as its clock instead of taking a reading of its own; zero
	// after a park or a crash, when it would be stale.
	last time.Time

	executed paddedCount // ops run to completion, for Stats
}

// paddedCount is a counter on its own cache line: one writer, read only
// by Stats, so counting an op writes no line another worker writes.
type paddedCount struct {
	_ [56]byte
	n atomic.Uint64
	_ [56]byte
}

// down records that the worker's slot died: the handle is dropped and,
// if the group just went dark, its queue is re-routed.
func (w *worker) down() {
	w.th = nil
	w.last = time.Time{}
	if w.up {
		w.up = false
		if w.g.brk.workerDown() && !w.s.stopped.Load() {
			w.s.reroute(w.g)
		}
	}
}

// handBack gives up the un-started batch: to the live groups' queues
// (this one included while a sibling still serves it), or to the callers
// as ErrStopped once the server has stopped.
func (w *worker) handBack() {
	for _, r := range w.batch {
		if w.s.stopped.Load() {
			w.s.respond(r, ErrStopped)
		} else {
			w.s.readmit(r, nil)
		}
	}
	w.batch = w.buf[:0]
}

// idleTicks is what a kicked worker does: a benign tick keeps the pod
// clock advancing, our lease renewed and the watchdog polling (repairs are
// driven by live workers), and the ticks the sampler found the clock owed
// keep a pending repair on schedule (see pace). False means a tick
// crashed.
func (w *worker) idleTicks() bool {
	for n := 1 + w.s.owed.Swap(0); n > 0; n-- {
		if c := w.th.Run(func() {}); c != nil {
			if c.TID == w.tid {
				w.down()
			}
			return false
		}
	}
	return true
}

// fill pops the next batch, answering what the queue shed on the way at
// the pop's own stamp: the last response's, or a fresh one.
func (w *worker) fill() {
	s := w.s
	t := w.last
	if t.IsZero() {
		t = now()
	}
	w.last = time.Time{}
	var sheds []shedReq
	w.batch, sheds = w.g.q.popBatch(t, w.buf[:0])
	for _, sd := range sheds {
		s.countShed(sd.err)
		sd.req.finish(sd.err, t)
	}
}

// serve is the worker loop: pop a batch, execute it, park when the
// queue is empty. It is the one crash discipline every online harness
// runs KV ops under: every store op runs inside th.Run (heartbeat +
// watchdog + crash capture); an own-slot crash drops the handle, opens
// the breaker if the group went dark, hands the rest of the batch back
// and waits for the watchdog's repair, then settles a crashed write
// against ground truth; a crash with a foreign TID means a repair
// hosted by our heartbeat died — our op never ran and is simply retried.
func (w *worker) serve() {
	s, g, tid := w.s, w.g, w.tid
	defer s.wg.Done()
	if th, err := s.cfg.Pod.ThreadOf(tid); err == nil {
		w.th = th
	} else {
		w.down()
	}
	idle := false // parked since the last request: a wake that finds nothing is a kick
	for {
		if s.stopped.Load() && w.pend == nil {
			w.handBack()
			return
		}
		if w.th == nil {
			w.handBack()
			if w.th = s.awaitRepair(tid); w.th == nil {
				// Stopped while dead. A still-pending write here means the
				// caller tore down with an op in flight; answer with the
				// one honest error left.
				if p := w.pend; p != nil {
					s.respond(p.req, ErrStopped)
					p.settle()
					s.pendingCrashed.Add(-1)
				}
				return
			}
			w.up = true
			g.brk.workerUp()
		}
		if p := w.pend; p != nil {
			c := w.th.Run(func() { p.applied = s.resolveCrashed(tid, p) })
			if c != nil {
				if c.TID == tid {
					w.down()
				}
				continue // either way: resolve re-runs (it is idempotent)
			}
			s.crashResolves.Add(1)
			p.req.resp.Applied = p.applied
			w.pend = nil
			w.last = s.respond(p.req, ErrCrashed)
			p.settle()
			s.pendingCrashed.Add(-1)
			continue
		}

		if len(w.batch) == 0 {
			w.fill()
		}
		if len(w.batch) == 0 {
			if idle && !w.idleTicks() {
				continue
			}
			idle = true
			g.park(&s.stopped)
			w.last = time.Time{}
			continue
		}
		idle = false
		req := w.batch[0]

		// Execution-time ownership check: the shard may have moved or
		// frozen between routing and dequeue; the permit (release) pins
		// it against a freeze until this op's fate is settled.
		var release func()
		if s.cfg.Gate != nil {
			var gerr error
			if release, gerr = s.cfg.Gate(req); gerr != nil {
				w.batch = w.batch[1:]
				s.shedShard.Add(1)
				w.last = s.respond(req, gerr)
				continue
			}
		}

		var pc *pendOp
		if req.Op != OpGet {
			w.pendBuf = pendOp{req: req}
			pc = &w.pendBuf
		}
		started := false
		c := w.th.Run(func() {
			started = true
			s.execute(tid, req, pc)
		})
		if c == nil {
			if release != nil {
				release()
			}
			w.batch = w.batch[1:]
			w.executed.n.Add(1)
			w.last = s.respond(req, req.resp.Err)
			continue
		}
		if c.TID == tid {
			w.down()
		}
		if c.TID != tid || !started {
			// A hosted repair crashed before our op ran, or we died in the
			// heartbeat phase: the op never started and is still batch[0],
			// to be retried (through the gate again — ownership may have
			// changed) by us or by whoever the batch is handed to.
			if release != nil {
				release()
			}
			continue
		}
		w.batch = w.batch[1:]
		s.workerCrashes.Add(1)
		if req.Op == OpGet {
			// Reads have no effect; the crash is the whole story.
			if release != nil {
				release()
			}
			s.respond(req, ErrCrashed)
		} else {
			// Fate unknown until resolved after repair; the permit
			// rides on the pend so a frozen shard waits for it.
			pc.release = release
			w.pend = pc
			s.pendingCrashed.Add(1)
		}
	}
}

// awaitRepair blocks until the watchdog has repaired tid (nil once the
// server stops).
func (s *Server) awaitRepair(tid int) *cxlalloc.Thread {
	for {
		if th, err := s.cfg.Pod.ThreadOf(tid); err == nil {
			return th
		}
		if s.stopped.Load() {
			return nil
		}
		time.Sleep(repairPoll)
	}
}

// execute runs one op against the store (inside th.Run).
func (s *Server) execute(tid int, r *Request, pc *pendOp) {
	switch r.Op {
	case OpGet:
		r.Dst, r.resp.Found = s.cfg.Store.Get(tid, r.Key, r.Dst)
		r.resp.Value = r.Dst
	case OpPut:
		err := s.cfg.Store.PutTracked(tid, r.Key, r.Val, func(p cxlalloc.Ptr) { pc.ptr = p })
		if errors.Is(err, cxlalloc.ErrOutOfMemory) {
			// The allocator's authoritative backstop: typed, with a hint —
			// never a panic or a wedged worker.
			s.shedPodFull.Add(1)
			r.resp.Err = &ErrPodFull{Pressure: s.Pressure(), RetryAfter: retryAfter}
		} else {
			r.resp.Err = err
		}
	case OpDelete:
		r.resp.Found = s.cfg.Store.Delete(tid, r.Key)
	}
}

// resolveCrashed settles a crashed write against ground truth (inside
// th.Run on the repaired slot). It may itself crash and re-run; every
// step is idempotent.
func (s *Server) resolveCrashed(tid int, p *pendOp) bool {
	r := p.req
	if r.Op == OpPut {
		return s.cfg.Store.ResolvePut(tid, r.Key, &p.ptr)
	}
	// Delete: applied iff the displaced version is gone. The versioned
	// client keeps the key single-writer, so any other version is
	// impossible while this op is unresolved; the response carries what
	// was read back, for the client to check that.
	r.Dst, r.resp.Found = s.cfg.Store.Get(tid, r.Key, r.Dst)
	r.resp.Value = r.Dst
	if !r.resp.Found {
		return true
	}
	if s.cfg.DecodeVer != nil {
		if v, err := s.cfg.DecodeVer(r.KeyID, r.Dst); err == nil && v != r.PrevVer {
			return true
		}
	}
	return false
}
