package main

import (
	"fmt"
	"sync"
	"time"

	"cxlalloc"
	"cxlalloc/internal/alloc"
	"cxlalloc/internal/atomicx"
	"cxlalloc/internal/fabric"
	"cxlalloc/internal/kvstore"
	"cxlalloc/internal/server"
	"cxlalloc/internal/telemetry"
	"cxlalloc/internal/workload"
)

// The fixed load shape of every kv_* workload.
const (
	satWindow   = 256   // requests each connection keeps in flight when saturating
	lightWindow = 1     // ... and when measuring per-request latency
	warmOps     = 32768 // ops per connection run during set-up, before anything is timed
	auditWindow = 64

	// The fabric's hard-coded per-pod heap caps (fabric.buildPod), which
	// pressure is reported against at every rung.
	fabricSmallSlabs = 256
	fabricLargeSlabs = 64
)

var fabricConfig = fabric.Config{
	Pods: 3, Threads: 2, Procs: 1, Shards: 16, Buckets: 1024,
	QueueCap: 1024, DarkGrace: 5 * time.Second,
}

// tally is what the checks saw. Failed operations are those that came
// back with an error (shed, bounced, crashed) or with bytes that do not
// validate, plus keys whose final state no acknowledged write explains.
// A false miss — a get on a workload without deletes that found nothing
// — is counted on its own: it is ROADMAP item 0's known read-path race,
// it is timing-dependent, and the op did complete.
type tally struct {
	Attempted     uint64 `json:"attempted"`
	Errors        uint64 `json:"errors"`
	Corrupt       uint64 `json:"corrupt"`
	AuditMismatch uint64 `json:"audit_mismatch"`
	FalseMiss     uint64 `json:"false_miss"`
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	FirstError    string `json:"first_error,omitempty"`
}

func (t *tally) add(o tally) {
	t.Attempted += o.Attempted
	t.Errors += o.Errors
	t.Corrupt += o.Corrupt
	t.AuditMismatch += o.AuditMismatch
	t.FalseMiss += o.FalseMiss
	t.Hits += o.Hits
	t.Misses += o.Misses
	if t.FirstError == "" {
		t.FirstError = o.FirstError
	}
}

func (t tally) failed() uint64 { return t.Errors + t.Corrupt + t.AuditMismatch }

// okShare is 1 - fail_share; false misses count against it.
func (t tally) okShare() float64 {
	if t.Attempted == 0 {
		return 0
	}
	return 1 - float64(t.failed()+t.FalseMiss)/float64(t.Attempted)
}

// outcome is an acknowledged write's effect on its key.
type outcome struct {
	done    int64 // ack stamp (Response.DoneWall), ns since the env's epoch
	present bool
	seq     uint64
}

// keyTrack is one connection's view of one key. With 256 requests in
// flight and two workers per pod, two writes of one connection to one key
// can execute in either order, so "the last op sent" does not name the
// key's final state. What does: the final state is the effect of a write
// that no other write on the key strictly follows, i.e. whose ack is not
// older than the latest send. cands holds this connection's acked writes
// that still qualify against its own sends; the audit merges both
// connections.
type keyTrack struct {
	lastSent int64 // latest send stamp of this connection's writes; 0 = none
	unknown  bool  // a write came back with an error: its fate is not known
	cands    []outcome
}

func (k *keyTrack) ack(o outcome) {
	kept := k.cands[:0]
	for _, c := range k.cands {
		if c.done >= k.lastSent {
			kept = append(kept, c)
		}
	}
	k.cands = kept
	if o.done >= k.lastSent {
		k.cands = append(k.cands, o)
	}
}

// slot is one pre-allocated request of a connection's ring.
type slot struct {
	req   *server.Request
	key   []byte
	val   []byte
	sent  time.Time
	kind  workload.OpKind
	keyID uint64
	seq   uint64

	// Traced runs: the request span's pieces, recorded when the ack is
	// collected. traced marks a sampled request.
	traced               bool
	reqID                uint64
	genStart, submitFrom int64
	submitTo             int64
}

// conn is one connection: a driver goroutine's stream, ring, checks and
// (when traced) span buffer.
type conn struct {
	id     int
	st     *workload.KVGen // the seeded op stream; both connections share the keyspace
	noMiss bool
	epoch  time.Time
	seq    uint64
	issued uint64
	ring   []slot
	track  []keyTrack
	tally  tally
	lat    []int64  // per-request latency (ns), kept when non-nil
	spans  *spanBuf // nil when untraced
	every  uint64   // traced: every every-th request is sampled
	pace   pace     // the current phase's clock
}

// mark is a worker's progress at one instant of a phase.
type mark struct {
	at  time.Duration
	ops uint64
}

// pace is one worker's clock for a phase: it marks the worker's progress at
// every rateWindow boundary and says when the phase's time is up.
type pace struct {
	start time.Time
	dur   time.Duration
	marks []mark
}

// tick records ops, the work done so far, and reports whether dur is over.
func (p *pace) tick(ops uint64) bool {
	el := time.Since(p.start)
	if el >= time.Duration(len(p.marks))*rateWindow {
		p.marks = append(p.marks, mark{el, ops})
	}
	return el >= p.dur
}

// rateWindow is the grain throughput is read at. A phase's rate is the
// median over its windows, not ops ÷ wall: on a shared two-core sandbox a
// neighbour's burst slows a few windows by 10-20 %, and the median
// ignores them where the mean does not.
const rateWindow = 250 * time.Millisecond

// medianRate sums the workers' rates window by window and returns the
// median window's ops/s; ok is false when there are fewer than three
// whole windows.
func medianRate(marks ...[]mark) (rate float64, ok bool) {
	n := len(marks[0])
	for _, m := range marks {
		if len(m) < n {
			n = len(m)
		}
	}
	var rates []float64
	for k := 1; k < n; k++ {
		var r float64
		for _, m := range marks {
			r += float64(m[k].ops-m[k-1].ops) / (m[k].at - m[k-1].at).Seconds()
		}
		rates = append(rates, r)
	}
	if len(rates) < 3 {
		return 0, false
	}
	return spreadOf(rates).Med, true
}

// newConn makes connection id with a ring of window requests.
func newConn(id int, spec wlSpec, seed uint64, epoch time.Time, window int) *conn {
	c := &conn{
		id: id, st: workload.NewKVGen(spec.KV, seed, id, nConns), noMiss: spec.NoMiss, epoch: epoch, every: sampleEvery,
		ring:  make([]slot, window),
		track: make([]keyTrack, spec.KV.Keyspace),
	}
	for i := range c.ring {
		c.ring[i] = slot{
			req: server.NewRequest(),
			key: make([]byte, 0, spec.KV.KeyMax),
			val: make([]byte, 0, spec.KV.ValMax),
		}
	}
	return c
}

// draw takes the next op off the stream and materialises it into s: key
// bytes copied, value encoded. This is all of the "gen" rung.
func (c *conn) draw(s *slot) {
	o := c.st.Next()
	s.kind, s.keyID = o.Kind, o.KeyID
	s.key = append(s.key[:0], o.Key...)
	if o.Kind == workload.OpInsert {
		c.seq++
		s.seq = c.seq
		s.val = s.val[:len(o.Val)]
		encodeValue(s.val, o.KeyID, uint8(c.id), s.seq)
	}
}

// issue draws one op and submits it.
func (c *conn) issue(s *slot, sub server.Submitter) {
	s.traced = c.spans != nil && c.issued%c.every == 0
	if s.traced {
		s.genStart = c.spans.now()
	}
	c.draw(s)
	r := s.req
	r.Reset()
	r.Key = s.key
	switch s.kind {
	case workload.OpRead:
		r.Op = server.OpGet
	case workload.OpInsert:
		r.Op, r.Val = server.OpPut, s.val
	case workload.OpDelete:
		r.Op = server.OpDelete
	}
	s.sent = time.Now()
	if s.kind != workload.OpRead {
		c.track[s.keyID].lastSent = int64(s.sent.Sub(c.epoch))
	}
	if s.traced {
		s.reqID = uint64(c.id)<<56 | c.issued
		s.submitFrom = c.spans.now()
		sub.Submit(r)
		s.submitTo = c.spans.now()
	} else {
		sub.Submit(r)
	}
	c.issued++
}

// collect waits for s's response and checks it.
func (c *conn) collect(s *slot) {
	resp := s.req.Wait()
	c.tally.Attempted++
	if c.lat != nil {
		c.lat = append(c.lat, int64(resp.DoneWall.Sub(s.sent)))
	}
	if s.traced {
		done := c.spans.at(resp.DoneWall)
		if done < s.submitTo {
			done = s.submitTo // answered before Submit returned
		}
		c.spans.add(spGen, -1, s.reqID, s.genStart, s.submitFrom)
		root := c.spans.add(spRequest, -1, s.reqID, s.submitFrom, done)
		c.spans.add(spSubmit, root, s.reqID, s.submitFrom, s.submitTo)
		c.spans.add(spSojourn, root, s.reqID, s.submitTo, done)
	}
	k := &c.track[s.keyID]
	if resp.Err != nil {
		c.tally.add(tally{Errors: 1, FirstError: resp.Err.Error()})
		if s.kind != workload.OpRead {
			k.unknown = true
		}
		return
	}
	switch s.kind {
	case workload.OpRead:
		if !resp.Found {
			c.tally.Misses++
			if c.noMiss {
				c.tally.FalseMiss++
			}
			return
		}
		c.tally.Hits++
		if _, _, err := checkValue(resp.Value, s.keyID); err != nil {
			c.tally.Corrupt++
		}
	case workload.OpInsert:
		k.ack(outcome{done: int64(resp.DoneWall.Sub(c.epoch)), present: true, seq: s.seq})
	case workload.OpDelete:
		k.ack(outcome{done: int64(resp.DoneWall.Sub(c.epoch))})
	}
}

// drive pipelines the connection's stream through sub with window
// requests in flight, for dur or maxOps ops, whichever ends first, and
// returns the ops completed. Acks are collected in ring order; latency is
// read off the server's own completion stamp, so collection order does
// not distort it.
func (c *conn) drive(sub server.Submitter, window int, start time.Time, dur time.Duration, maxOps uint64) uint64 {
	c.pace = pace{start: start, dur: dur}
	i := 0
	for ; ; i++ {
		if i >= window {
			c.collect(&c.ring[i%window])
		}
		if i%64 == 0 && (c.pace.tick(uint64(i)) || uint64(i) >= maxOps) {
			break
		}
		c.issue(&c.ring[i%window], sub)
	}
	for j := max(0, i-window+1); j < i; j++ {
		c.collect(&c.ring[j%window])
	}
	return uint64(i)
}

// kvEnv is a running KV service under test — the three-pod fabric, or at
// the server rung one pod's server — with its connections.
type kvEnv struct {
	spec    wlSpec
	epoch   time.Time
	sub     server.Submitter
	fab     *fabric.Fabric // nil at the server rung
	pods    []*cxlalloc.Pod
	stores  []*kvstore.Store
	servers []*server.Server
	slots   int // worker thread slots per pod
	conns   [nConns]*conn
	keys    [][]byte
	preLen  []int
	stop    func()
}

// keyBytes materialises every key of a spec once.
func keyBytes(spec workload.KVSpec) [][]byte {
	g := workload.NewKVGen(spec, 0, 0, 1)
	keys := make([][]byte, spec.Keyspace)
	for id := range keys {
		keys[id] = append([]byte(nil), g.Key(uint64(id))...)
	}
	return keys
}

// newFabricEnv builds the fabric, preloads every key through the front
// door and runs the warm-up: everything that happens before measuring.
func newFabricEnv(spec wlSpec, seed uint64) (*kvEnv, error) {
	f, err := fabric.New(fabricConfig)
	if err != nil {
		return nil, err
	}
	e := &kvEnv{spec: spec, sub: f, fab: f, slots: fabricConfig.Threads, stop: f.Stop}
	for i := 0; i < fabricConfig.Pods; i++ {
		e.pods = append(e.pods, f.Pod(i))
		e.stores = append(e.stores, f.Store(i))
		e.servers = append(e.servers, f.Server(i))
	}
	return e, e.start(seed)
}

// rungPodConfig is the fabric's per-pod configuration (fabric.buildPod
// keeps it private, so it is repeated here) with far roomier heap caps
// (256 MiB small, 512 MiB large; address space, touched only as used).
// Below the fabric all keys land on one pod, whose mapped slabs only ever
// grow: remote-free stranding maps 1.0-1.9 times a fabric pod's caps within
// seconds, and one driver goroutine descheduled inside an epoch section for
// 50 ms strands a further 20-45 MiB of retired values (one kvstore rung in
// ten reached 4-8 times the caps, and with the default 64 MiB one ran out
// of memory). The pressure is reported against the fabric's caps instead.
func rungPodConfig(threads int) cxlalloc.PodConfig {
	pc := cxlalloc.DefaultConfig()
	pc.NumThreads = threads
	pc.MaxSmallSlabs = 8192
	pc.MaxLargeSlabs = 1024
	pc.HugeRegionSize = 1 << 20
	pc.NumReservations = 8
	pc.DescsPerThread = 16
	pc.NumHazards = 8
	pc.UnsizedThreshold = 2
	pc.Mode = atomicx.ModeMCAS
	return cxlalloc.PodConfig{
		Config:      pc,
		AutoRecover: true,
		Liveness:    cxlalloc.LivenessConfig{RenewInterval: 4, GraceMult: 1 << 38, PollInterval: 4},
	}
}

// newServerEnv is the server rung: one pod, three process groups of two
// workers (the fabric's six workers, without routing or gate).
func newServerEnv(spec wlSpec, seed uint64) (*kvEnv, error) {
	const groups, perGroup = 3, 2
	slots := groups * perGroup
	pod, err := cxlalloc.NewPodWith(rungPodConfig(slots + 1))
	if err != nil {
		return nil, err
	}
	tids := make([][]int, groups)
	for g := range tids {
		proc := pod.NewProcess()
		for w := 0; w < perGroup; w++ {
			tid := g*perGroup + w
			if _, err := proc.AttachThreadID(tid); err != nil {
				return nil, err
			}
			tids[g] = append(tids[g], tid)
		}
	}
	// An idle control slot, as in the fabric: the post-run reads use it.
	if _, err := pod.NewProcess().AttachThreadID(slots); err != nil {
		return nil, err
	}
	store := kvstore.New(alloc.NewCXL(pod.Heap(), "cxlalloc"), fabricConfig.Buckets, slots+1)
	srv := server.New(server.Config{Pod: pod, Store: store, Groups: tids, QueueCap: fabricConfig.QueueCap})
	e := &kvEnv{
		spec: spec, sub: srv, slots: slots, stop: srv.Stop,
		pods: []*cxlalloc.Pod{pod}, stores: []*kvstore.Store{store}, servers: []*server.Server{srv},
	}
	return e, e.start(seed)
}

func (e *kvEnv) start(seed uint64) error {
	e.epoch = time.Now()
	e.keys = keyBytes(e.spec.KV)
	e.preLen = preloadSizes(e.spec.KV, seed)
	for i := range e.conns {
		e.conns[i] = newConn(i, e.spec, seed, e.epoch, satWindow)
	}
	if err := e.preload(); err != nil {
		e.stop()
		return err
	}
	e.drive(satWindow, time.Hour, warmOps*nConns, "", nil)
	return nil
}

// pipeline submits n requests with auditWindow in flight from the calling
// goroutine: fill prepares request i, done sees its response.
func (e *kvEnv) pipeline(n int, fill func(i int, r *server.Request), done func(i int, resp *server.Response)) {
	ring := make([]*server.Request, auditWindow)
	for i := range ring {
		ring[i] = server.NewRequest()
	}
	for i := 0; i < n+auditWindow; i++ {
		r := ring[i%auditWindow]
		if i >= auditWindow {
			done(i-auditWindow, r.Wait())
		}
		if i < n {
			r.Reset()
			fill(i, r)
			e.sub.Submit(r)
		}
	}
}

func (e *kvEnv) preload() error {
	vals := make([][]byte, auditWindow)
	var firstErr error
	e.pipeline(len(e.keys), func(id int, r *server.Request) {
		v := append(vals[id%auditWindow][:0], make([]byte, e.preLen[id])...)
		vals[id%auditWindow] = v
		encodeValue(v, uint64(id), preloadConn, 0)
		r.Op, r.Key, r.Val = server.OpPut, e.keys[id], v
	}, func(id int, resp *server.Response) {
		if resp.Err != nil && firstErr == nil {
			firstErr = fmt.Errorf("preload key %d: %w", id, resp.Err)
		}
	})
	return firstErr
}

// phase is one measured stretch of load.
type phase struct {
	Ops     uint64
	Elapsed time.Duration // common start to last ack
	Rate    float64       // ops/s: medianRate, or Ops ÷ Elapsed for a phase too short for it
}

func newPhase(ops uint64, elapsed time.Duration, marks ...[]mark) phase {
	p := phase{Ops: ops, Elapsed: elapsed}
	var ok bool
	if p.Rate, ok = medianRate(marks...); !ok {
		p.Rate = float64(ops) / elapsed.Seconds()
	}
	return p
}

// drive runs both connections for dur (at most maxOps ops in total). A
// non-empty rung turns tracing on: each connection records spans into a
// fresh buffer, returned through bufs.
func (e *kvEnv) drive(window int, dur time.Duration, maxOps uint64, rung string, bufs *[]*spanBuf) phase {
	var wg sync.WaitGroup
	ops := make([]uint64, nConns)
	start := time.Now()
	for i, c := range e.conns {
		c.spans = nil
		if rung != "" {
			c.spans = newSpanBuf(rung, i, e.epoch)
			*bufs = append(*bufs, c.spans)
		}
		wg.Add(1)
		go func(i int, c *conn) {
			defer wg.Done()
			ops[i] = c.drive(e.sub, window, start, dur, maxOps/nConns)
		}(i, c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var total uint64
	marks := make([][]mark, nConns)
	for i, n := range ops {
		total += n
		marks[i] = e.conns[i].pace.marks
	}
	return newPhase(total, elapsed, marks...)
}

// audit reads every key through the front door, with nothing else in
// flight, and checks its state against the writes that could have been
// last (keyTrack). It returns the mismatches and the user bytes (key plus
// value) of the keys present.
func (e *kvEnv) audit() (mismatch, liveBytes uint64) {
	e.pipeline(len(e.keys), func(id int, r *server.Request) {
		r.Op, r.Key = server.OpGet, e.keys[id]
	}, func(id int, resp *server.Response) {
		if resp.Err != nil {
			mismatch++
			return
		}
		if resp.Found {
			liveBytes += uint64(len(e.keys[id]) + len(resp.Value))
		}
		if !e.admissible(id, resp) {
			mismatch++
		}
	})
	return mismatch, liveBytes
}

func (e *kvEnv) admissible(id int, resp *server.Response) bool {
	var lastSent int64
	for _, c := range e.conns {
		k := &c.track[id]
		if k.unknown {
			return true // already counted as a failed op
		}
		if k.lastSent > lastSent {
			lastSent = k.lastSent
		}
	}
	var by uint8
	var seq uint64
	if resp.Found {
		var err error
		if by, seq, err = checkValue(resp.Value, uint64(id)); err != nil {
			return false
		}
	}
	if lastSent == 0 { // never written after the preload
		return resp.Found && by == preloadConn && len(resp.Value) == e.preLen[id]
	}
	for ci, c := range e.conns {
		for _, o := range c.track[id].cands {
			if o.done < lastSent || o.present != resp.Found {
				continue
			}
			if !o.present || (int(by) == ci && seq == o.seq) {
				return true
			}
		}
	}
	return false
}

// tallies sums and clears the connections' check counts.
func (e *kvEnv) tallies() tally {
	var t tally
	for _, c := range e.conns {
		t.add(c.tally)
		c.tally = tally{}
	}
	return t
}

// counters is every layer's cumulative counts at one instant.
type counters struct {
	snap     telemetry.Snapshot // summed over pods
	srv      []telemetry.ServerStats
	kv       kvstore.Stats
	fab      fabric.Stats
	faults   uint64
	pressure float64 // hottest pod, against the fabric's per-pod caps
}

// counts reads the counters. With exact set the caller has stopped the
// servers, so the threads' private counters can be published first;
// otherwise the published mirrors are read, which lag their owners by at
// most 64 fences per thread.
func (e *kvEnv) counts(exact bool) counters {
	var c counters
	for i, pod := range e.pods {
		if exact {
			pod.Heap().PublishStats()
		}
		addSnapshot(&c.snap, pod.Snapshot())
		c.srv = append(c.srv, e.servers[i].Stats())
		ks := e.stores[i].Stats()
		c.kv.Inserts += ks.Inserts
		c.kv.Replaces += ks.Replaces
		c.kv.Deletes += ks.Deletes
		c.kv.Hits += ks.Hits
		c.kv.Misses += ks.Misses
		c.kv.Reclaimed += ks.Reclaimed
		var last *cxlalloc.Process
		for tid := 0; tid < e.slots; tid++ {
			// Slots of one process are adjacent at every rung.
			if p := pod.OwnerOf(tid); p != nil && p != last {
				c.faults += p.FaultStats().Faults
				last = p
			}
		}
		if p := pressureVsFabric(pod); p > c.pressure {
			c.pressure = p
		}
	}
	if e.fab != nil {
		c.fab = e.fab.Stats()
	}
	return c
}

// pressureVsFabric is a pod's mapped-slab share of the fabric's per-pod
// heap caps: core.MemPressure, but comparable across rungs whose pods
// have roomier caps (and then able to exceed 1).
func pressureVsFabric(pod *cxlalloc.Pod) float64 {
	small, large := pod.Heap().HeapLengths(0)
	p := float64(small) / fabricSmallSlabs
	if l := float64(large) / fabricLargeSlabs; l > p {
		p = l
	}
	return p
}

// footprint sums the pods' footprints; only after the servers stopped.
func (e *kvEnv) footprint() (total, hwcc uint64) {
	for _, pod := range e.pods {
		fp := pod.Heap().Footprint(e.slots) // the idle control slot
		total += fp.Total()
		hwcc += fp.HWccBytes
	}
	return total, hwcc
}
