package server

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cxlalloc/internal/chaos"
	"cxlalloc/internal/crash"
	"cxlalloc/internal/telemetry"
	"cxlalloc/internal/workload"
	"cxlalloc/internal/xrand"
)

// The slo experiment: measure the service's behavior at and past
// saturation. A closed-loop phase measures 1× capacity (and calibrates
// the pod clock's wall rate); an open-loop sweep then offers fixed
// multiples of that capacity — arrival-rate controlled, so a 2× point
// really offers 2× and the admission/shedding machinery faces a real
// standing queue, which a closed-loop driver can never produce.
// Every write runs the lost-ack oracle protocol end to end through the
// service path, and the run ends with the same authoritative audit as
// livechaos: final sweep, teardown, heap invariants, empty-ledger.

// SLOConfig parameterizes RunSLO/RunSLOChaos. Start from
// DefaultSLOConfig.
type SLOConfig struct {
	Threads int // pod thread slots = server workers
	Procs   int // process groups
	Keys    int
	Clients int // issuer connections (key partitions)
	Seed    uint64

	Window time.Duration // measured window per rate point
	Rates  []float64     // offered-load multipliers of measured capacity

	// Chaos variant only: fault pacing and the wall-clock lease target.
	FaultEvery time.Duration
	LeaseWall  time.Duration
}

const (
	sloDeadline = 25 * time.Millisecond // per-request budget
	// The admission queue must be smaller than the clients' combined
	// in-flight window (Clients x sloMaxInFlight) or bounded-queue
	// eviction can never engage; 64 per group also keeps worst-case
	// sojourn (~queue/service rate) well inside the deadline.
	sloQueueCap    = 64
	sloMaxInFlight = 32 // per-issuer connection concurrency limit
)

// DefaultSLOConfig sizes a run for the CLI default (~10s total).
func DefaultSLOConfig() SLOConfig {
	return SLOConfig{
		Threads:    8,
		Procs:      4,
		Keys:       512,
		Clients:    16,
		Seed:       2026,
		Window:     1500 * time.Millisecond,
		Rates:      []float64{0.5, 1, 2, 4},
		FaultEvery: 900 * time.Millisecond,
		LeaseWall:  400 * time.Millisecond,
	}
}

func (c SLOConfig) validate() error {
	if c.Threads < c.Procs || c.Procs < 2 {
		return fmt.Errorf("server: slo needs Threads >= Procs >= 2 (got %d/%d)", c.Threads, c.Procs)
	}
	if c.Clients < 1 || c.Keys < 2*c.Clients {
		return fmt.Errorf("server: slo needs Clients >= 1 and Keys >= 2*Clients (got %d/%d)", c.Keys, c.Clients)
	}
	if c.Window <= 0 || c.FaultEvery <= 0 || c.LeaseWall <= 0 {
		return fmt.Errorf("server: slo needs a positive Window, FaultEvery and LeaseWall (got %v/%v/%v)", c.Window, c.FaultEvery, c.LeaseWall)
	}
	for _, m := range c.Rates {
		if m <= 0 {
			return fmt.Errorf("server: slo rate multiplier %g is not positive", m)
		}
	}
	return nil
}

// SLOPoint is one offered-load level's measurements.
type SLOPoint struct {
	Mult       float64       `json:"mult"`
	TargetRate float64       `json:"target_rate"` // offered ops/sec
	Elapsed    time.Duration `json:"elapsed"`

	Offered     uint64 `json:"offered"`      // arrivals fired
	ClientDrops uint64 `json:"client_drops"` // arrivals past the connection limit
	Acked       uint64 `json:"acked"`        // Err == nil responses
	Good        uint64 `json:"good"`         // acked within deadline

	Goodput float64       `json:"goodput"` // good per second
	P50     time.Duration `json:"p50"`     // acked latency quantiles
	P99     time.Duration `json:"p99"`
	P999    time.Duration `json:"p999"`

	Server    telemetry.ServerStats `json:"server"` // delta over the point
	Retries   uint64                `json:"retries"`
	TotalShed uint64                `json:"total_shed"`
}

// SLOReport is one run's full outcome.
type SLOReport struct {
	Threads, Procs, Keys, Clients int
	Seed                          uint64
	Deadline, Window              time.Duration

	Capacity   float64 // closed-loop acked ops/sec
	TickRate   float64 // calibrated pod ticks/sec
	Points     []SLOPoint
	ChaosPoint *SLOPoint // RunSLOChaos: the fault-injected point

	// Chaos variant.
	Kills, ProcKills int
	FalseTakeovers   uint64

	PendingAllocs int
	Violations    []string
	LostAcks      []string
}

// SLOGates is the run's pass/fail summary.
type SLOGates struct {
	ZeroViolations bool // heap invariants, codec integrity, settled oracle
	ZeroLostAcks   bool // no acked write lost
	GoodputOK      bool // goodput at the >=2x point >= 80% of capacity
	P99Bounded     bool // acked p99 at the >=2x point <= 2x deadline
	ShedEngaged    bool // top rate point shed > 0
	BreakerEngaged bool // chaos variant: breaker opened during kills
}

// Gates evaluates the report. chaos selects the RunSLOChaos gate set
// (breaker engagement instead of the overload sweep gates).
func (r *SLOReport) Gates(isChaos bool) SLOGates {
	g := SLOGates{
		ZeroViolations: len(r.Violations) == 0,
		ZeroLostAcks:   len(r.LostAcks) == 0,
	}
	if isChaos {
		g.GoodputOK, g.P99Bounded, g.ShedEngaged = true, true, true
		if r.ChaosPoint != nil {
			g.BreakerEngaged = r.ChaosPoint.Server.BreakerOpens > 0
		}
		g.ZeroLostAcks = g.ZeroLostAcks && r.FalseTakeovers == 0
		return g
	}
	g.BreakerEngaged = true
	var gate, top *SLOPoint
	for i := range r.Points {
		p := &r.Points[i]
		if p.Mult >= 2 && gate == nil {
			gate = p
		}
		if top == nil || p.Mult > top.Mult {
			top = p
		}
	}
	if gate != nil {
		g.GoodputOK = r.Capacity > 0 && gate.Goodput >= 0.8*r.Capacity
		g.P99Bounded = gate.P99 > 0 && gate.P99 <= 2*r.Deadline
	}
	if top != nil && top.Mult >= 2 {
		g.ShedEngaged = top.TotalShed > 0
	}
	return g
}

// Ok reports whether every gate passed.
func (g SLOGates) Ok() bool {
	return g.ZeroViolations && g.ZeroLostAcks && g.GoodputOK && g.P99Bounded && g.ShedEngaged && g.BreakerEngaged
}

// --- run state -------------------------------------------------------

type pointTally struct {
	offered, clientDrops atomic.Uint64
	acked, good          atomic.Uint64

	mu   sync.Mutex
	hist *telemetry.Hist
}

func newPointTally() *pointTally { return &pointTally{hist: new(telemetry.Hist)} }

func (t *pointTally) observe(d time.Duration) {
	t.mu.Lock()
	t.hist.Observe(d)
	t.mu.Unlock()
}

type sloRun struct {
	*chaos.PodTarget // the pod, its processes, the store, adopted orphans

	cfg SLOConfig
	srv *Server
	orc *chaos.Oracle
	inj *crash.Injector

	issuers []*sloIssuer
	gates   chaos.Gates
}

// sloIssuer is one client connection: the shared oracle-checked issuer
// plus the connection's request pool (sloMaxInFlight is its
// concurrency limit).
type sloIssuer struct {
	*Issuer
	pool chan *Request
}

// build constructs the pod, store, oracle, and issuers. inj may be nil
// (the fault-free sweep).
func buildSLORun(cfg SLOConfig, inj *crash.Injector) (*sloRun, error) {
	// Headroom matters: MemPressure is the mapped-slab high-water
	// fraction, so the steady-state working set (keys x codec value
	// sizes) must sit well under the soft watermark or the server sheds
	// writes even when healthy. 512 codec keys need about 15 large
	// slabs, but the high-water a run reaches is set by what is in
	// flight on top of them — values retired and not yet past their
	// epochs, blocks stranded by remote frees — and that grows with the
	// service rate: half a second at capacity maps 47-52 large slabs at
	// 280 k ops/s and 52-59 at 320 k. 128 keeps that under ~0.5, and
	// capacityPhase fails the run outright if a faster service ever
	// outgrows it, rather than let every later phase shed writes.
	target, err := chaos.NewPodTarget(cfg.Threads, cfg.Procs, cfg.Keys, 256, 128, inj)
	if err != nil {
		return nil, err
	}
	r := &sloRun{
		cfg: cfg, PodTarget: target, inj: inj,
		orc: chaos.NewOracle(cfg.Keys),
	}

	// YCSB-shaped key popularity: zipfian over the whole keyspace for
	// reads and over the issuer's own partition (keys congruent to its
	// id) for writes.
	keysPer := cfg.Keys / cfg.Clients
	for i := 0; i < cfg.Clients; i++ {
		rng := xrand.New(xrand.Mix(cfg.Seed) ^ xrand.Mix(uint64(i)+0x51))
		zipfAll := xrand.NewZipf(rng, uint64(cfg.Keys), 0.99)
		zipfOwn := xrand.NewZipf(rng, uint64(keysPer), 0.99)
		is := &sloIssuer{
			// startServer installs the Client: slochaos starts two servers.
			Issuer: NewIssuer(nil, r.orc, &r.gates, sloDeadline, rng,
				func() int { return int(zipfAll.NextScrambled()) },
				func() int { return int(zipfOwn.NextScrambled())*cfg.Clients + i }),
			pool: make(chan *Request, sloMaxInFlight),
		}
		for j := 0; j < sloMaxInFlight; j++ {
			is.pool <- NewRequest()
		}
		r.issuers = append(r.issuers, is)
	}
	return r, nil
}

// startServer builds and starts the front end over the run's pod.
func (r *sloRun) startServer() {
	groups := make([][]int, r.cfg.Procs)
	for tid := 0; tid < r.cfg.Threads; tid++ {
		g := tid % r.cfg.Procs
		groups[g] = append(groups[g], tid)
	}
	r.srv = New(Config{
		Pod:       r.Pod,
		Store:     r.Store,
		Groups:    groups,
		QueueCap:  sloQueueCap,
		DecodeVer: chaos.DecodeVal,
	})
	for i, is := range r.issuers {
		is.Client = NewClient(r.srv, r.cfg.Seed^uint64(i)*0xa0761d6478bd642f)
	}
}

// settle finalizes one response against the oracle and folds an
// acknowledgement's latency into the point's tally.
func (r *sloRun) settle(is *sloIssuer, req *Request, fired time.Time, resp *Response, t *pointTally) {
	if is.Finalize(req, resp) != Acked {
		return
	}
	lat := resp.DoneWall.Sub(fired)
	t.observe(lat)
	t.acked.Add(1)
	if lat <= sloDeadline {
		t.good.Add(1)
	}
}

// closedLoop drives every issuer back-to-back for the window (the
// capacity phase). Each issuer runs several lanes so the pool of
// outstanding requests comfortably saturates the workers — capacity
// must be the service's real ceiling, or the sweep's "2x" point is not
// actually overload.
func (r *sloRun) closedLoop(window time.Duration) *pointTally {
	t := newPointTally()
	const lanes = min(8, sloMaxInFlight)
	deadline := time.Now().Add(window)
	var wg sync.WaitGroup
	for _, is := range r.issuers {
		for l := 0; l < lanes; l++ {
			wg.Add(1)
			go func(is *sloIssuer) {
				defer wg.Done()
				req := <-is.pool
				for time.Now().Before(deadline) {
					is.Prepare(req)
					t.offered.Add(1)
					fired := time.Now()
					r.settle(is, req, fired, is.Client.Do(req), t)
				}
				is.pool <- req
			}(is)
		}
	}
	wg.Wait()
	return t
}

// capacityPhase measures 1x: the closed loop's acked rate, and the pod
// clock's wall rate under it (the calibration every tick-denominated
// quantity later in the run is sized from). It fails the run when the
// phase acked nothing, and when the harness pod turned out too small for
// the rate it measured: MemPressure only ever rises, so a capacity burst
// that reaches the soft watermark has every later phase shedding writes,
// and the run would report the pod's size, not the service's behaviour.
func (r *sloRun) capacityPhase(rep *SLOReport) error {
	heap := r.Pod.Heap()
	c0, t0 := heap.ClockNow(0), time.Now()
	capT := r.closedLoop(r.cfg.Window)
	c1, t1 := heap.ClockNow(0), time.Now()
	if wall := t1.Sub(t0).Seconds(); wall > 0 {
		rep.Capacity = float64(capT.acked.Load()) / wall
		rep.TickRate = float64(c1-c0) / wall
	}
	if rep.Capacity == 0 {
		r.audit(rep)
		return fmt.Errorf("server: capacity phase acked nothing")
	}
	if p, soft := heap.MemPressure(0), softWatermark; p >= soft {
		r.audit(rep)
		return fmt.Errorf("server: harness pod too small for %.0f ops/sec: memory pressure %.2f after the capacity phase is at the soft watermark (%.2f); raise MaxLargeSlabs in buildSLORun", rep.Capacity, p, soft)
	}
	return nil
}

// openLoop offers rate ops/sec for the window: arrivals are paced by a
// seeded Poisson process per issuer, independent of response latency —
// the load does not slow down because the service did. Each issuer owns
// sloMaxInFlight persistent lanes (its connection limit); an arrival that
// finds every lane busy and the fire buffer full is a client-side
// drop, counted against goodput like any other failure. The pacer
// wakes on a coarse quantum and fires everything due, so pacing costs
// a bounded number of wakeups rather than one per arrival.
func (r *sloRun) openLoop(rate float64, window time.Duration, salt uint64) (*pointTally, time.Duration) {
	t := newPointTally()
	per := rate / float64(len(r.issuers))
	start := time.Now()
	stop := start.Add(window)
	var wg sync.WaitGroup
	for i, is := range r.issuers {
		fire := make(chan time.Time, sloMaxInFlight)
		var lanes sync.WaitGroup
		for l := 0; l < sloMaxInFlight; l++ {
			lanes.Add(1)
			go func() {
				defer lanes.Done()
				req := <-is.pool
				for fired := range fire {
					is.Prepare(req)
					r.settle(is, req, fired, is.Client.Do(req), t)
				}
				is.pool <- req
			}()
		}
		wg.Add(1)
		go func(i int, is *sloIssuer, fire chan time.Time) {
			defer wg.Done()
			arr := workload.NewArrivals(xrand.Mix(r.cfg.Seed^salt)+uint64(i), per)
			next := time.Now()
			for {
				now := time.Now()
				if now.After(stop) {
					break
				}
				for !next.After(now) {
					next = next.Add(arr.Next())
					t.offered.Add(1)
					select {
					case fire <- now:
					default:
						t.clientDrops.Add(1)
					}
				}
				sleep := next.Sub(now)
				if sleep > time.Millisecond {
					sleep = time.Millisecond
				} else if sleep < 50*time.Microsecond {
					sleep = 50 * time.Microsecond
				}
				time.Sleep(sleep)
			}
			close(fire)
			lanes.Wait()
		}(i, is, fire)
	}
	wg.Wait()
	return t, time.Since(start)
}

func (r *sloRun) retriesNow() uint64 {
	var n uint64
	for _, is := range r.issuers {
		n += is.Client.Retries()
	}
	return n
}

func totalShed(s telemetry.ServerStats) uint64 {
	return s.ShedQueueFull + s.ShedCoDel + s.ShedDeadline + s.ShedWrite + s.ShedPodFull + s.ShedBreaker
}

// summarize folds a tally plus the stat deltas into a point.
func (r *sloRun) summarize(mult, rate float64, t *pointTally, elapsed time.Duration, s0 telemetry.ServerStats, r0 uint64) SLOPoint {
	sd := statsDelta(r.srv.Stats(), s0)
	p := SLOPoint{
		Mult:        mult,
		TargetRate:  rate,
		Elapsed:     elapsed,
		Offered:     t.offered.Load(),
		ClientDrops: t.clientDrops.Load(),
		Acked:       t.acked.Load(),
		Good:        t.good.Load(),
		Server:      sd,
		Retries:     r.retriesNow() - r0,
		TotalShed:   totalShed(sd),
	}
	if elapsed > 0 {
		p.Goodput = float64(p.Good) / elapsed.Seconds()
	}
	t.mu.Lock()
	p.P50 = time.Duration(t.hist.Quantile(0.50))
	p.P99 = time.Duration(t.hist.Quantile(0.99))
	p.P999 = time.Duration(t.hist.Quantile(0.999))
	t.mu.Unlock()
	return p
}

func statsDelta(s, prev telemetry.ServerStats) telemetry.ServerStats {
	full := telemetry.Snapshot{Server: s}.Delta(telemetry.Snapshot{Server: prev})
	return full.Server
}

// audit is the end-of-run authoritative check, the same one livechaos
// runs (chaos.PodTarget.Audit): stop the server, sweep every key
// against the oracle's settled state, tear the store down, and audit
// the heap ledger back to empty.
func (r *sloRun) audit(rep *SLOReport) {
	r.srv.Stop()
	rep.PendingAllocs = r.Audit(&r.gates, r.orc, r.cfg.Keys, r.cfg.Threads)
	rep.Violations, rep.LostAcks = r.gates.Violations(), r.gates.LostAcks()
}

// openSLO is the opening RunSLO and RunSLOChaos share: build the pod and
// issuers (inj nil for the fault-free sweep), start the server, preload
// half the keyspace through it, and measure 1x capacity under the lease
// that never expires. When the capacity phase fails, the report so far
// comes back with the error.
func openSLO(cfg SLOConfig, inj *crash.Injector) (*sloRun, *SLOReport, error) {
	if err := cfg.validate(); err != nil {
		return nil, nil, err
	}
	r, err := buildSLORun(cfg, inj)
	if err != nil {
		return nil, nil, err
	}
	r.startServer()
	if err := Preload(r.srv, r.orc, cfg.Keys/2, cfg.Seed^0x9a7e); err != nil {
		r.srv.Stop()
		return nil, nil, err
	}
	rep := &SLOReport{
		Threads: cfg.Threads, Procs: cfg.Procs, Keys: cfg.Keys, Clients: cfg.Clients,
		Seed: cfg.Seed, Deadline: sloDeadline, Window: cfg.Window,
	}
	return r, rep, r.capacityPhase(rep)
}

// RunSLO executes the fault-free overload sweep.
func RunSLO(cfg SLOConfig) (*SLOReport, error) {
	r, rep, err := openSLO(cfg, nil)
	if err != nil {
		return rep, err
	}
	cfg = r.cfg
	r.srv.SetTickRate(rep.TickRate)

	// Open-loop sweep.
	for pi, mult := range cfg.Rates {
		rate := mult * rep.Capacity
		s0, r0 := r.srv.Stats(), r.retriesNow()
		t, elapsed := r.openLoop(rate, cfg.Window, uint64(pi)+0x510)
		rep.Points = append(rep.Points, r.summarize(mult, rate, t, elapsed, s0, r0))
	}

	r.audit(rep)
	return rep, nil
}

// FormatSLOReport renders a human-readable summary.
func FormatSLOReport(r *SLOReport, isChaos bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "slo: threads=%d procs=%d keys=%d clients=%d seed=%d deadline=%v window=%v\n",
		r.Threads, r.Procs, r.Keys, r.Clients, r.Seed, r.Deadline, r.Window)
	fmt.Fprintf(&b, "  capacity %.0f ops/sec (closed loop), pod clock %.0f ticks/sec\n", r.Capacity, r.TickRate)
	row := func(tag string, p *SLOPoint) {
		fmt.Fprintf(&b, "  %-6s offered %8.0f/s  goodput %8.0f/s  p50 %8v  p99 %8v  p999 %8v\n",
			tag, p.TargetRate, p.Goodput, p.P50.Round(time.Microsecond), p.P99.Round(time.Microsecond), p.P999.Round(time.Microsecond))
		s := p.Server
		fmt.Fprintf(&b, "         shed %d (queue %d, codel %d, deadline %d, write %d, podfull %d, breaker %d)  retries %d  drops %d\n",
			p.TotalShed, s.ShedQueueFull, s.ShedCoDel, s.ShedDeadline, s.ShedWrite, s.ShedPodFull, s.ShedBreaker, p.Retries, p.ClientDrops)
		if s.BreakerOpens > 0 || s.WorkerCrashes > 0 {
			fmt.Fprintf(&b, "         breaker opens %d, reroutes %d, worker crashes %d, crash resolves %d\n",
				s.BreakerOpens, s.BreakerReroutes, s.WorkerCrashes, s.CrashResolves)
		}
	}
	for i := range r.Points {
		p := &r.Points[i]
		row(fmt.Sprintf("%.2gx", p.Mult), p)
	}
	if r.ChaosPoint != nil {
		row("chaos", r.ChaosPoint)
		fmt.Fprintf(&b, "  faults: %d thread kills, %d proc kills, false takeovers %d\n", r.Kills, r.ProcKills, r.FalseTakeovers)
	}
	if r.PendingAllocs > 0 {
		fmt.Fprintf(&b, "  pending allocs adopted from repairs: %d\n", r.PendingAllocs)
	}
	g := r.Gates(isChaos)
	fmt.Fprintf(&b, "  gates: violations=%d lostAcks=%d goodputOK=%v p99Bounded=%v shedEngaged=%v breakerEngaged=%v => ok=%v\n",
		len(r.Violations), len(r.LostAcks), g.GoodputOK, g.P99Bounded, g.ShedEngaged, g.BreakerEngaged, g.Ok())
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  VIOLATION: %s\n", v)
	}
	for _, v := range r.LostAcks {
		fmt.Fprintf(&b, "  LOST ACK: %s\n", v)
	}
	return b.String()
}
