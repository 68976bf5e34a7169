package server

import (
	"bytes"
	"errors"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"cxlalloc/internal/chaos"
	"cxlalloc/internal/crash"
)

// testFixture builds a small pod+store and a server with an overridable
// pressure source.
type testFixture struct {
	run      *sloRun
	srv      *Server
	pressure atomic.Uint64 // float64 bits
}

// testGroups serves newTestRun's 4-thread pod as two groups of two workers.
var testGroups = [][]int{{0, 2}, {1, 3}}

// newTestRun builds the small pod and store the package's tests and
// benchmarks put a server on.
func newTestRun(tb testing.TB, inj *crash.Injector) *sloRun {
	tb.Helper()
	cfg := DefaultSLOConfig()
	cfg.Threads, cfg.Procs, cfg.Keys, cfg.Clients, cfg.Window = 4, 2, 64, 2, time.Second
	r, err := buildSLORun(cfg, inj)
	if err != nil {
		tb.Fatalf("buildSLORun: %v", err)
	}
	return r
}

func newTestFixture(t *testing.T) *testFixture {
	t.Helper()
	r := newTestRun(t, nil)
	f := &testFixture{run: r}
	f.srv = New(Config{
		Pod:    r.Pod,
		Store:  r.Store,
		Groups: testGroups,
		PressureFn: func() float64 {
			return math.Float64frombits(f.pressure.Load())
		},
		DecodeVer: chaos.DecodeVal,
	})
	t.Cleanup(f.srv.Stop)
	return f
}

func (f *testFixture) setPressure(p float64) {
	f.pressure.Store(math.Float64bits(p))
	for f.srv.Pressure() != p { // until the sampler has observed it
		time.Sleep(100 * time.Microsecond)
	}
}

func (f *testFixture) do(r *Request) *Response {
	f.srv.Submit(r)
	return r.Wait()
}

func putReq(key, val string) *Request {
	r := NewRequest()
	r.Op = OpPut
	r.Key = []byte(key)
	r.Val = []byte(val)
	return r
}

func getReq(key string) *Request {
	r := NewRequest()
	r.Op = OpGet
	r.Key = []byte(key)
	return r
}

func delReq(key string) *Request {
	r := NewRequest()
	r.Op = OpDelete
	r.Key = []byte(key)
	return r
}

func TestServerPutGetDeleteRoundTrip(t *testing.T) {
	f := newTestFixture(t)
	if resp := f.do(putReq("alpha", "value-1")); resp.Err != nil {
		t.Fatalf("put: %v", resp.Err)
	}
	resp := f.do(getReq("alpha"))
	if resp.Err != nil || !resp.Found || !bytes.Equal(resp.Value, []byte("value-1")) {
		t.Fatalf("get: err=%v found=%v value=%q", resp.Err, resp.Found, resp.Value)
	}
	if resp := f.do(delReq("alpha")); resp.Err != nil || !resp.Found {
		t.Fatalf("delete: err=%v found=%v", resp.Err, resp.Found)
	}
	if resp := f.do(getReq("alpha")); resp.Err != nil || resp.Found {
		t.Fatalf("get after delete: err=%v found=%v", resp.Err, resp.Found)
	}
}

func TestServerSoftWatermarkShedsWritesServesReads(t *testing.T) {
	f := newTestFixture(t)
	if resp := f.do(putReq("k", "v")); resp.Err != nil {
		t.Fatalf("put below watermark: %v", resp.Err)
	}
	f.setPressure(0.95) // soft <= p < hard
	resp := f.do(putReq("k", "v2"))
	if !errors.Is(resp.Err, ErrWriteShed) {
		t.Fatalf("put at soft watermark: err=%v, want ErrWriteShed", resp.Err)
	}
	if resp := f.do(getReq("k")); resp.Err != nil || !resp.Found || !bytes.Equal(resp.Value, []byte("v")) {
		t.Fatalf("read at soft watermark: err=%v found=%v value=%q, want the pre-shed value", resp.Err, resp.Found, resp.Value)
	}
	if resp := f.do(delReq("k")); !errors.Is(resp.Err, ErrWriteShed) {
		t.Fatalf("delete at soft watermark: err=%v, want ErrWriteShed", resp.Err)
	}
	f.setPressure(0)
	if resp := f.do(putReq("k", "v3")); resp.Err != nil {
		t.Fatalf("put after pressure receded: %v", resp.Err)
	}
	if f.srv.Stats().ShedWrite < 2 {
		t.Fatalf("ShedWrite = %d, want >= 2", f.srv.Stats().ShedWrite)
	}
}

func TestServerHardWatermarkReturnsTypedPodFull(t *testing.T) {
	f := newTestFixture(t)
	f.setPressure(0.99)
	resp := f.do(putReq("k", "v"))
	if !IsPodFull(resp.Err) {
		t.Fatalf("put at hard watermark: err=%v, want ErrPodFull", resp.Err)
	}
	var pf *ErrPodFull
	if !errors.As(resp.Err, &pf) || pf.RetryAfter <= 0 || pf.Pressure < 0.98 {
		t.Fatalf("ErrPodFull = %+v, want positive RetryAfter and the observed pressure", pf)
	}
	// Reads still served even at hard watermark.
	if resp := f.do(getReq("k")); resp.Err != nil {
		t.Fatalf("read at hard watermark: %v", resp.Err)
	}
	if f.srv.Stats().ShedPodFull == 0 {
		t.Fatal("ShedPodFull stayed zero")
	}
}

func TestClientRetriesShedAndStopsAtDeadline(t *testing.T) {
	f := newTestFixture(t)
	f.setPressure(0.95) // every write sheds: retryable forever
	cl := NewClient(f.srv, 7)
	r := putReq("k", "v")
	r.Deadline = 20 * time.Millisecond
	start := time.Now()
	resp := cl.Do(r)
	elapsed := time.Since(start)
	if !errors.Is(resp.Err, ErrWriteShed) {
		t.Fatalf("Do = %v, want the final ErrWriteShed", resp.Err)
	}
	if cl.Retries() == 0 {
		t.Fatal("client never retried a retryable shed")
	}
	// Deadline propagation: retries must not extend past the budget.
	if elapsed > 150*time.Millisecond {
		t.Fatalf("Do ran %v past a 20ms deadline", elapsed)
	}
}

// Deadline propagation through the one stamp Reject and Submit share: a
// request a router rejected and its client resubmitted keeps the
// absolute deadline of its first answer; only its arrival moves.
func TestResubmitAfterRejectKeepsFirstDeadline(t *testing.T) {
	f := newTestFixture(t)
	r := putReq("k", "v")
	r.Deadline = time.Hour
	Reject(r, ErrBreakerOpen)
	r.Wait()
	arrived, deadline := r.arriveWall, r.deadlineWall
	time.Sleep(time.Millisecond)
	if resp := f.do(r); resp.Err != nil {
		t.Fatalf("resubmitted put: %v", resp.Err)
	}
	if !r.deadlineWall.Equal(deadline) {
		t.Fatalf("resubmission moved the deadline from %v to %v", deadline, r.deadlineWall)
	}
	if !r.arriveWall.After(arrived) {
		t.Fatal("resubmission kept the first arrival stamp")
	}
}

func TestClientRetryBudgetBoundsAmplification(t *testing.T) {
	f := newTestFixture(t)
	f.setPressure(0.95)
	cl := NewClient(f.srv, 7)
	cl.BackoffBase = 10 * time.Microsecond
	cl.BackoffMax = 20 * time.Microsecond
	const n = 50
	for i := 0; i < n; i++ {
		r := putReq("k", "v")
		r.Deadline = 5 * time.Millisecond
		cl.Do(r)
	}
	// Budget: initial bank (10) + 20% of volume, so ~20 for 50 requests.
	if got := cl.Retries(); got > n/2 {
		t.Fatalf("retries = %d for %d hopeless requests, budget must bound amplification well below %d", got, n, n)
	}
}

func TestClientDoesNotRetryNonIdempotentCrashedWrite(t *testing.T) {
	// Retryable is the client's whole safety argument; pin it.
	cases := []struct {
		err    error
		isRead bool
		want   bool
	}{
		{nil, false, false},
		{ErrDeadlineExceeded, false, false},
		{ErrStopped, false, false},
		{ErrCrashed, false, false}, // write crashed mid-op: fate unknown, never resubmit
		{ErrCrashed, true, true},   // read crashed: no effect, safe
		{ErrQueueFull, false, true},
		{ErrCoDel, false, true},
		{ErrWriteShed, false, true},
		{ErrBreakerOpen, false, true},
		{&ErrPodFull{Pressure: 0.99, RetryAfter: time.Millisecond}, false, true},
	}
	for _, c := range cases {
		if got := Retryable(c.err, c.isRead); got != c.want {
			t.Errorf("Retryable(%v, read=%v) = %v, want %v", c.err, c.isRead, got, c.want)
		}
	}
}

// A zero field is no longer a default: validate rejects each zero that
// would divide by zero or run for no time.
func TestSLOConfigRejectsZeroes(t *testing.T) {
	for i, zero := range []func(*SLOConfig){
		func(c *SLOConfig) { c.Clients = 0 },
		func(c *SLOConfig) { c.Procs = 0 },
		func(c *SLOConfig) { c.Window = 0 },
		func(c *SLOConfig) { c.FaultEvery = 0 },
		func(c *SLOConfig) { c.LeaseWall = 0 },
		func(c *SLOConfig) { c.Rates = []float64{1, 0} },
	} {
		cfg := DefaultSLOConfig()
		zero(&cfg)
		if cfg.validate() == nil {
			t.Errorf("zeroed field %d validated", i)
		}
	}
	if err := DefaultSLOConfig().validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestRunSLOShortEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("slo sweep in -short mode")
	}
	cfg := DefaultSLOConfig()
	cfg.Window = 250 * time.Millisecond
	cfg.Rates = []float64{1, 4}
	rep, err := RunSLO(cfg)
	if err != nil {
		t.Fatalf("RunSLO: %v", err)
	}
	// Correctness gates only: perf gates need a quiet machine and are
	// enforced by the cxlbench smoke, not the unit suite.
	if len(rep.Violations) != 0 || len(rep.LostAcks) != 0 {
		t.Fatalf("correctness gates failed:\n%s", FormatSLOReport(rep, false))
	}
	if rep.Capacity == 0 || len(rep.Points) != 2 {
		t.Fatalf("report incomplete:\n%s", FormatSLOReport(rep, false))
	}
}

func TestRunSLOChaosShortEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("slochaos run in -short mode")
	}
	cfg := DefaultSLOConfig()
	cfg.Window = 500 * time.Millisecond
	cfg.FaultEvery = 200 * time.Millisecond
	rep, err := RunSLOChaos(cfg)
	if err != nil {
		t.Fatalf("RunSLOChaos: %v", err)
	}
	if len(rep.Violations) != 0 || len(rep.LostAcks) != 0 || rep.FalseTakeovers != 0 {
		t.Fatalf("correctness gates failed:\n%s", FormatSLOReport(rep, true))
	}
	if rep.Kills == 0 {
		t.Fatalf("no faults landed:\n%s", FormatSLOReport(rep, true))
	}
	if rep.Schedule[0].Kind != chaos.FaultProcKill {
		t.Fatalf("schedule starts with a %s, want a %s", rep.Schedule[0].Kind, chaos.FaultProcKill)
	}
	died := 0
	for _, out := range rep.Outcomes {
		died += len(out.Died)
	}
	if rep.Kills != died {
		t.Fatalf("Kills = %d, but the outcomes record %d deaths", rep.Kills, died)
	}
}
