package server

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cxlalloc"
	"cxlalloc/internal/crash"
)

// stretchIdlePeriod makes the sampler's kicks so rare that, for the
// length of a test, only a push or Stop can wake a parked worker. Call it
// before the server is built: the restore then runs after the server's
// own clean-up has stopped the sampler.
func stretchIdlePeriod(t *testing.T) {
	t.Helper()
	old := idlePeriod
	idlePeriod = 10 * time.Second
	t.Cleanup(func() { idlePeriod = old })
}

// hold is one half of a barrier: while shut, every worker that reaches it
// waits, and is counted.
type hold struct {
	mu   sync.Mutex
	ch   chan struct{} // nil: open
	held atomic.Int32  // workers that have had to wait, ever
}

func (h *hold) wait() {
	h.mu.Lock()
	ch := h.ch
	h.mu.Unlock()
	if ch != nil {
		h.held.Add(1)
		<-ch
	}
}

func (h *hold) shut() {
	h.mu.Lock()
	h.ch = make(chan struct{})
	h.mu.Unlock()
}

// pass lets exactly one waiting worker through; the hold stays shut.
func (h *hold) pass() { h.ch <- struct{}{} }

func (h *hold) open() {
	h.mu.Lock()
	ch := h.ch
	h.ch = nil
	h.mu.Unlock()
	close(ch)
}

// barrier is a Gate that stops workers on their way into an op, gets and
// puts separately, so a test can stage which worker holds what.
type barrier struct{ gets, puts hold }

func (b *barrier) gate(r *Request) (func(), error) {
	if r.Op == OpGet {
		b.gets.wait()
	} else {
		b.puts.wait()
	}
	return nil, nil
}

// dispatchFixture is a 4-thread pod served as two groups of two workers.
type dispatchFixture struct {
	srv *Server
	bar *barrier
}

func newDispatchFixture(t *testing.T, inj *crash.Injector, gated bool) *dispatchFixture {
	t.Helper()
	r := newTestRun(t, inj)
	f := &dispatchFixture{}
	sc := Config{Pod: r.Pod, Store: r.Store, Groups: testGroups}
	if gated {
		f.bar = &barrier{}
		sc.Gate = f.bar.gate
	}
	f.srv = New(sc)
	t.Cleanup(f.srv.Stop)
	return f
}

func (f *dispatchFixture) do(r *Request) *Response {
	f.srv.Submit(r)
	return r.Wait()
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func (f *dispatchFixture) parked() int {
	n := 0
	for _, g := range f.srv.groups {
		n += int(g.parked.Load())
	}
	return n
}

// holdEveryWorker leaves each of the four workers inside the gate with a
// private batch of exactly one request, a get of a key that is not there:
// one push wakes one parked worker, so feeding the plugs one at a time
// hands one to each.
func (f *dispatchFixture) holdEveryWorker(t *testing.T) []*Request {
	t.Helper()
	waitUntil(t, "all four workers have parked", func() bool { return f.parked() == 4 })
	f.bar.gets.shut()
	plugs := make([]*Request, 4)
	for i := range plugs {
		plugs[i] = getReq("no-such-key")
		f.srv.Submit(plugs[i])
		waitUntil(t, fmt.Sprintf("%d workers sit in the gate", i+1), func() bool { return int(f.bar.gets.held.Load()) == i+1 })
	}
	return plugs
}

// answeredOnce fails the test if r has a second response waiting.
func answeredOnce(t *testing.T, r *Request) {
	t.Helper()
	select {
	case <-r.done:
		t.Errorf("request %q answered twice", r.Key)
	default:
	}
}

// With the sampler's kick ten seconds away, ten thousand one-at-a-time
// round trips against parked workers can only finish in a fraction of
// that if each push woke a worker.
func TestDispatchPushWakesParkedWorker(t *testing.T) {
	stretchIdlePeriod(t)
	f := newDispatchFixture(t, nil, false)
	if resp := f.do(putReq("k", "v")); resp.Err != nil {
		t.Fatalf("put: %v", resp.Err)
	}
	waitUntil(t, "all four workers have parked", func() bool { return f.parked() == 4 })
	const trips = 10000
	start := time.Now()
	r := getReq("k")
	for i := 0; i < trips; i++ {
		r.Reset()
		if resp := f.do(r); resp.Err != nil || !resp.Found {
			t.Fatalf("trip %d: err=%v found=%v", i, resp.Err, resp.Found)
		}
		if el := time.Since(start); el > idlePeriod/4 {
			t.Fatalf("%d round trips took %v with the idle kick %v away: pushes are not waking the workers", i+1, el, idlePeriod)
		}
	}
}

// A worker that dies on the first op of its batch must not take the rest
// of the batch down with it. The lease is infinite, so nothing repairs
// the slot: whatever is answered was answered without the repair.
func TestDispatchDyingWorkerHandsItsBatchBack(t *testing.T) {
	stretchIdlePeriod(t)
	inj := crash.NewInjector()
	f := newDispatchFixture(t, inj, true)
	plugs := f.holdEveryWorker(t)
	f.bar.puts.shut()
	puts := make([]*Request, 40)
	for i := range puts {
		puts[i] = putReq(fmt.Sprintf("key-%02d", i), "value")
		f.srv.Submit(puts[i])
	}
	// One worker finishes its plug, pops eight of the 20 puts queued on
	// its group and stops at the gate with the first. Whoever it is, it
	// dies inside that put: everybody is armed and nobody else is running.
	f.bar.gets.pass()
	waitUntil(t, "one worker holds a batch of puts", func() bool { return f.bar.puts.held.Load() == 1 })
	inj.ArmRandom(1, 1, 0, 1, 2, 3)
	f.bar.puts.pass()
	waitUntil(t, "that worker has died in its put", func() bool { return f.srv.PendingCrashed() == 1 })
	inj.Disarm()
	f.bar.gets.open()
	f.bar.puts.open()
	for _, p := range plugs {
		if resp := p.Wait(); resp.Err != nil || resp.Found {
			t.Fatalf("plug: err=%v found=%v", resp.Err, resp.Found)
		}
	}

	var answered atomic.Int32
	var victim atomic.Pointer[Request]
	var wg sync.WaitGroup
	for _, p := range puts {
		wg.Add(1)
		go func(p *Request) {
			defer wg.Done()
			resp := p.Wait()
			if errors.Is(resp.Err, ErrStopped) {
				if !victim.CompareAndSwap(nil, p) {
					t.Errorf("put %q: a second request waited for the repair", p.Key)
				}
				return
			}
			if resp.Err != nil {
				t.Errorf("put %q: %v", p.Key, resp.Err)
			}
			answered.Add(1)
		}(p)
	}
	// Everything but the write that died is served by the sibling or the
	// other group, while the dead slot stays dead.
	waitUntil(t, "39 of 40 puts are acknowledged", func() bool { return answered.Load() == 39 })
	if st := f.srv.Stats(); st.WorkerCrashes != 1 || st.Executed != 4+39 {
		t.Errorf("stats: %d worker crashes, %d executed; want 1 and 43", st.WorkerCrashes, st.Executed)
	}
	// The dead write's fate is unknown until a repair; Stop says so.
	f.srv.Stop()
	wg.Wait()
	if victim.Load() == nil {
		t.Fatal("no put was left to the crashed worker")
	}
	for _, p := range puts {
		answeredOnce(t, p)
	}
}

// Stop with private batches outstanding: each worker finishes the op it
// is in and answers the rest of its batch ErrStopped; the queues follow.
func TestDispatchStopAnswersPrivateBatches(t *testing.T) {
	stretchIdlePeriod(t)
	f := newDispatchFixture(t, nil, true)
	plugs := f.holdEveryWorker(t)
	puts := make([]*Request, 40)
	for i := range puts {
		puts[i] = putReq(fmt.Sprintf("key-%02d", i), "value")
		f.srv.Submit(puts[i])
	}
	// Let the plugs through and hold the workers again on the first put
	// of the batches they pop next: 8 requests each, 4 left per queue.
	f.bar.puts.shut()
	f.bar.gets.open()
	for _, p := range plugs {
		p.Wait()
	}
	waitUntil(t, "every worker holds a batch", func() bool { return f.bar.puts.held.Load() == 4 })
	for _, g := range f.srv.groups {
		if n := g.q.len(); n != 20-2*batchMax {
			t.Fatalf("group %d: %d requests still queued, want %d", g.id, n, 20-2*batchMax)
		}
	}

	stopped := make(chan struct{})
	go func() {
		f.srv.Stop()
		close(stopped)
	}()
	waitUntil(t, "Stop has begun", f.srv.stopped.Load)
	f.bar.puts.open()
	<-stopped

	done, refused := 0, 0
	for _, p := range puts {
		select {
		case <-p.done:
		default:
			t.Fatalf("put %q: no answer after Stop returned", p.Key)
		}
		switch {
		case p.resp.Err == nil:
			done++
		case errors.Is(p.resp.Err, ErrStopped):
			refused++
		default:
			t.Errorf("put %q: %v", p.Key, p.resp.Err)
		}
		answeredOnce(t, p)
	}
	if done != 4 || refused != 36 {
		t.Errorf("%d puts executed and %d answered ErrStopped; want the 4 in flight and the other 36", done, refused)
	}
}

// A worker that dies when there is no traffic left is repaired on the
// lease's wall-clock target, not on the idle tick: with a tick rate
// installed the sampler makes up, through the idle workers, the ticks the
// pod clock falls short of it. One tick per worker per kick against this
// 50 000-tick lease would take about fifteen seconds.
func TestDispatchIdleServerRepairsOnTheLeaseWallTarget(t *testing.T) {
	const (
		tickRate  = 200_000 // ticks/second the lease is sized from
		leaseWall = 250 * time.Millisecond
	)
	inj := crash.NewInjector()
	r := newTestRun(t, inj)
	leaseTicks := uint64(tickRate * leaseWall.Seconds())
	r.Pod.RetuneLiveness(cxlalloc.LivenessConfig{RenewInterval: leaseTicks / 6, GraceMult: 6, PollInterval: 4})
	for _, tids := range testGroups {
		for _, tid := range tids {
			th, err := r.Pod.ThreadOf(tid)
			if err != nil {
				t.Fatalf("ThreadOf(%d): %v", tid, err)
			}
			th.Run(func() {}) // one renewal under the finite lease
		}
	}
	srv := New(Config{Pod: r.Pod, Store: r.Store, Groups: testGroups})
	t.Cleanup(srv.Stop)
	srv.SetTickRate(tickRate)

	// The worker that takes this put dies inside it, holding the write.
	inj.ArmRandom(1, 1, 0, 1, 2, 3)
	put := putReq("key", "value")
	srv.Submit(put)
	waitUntil(t, "a worker has died in the put", func() bool { return srv.PendingCrashed() == 1 })
	inj.Disarm()
	died := time.Now()

	answered := make(chan *Response, 1)
	go func() { answered <- put.Wait() }()
	select {
	case resp := <-answered:
		if !errors.Is(resp.Err, ErrCrashed) {
			t.Fatalf("put: %v, want ErrCrashed", resp.Err)
		}
		t.Logf("slot repaired and write resolved %v after the crash (lease %v)", time.Since(died), leaseWall)
	case <-time.After(12 * leaseWall):
		t.Fatalf("crashed write unresolved %v after the crash: the idle pod is not keeping its clock at the calibrated rate", 12*leaseWall)
	}
	if n := r.Pod.FalseTakeovers(); n != 0 {
		t.Errorf("%d false takeovers", n)
	}
}
