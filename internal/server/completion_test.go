package server

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// parkedWait starts a Wait on a goroutine of its own and returns once it
// has parked on r's word; the response arrives on the channel.
func parkedWait(t *testing.T, r *Request) <-chan *Response {
	t.Helper()
	got := make(chan *Response, 1)
	go func() { got <- r.Wait() }()
	waitUntil(t, "Wait has parked", func() bool { return r.state.Load() == reqWaiting })
	return got
}

func TestCompletionAnswerBeforeWait(t *testing.T) {
	r := NewRequest()
	stamp := now()
	r.finish(ErrQueueFull, stamp)
	if !answered(r) {
		t.Fatal("finish left no answer")
	}
	resp := r.Wait()
	if !errors.Is(resp.Err, ErrQueueFull) || !resp.DoneWall.Equal(stamp) {
		t.Fatalf("Wait = %v at %v, want ErrQueueFull at %v", resp.Err, resp.DoneWall, stamp)
	}
	answeredOnce(t, r)
}

func TestCompletionWaitBeforeAnswer(t *testing.T) {
	r := NewRequest()
	got := parkedWait(t, r)
	r.finish(nil, now())
	if resp := <-got; resp.Err != nil {
		t.Fatalf("Wait = %v, want the nil answer", resp.Err)
	}
	answeredOnce(t, r)
}

// A router rejects from a goroutine of its own while the caller's Wait is
// already parked: the rejection must wake it, and only once.
func TestCompletionRejectWakesParkedWait(t *testing.T) {
	r := putReq("k", "v")
	got := parkedWait(t, r)
	go Reject(r, ErrBreakerOpen)
	select {
	case resp := <-got:
		if !errors.Is(resp.Err, ErrBreakerOpen) {
			t.Fatalf("Wait = %v, want ErrBreakerOpen", resp.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("a Reject did not wake the parked Wait")
	}
	if r.deadlineWall.IsZero() {
		t.Fatal("Reject did not stamp the request")
	}
	answeredOnce(t, r)
}

func TestCompletionSecondAnswerPanics(t *testing.T) {
	r := NewRequest()
	r.finish(nil, now())
	defer func() {
		if p := recover(); p == nil || fmt.Sprint(p) != "server: request answered twice" {
			t.Fatalf("second finish before a Wait: recovered %v, want the double-answer panic", p)
		}
	}()
	r.finish(ErrStopped, now())
}

// One request reused for 10⁵ rounds, each answered from another goroutine
// racing the caller's Wait (so both orders occur), half of them through
// Reject: every Wait returns its own round's answer, and nothing is left
// over for the next. Run under -race, this is the completion word's
// happens-before check: the response fields written before the publish
// are the ones Wait reads.
func TestCompletionReusedRequestRounds(t *testing.T) {
	const rounds = 100_000
	r := NewRequest()
	ready := make(chan int)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range ready {
			if i%2 == 0 {
				r.resp.Found = true
				r.finish(nil, clockBase.Add(time.Duration(i)))
			} else {
				Reject(r, ErrDeadlineExceeded)
			}
		}
	}()
	for i := 0; i < rounds; i++ {
		r.Reset()
		ready <- i
		resp := r.Wait()
		if i%2 == 0 {
			if resp.Err != nil || !resp.Found || resp.DoneWall.Sub(clockBase) != time.Duration(i) {
				t.Fatalf("round %d: err=%v found=%v done=%v: not this round's answer", i, resp.Err, resp.Found, resp.DoneWall.Sub(clockBase))
			}
		} else if !errors.Is(resp.Err, ErrDeadlineExceeded) || resp.Found {
			t.Fatalf("round %d: err=%v found=%v, want this round's rejection", i, resp.Err, resp.Found)
		}
		if answered(r) {
			t.Fatalf("round %d: a second answer is waiting", i)
		}
	}
	close(ready)
	wg.Wait()
}

// Dispatch allocates nothing per request: a pipelined window of gets
// through Submit and Wait costs no Go allocation at all, and a window of
// replacing puts only the store's own — one index node each, which the
// store keeps in Go memory by design, and the epoch reclaimer's
// amortized list growth (about 1.06 a put all told). One more allocation
// per request on the dispatch path puts the puts past 1.5 each.
func TestDispatchAllocsPerRequest(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	f := newTestFixture(t)
	const window, nKeys = 64, 16
	keys := make([][]byte, nKeys)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%02d", i))
		if resp := f.do(putReq(string(keys[i]), "value")); resp.Err != nil {
			t.Fatalf("preload: %v", resp.Err)
		}
	}
	ring := make([]*Request, window)
	for i := range ring {
		ring[i] = NewRequest()
	}
	val := []byte("a value of a few dozen bytes, as a cache entry might be")
	pipeline := func(op OpKind) func() {
		return func() {
			for i, r := range ring {
				r.Reset()
				r.Op, r.Key, r.Val = op, keys[i%nKeys], val
				f.srv.Submit(r)
			}
			for _, r := range ring {
				if resp := r.Wait(); resp.Err != nil || (op == OpGet && !resp.Found) {
					t.Fatalf("op %d on %q: err=%v found=%v", op, r.Key, resp.Err, resp.Found)
				}
			}
		}
	}
	pipeline(OpGet)() // warm the Dst buffers
	if n := testing.AllocsPerRun(20, pipeline(OpGet)); n != 0 {
		t.Errorf("a window of %d gets allocated %.0f times, want 0", window, n)
	}
	if n := testing.AllocsPerRun(20, pipeline(OpPut)); n > window*3/2 {
		t.Errorf("a window of %d puts allocated %.0f times, want at most %d: the store's own and nothing per dispatch", window, n, window*3/2)
	}
}

// One group has nothing to rotate through: route hands it out while its
// breaker is closed, refuses it while open, and honours except, without
// touching the round-robin cursor.
func TestRouteSingleGroup(t *testing.T) {
	g := &group{}
	s := &Server{groups: []*group{g}}
	g.brk.workerUp()
	if got := s.route(nil); got != g {
		t.Fatalf("route(nil) = %v with the breaker closed, want the group", got)
	}
	if got := s.route(g); got != nil {
		t.Fatalf("route(except the only group) = %v, want nil", got)
	}
	g.brk.workerDown()
	if got := s.route(nil); got != nil {
		t.Fatalf("route(nil) = %v with the breaker open, want nil", got)
	}
	if s.rr.Load() != 0 || s.breakerReroutes.Load() != 0 {
		t.Fatalf("cursor %d, %d reroutes: a one-group route wrote a shared counter", s.rr.Load(), s.breakerReroutes.Load())
	}
}

// The per-worker and per-thread counters add up exactly: after two
// callers' concurrent traffic over one group of two workers, Executed is
// every request the callers saw executed, and the store's Hits and
// Misses are their found and not-found gets.
func TestCountersMatchCallers(t *testing.T) {
	r := newTestRun(t, nil)
	srv := New(Config{Pod: r.Pod, Store: r.Store, Groups: [][]int{{0, 2}}})
	t.Cleanup(srv.Stop)
	const callers, perCaller, window = 2, 4000, 32
	st0, kv0 := srv.Stats(), r.Store.Stats()

	type counts struct{ executed, hits, misses uint64 }
	got := make([]counts, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			n := &got[c]
			ring := make([]*Request, window)
			for i := range ring {
				ring[i] = NewRequest()
			}
			val := []byte("value")
			collect := func(q *Request) {
				resp := q.Wait()
				if resp.Err != nil {
					return
				}
				n.executed++
				if q.Op == OpGet {
					if resp.Found {
						n.hits++
					} else {
						n.misses++
					}
				}
			}
			for i := 0; i < perCaller; i++ {
				q := ring[i%window]
				if i >= window {
					collect(q)
				}
				q.Reset()
				// Caller c writes its own eight keys and reads all sixteen, some
				// before their first write: hits and misses both occur.
				q.Op, q.Key = OpGet, []byte(fmt.Sprintf("c%d-%d", (i/3)%callers, i%8))
				if i%3 == 0 {
					q.Op, q.Key, q.Val = OpPut, []byte(fmt.Sprintf("c%d-%d", c, i%8)), val
				}
				srv.Submit(q)
			}
			for i := max(0, perCaller-window); i < perCaller; i++ {
				collect(ring[i%window])
			}
		}(c)
	}
	wg.Wait()

	var want counts
	for _, n := range got {
		want.executed += n.executed
		want.hits += n.hits
		want.misses += n.misses
	}
	if want.misses == 0 || want.hits == 0 {
		t.Fatalf("traffic had %d hits and %d misses: it tests nothing", want.hits, want.misses)
	}
	st, kv := srv.Stats(), r.Store.Stats()
	if d := st.Executed - st0.Executed; d != want.executed {
		t.Errorf("Stats().Executed moved by %d, callers saw %d executed", d, want.executed)
	}
	if d := kv.Hits - kv0.Hits; d != want.hits {
		t.Errorf("store Hits moved by %d, callers saw %d found gets", d, want.hits)
	}
	if d := kv.Misses - kv0.Misses; d != want.misses {
		t.Errorf("store Misses moved by %d, callers saw %d missed gets", d, want.misses)
	}
}
