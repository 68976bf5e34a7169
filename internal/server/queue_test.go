package server

import (
	"errors"
	"testing"
	"time"
)

// qreq builds a queued-looking request with explicit stamps, bypassing
// Submit (the queue reads no clock: popBatch is handed now).
func qreq(arrive time.Time, deadline time.Time) *Request {
	r := NewRequest()
	r.arriveWall = arrive
	r.deadlineWall = deadline
	return r
}

// pop1 takes one request, as a worker with a batch of one would.
func pop1(q *queue, now time.Time) (*Request, []shedReq) {
	b, sheds := q.popBatch(now, make([]*Request, 0, 1))
	if len(b) == 0 {
		return nil, sheds
	}
	return b[0], sheds
}

func TestQueueBoundedEvictsOldest(t *testing.T) {
	q := newQueue(3, 100, time.Second, time.Second)
	now := time.Now()
	far := now.Add(time.Hour)
	a, b, c, d := qreq(now, far), qreq(now, far), qreq(now, far), qreq(now, far)
	for _, r := range []*Request{a, b, c} {
		if ev := q.push(r); ev != nil {
			t.Fatalf("premature eviction at depth %d", q.len())
		}
	}
	if ev := q.push(d); ev != a {
		t.Fatalf("push beyond capacity evicted %p, want oldest %p", ev, a)
	}
	if q.len() != 3 {
		t.Fatalf("len = %d after eviction, want 3", q.len())
	}
}

func TestQueueFIFOBelowThresholdLIFOAbove(t *testing.T) {
	q := newQueue(16, 3, time.Second, time.Second)
	now := time.Now()
	far := now.Add(time.Hour)
	a, b := qreq(now, far), qreq(now, far)
	q.push(a)
	q.push(b)
	if got, _ := pop1(q, now); got != a {
		t.Fatalf("healthy queue served %p, want FIFO head %p", got, a)
	}
	q.drain()
	reqs := []*Request{qreq(now, far), qreq(now, far), qreq(now, far), qreq(now, far)}
	for _, r := range reqs {
		q.push(r)
	}
	// Depth 4 >= lifoAt 3: newest-first.
	if got, _ := pop1(q, now); got != reqs[3] {
		t.Fatalf("overloaded queue served %v, want LIFO tail", got)
	}
	// Depth 3 >= 3: still LIFO.
	if got, _ := pop1(q, now); got != reqs[2] {
		t.Fatalf("overloaded queue served %v, want LIFO tail", got)
	}
	// Depth 2 < 3: back to FIFO.
	if got, _ := pop1(q, now); got != reqs[0] {
		t.Fatalf("recovered queue served %v, want FIFO head", got)
	}
}

func TestQueuePopShedsExpired(t *testing.T) {
	q := newQueue(16, 100, time.Second, time.Second)
	now := time.Now()
	dead := qreq(now.Add(-2*time.Millisecond), now.Add(-time.Millisecond))
	live := qreq(now, now.Add(time.Hour))
	q.push(dead)
	q.push(live)
	got, sheds := pop1(q, now)
	if got != live {
		t.Fatalf("pop returned %v, want the live request", got)
	}
	if len(sheds) != 1 || sheds[0].req != dead || !errors.Is(sheds[0].err, ErrDeadlineExceeded) {
		t.Fatalf("sheds = %+v, want the expired request with ErrDeadlineExceeded", sheds)
	}
}

func TestQueueCoDelShedsAfterSustainedDelay(t *testing.T) {
	target, interval := time.Millisecond, 10*time.Millisecond
	q := newQueue(64, 100, target, interval)
	base := time.Now()
	far := base.Add(time.Hour)
	old := func() *Request { return qreq(base, far) } // sojourn grows with "now"

	// First above-target dequeue starts the grace interval but serves.
	q.push(old())
	now := base.Add(2 * target)
	if got, sheds := pop1(q, now); got == nil || len(sheds) != 0 {
		t.Fatalf("first above-target pop must serve, got %v/%v", got, sheds)
	}
	// Still inside the interval: serve.
	q.push(old())
	if got, sheds := pop1(q, now.Add(interval/2)); got == nil || len(sheds) != 0 {
		t.Fatalf("pop inside grace interval must serve, got %v/%v", got, sheds)
	}
	// A full interval above target: shed until sojourn back under.
	fresh := qreq(base.Add(2*interval), far) // sojourn under target at pop time
	q.push(old())
	q.push(old())
	q.push(fresh)
	got, sheds := pop1(q, base.Add(2*interval))
	if got != fresh {
		t.Fatalf("CoDel pop served %v, want the fresh request", got)
	}
	if len(sheds) != 2 {
		t.Fatalf("CoDel shed %d requests, want 2", len(sheds))
	}
	for _, sd := range sheds {
		if !errors.Is(sd.err, ErrCoDel) {
			t.Fatalf("CoDel shed error = %v, want ErrCoDel", sd.err)
		}
	}
	// Under-target dequeue resets the detector.
	q.push(qreq(base.Add(2*interval), far))
	if got, sheds := pop1(q, base.Add(2*interval)); got == nil || len(sheds) != 0 {
		t.Fatalf("post-recovery pop must serve, got %v/%v", got, sheds)
	}
}

func TestBreakerDerivedState(t *testing.T) {
	var b breaker
	b.workerUp()
	b.workerUp()
	if b.open() {
		t.Fatal("breaker open with two serving workers")
	}
	if b.workerDown() {
		t.Fatal("workerDown reported dark with one worker left")
	}
	if !b.workerDown() {
		t.Fatal("last workerDown must report the group dark")
	}
	if !b.open() || b.opens.Load() != 1 {
		t.Fatalf("open=%v opens=%d, want open with 1 recorded open", b.open(), b.opens.Load())
	}
	if !b.workerUp() {
		t.Fatal("first workerUp after dark must report the breaker closed")
	}
	if b.open() {
		t.Fatal("breaker still open after repair")
	}
}
