package server

import (
	"sync"
	"time"
)

// queue is one process group's bounded admission queue. Three shedding
// mechanisms compose, each targeting a different overload signature:
//
//   - Bounded capacity: a full queue evicts its *oldest* entry to admit
//     the newcomer. Under sustained overload the oldest request is the
//     one most likely to miss its deadline anyway, so evicting it
//     converts a future deadline miss into an immediate, retryable
//     rejection.
//
//   - Adaptive LIFO: below lifoAt the queue is FIFO (fairness when
//     healthy); at or above it, pop serves newest-first. Under a burst
//     the fresh requests — the ones that can still meet their deadlines
//     — are served, while the backlog drains via deadline/CoDel drops
//     instead of dragging every request's sojourn past its deadline.
//
//   - CoDel-style delay control: if dequeue sojourn stays above target
//     for a full interval, popped requests are shed until sojourn drops
//     back under target. This bounds standing queue delay even when
//     capacity and deadline are individually too loose to.
//
// Deadline expiry is also enforced at pop: an expired request is shed,
// never executed — so an admitted-and-executed request's queueing delay
// is strictly under its deadline, which is what bounds the p99 of
// admitted requests under overload.
type queue struct {
	mu   sync.Mutex
	buf  []*Request
	head int

	capacity int
	lifoAt   int

	target, interval time.Duration
	firstAbove       time.Time // zero: sojourn currently under target
}

func newQueue(capacity, lifoAt int, target, interval time.Duration) *queue {
	return &queue{
		capacity: capacity,
		lifoAt:   lifoAt,
		target:   target,
		interval: interval,
	}
}

func (q *queue) len() int {
	q.mu.Lock()
	n := len(q.buf) - q.head
	q.mu.Unlock()
	return n
}

// push admits r, evicting the oldest entry when full. The evicted
// request (nil if none) is the caller's to reject with ErrQueueFull.
func (q *queue) push(r *Request) (evicted *Request) {
	q.mu.Lock()
	if len(q.buf)-q.head >= q.capacity {
		evicted = q.buf[q.head]
		q.buf[q.head] = nil
		q.head++
	}
	q.buf = append(q.buf, r)
	if q.head > 64 && q.head*2 >= len(q.buf) {
		q.buf = append(q.buf[:0], q.buf[q.head:]...)
		q.head = 0
	}
	q.mu.Unlock()
	return evicted
}

// shedReq is a request the queue dropped at pop, with its reason.
type shedReq struct {
	req *Request
	err error
}

// popBatch moves up to cap(batch) executable requests into batch under
// one lock acquisition and one clock reading, and returns it with the
// requests shed on the way: deadline-expired entries and CoDel drops.
// The batch is empty when the queue is, or when everything in it was
// shed.
func (q *queue) popBatch(now time.Time, batch []*Request) ([]*Request, []shedReq) {
	q.mu.Lock()
	defer q.mu.Unlock()
	var shed []shedReq
	for len(batch) < cap(batch) {
		depth := len(q.buf) - q.head
		if depth == 0 {
			q.firstAbove = time.Time{}
			break
		}
		var r *Request
		if depth >= q.lifoAt {
			r = q.buf[len(q.buf)-1]
			q.buf[len(q.buf)-1] = nil
			q.buf = q.buf[:len(q.buf)-1]
		} else {
			r = q.buf[q.head]
			q.buf[q.head] = nil
			q.head++
		}
		if now.After(r.deadlineWall) {
			shed = append(shed, shedReq{r, ErrDeadlineExceeded})
			continue
		}
		sojourn := now.Sub(r.arriveWall)
		switch {
		case sojourn <= q.target:
			q.firstAbove = time.Time{}
		case q.firstAbove.IsZero():
			// First above-target dequeue: start the grace interval, serve.
			q.firstAbove = now.Add(q.interval)
		case !now.Before(q.firstAbove):
			// Sojourn has stayed above target for a full interval: shed until
			// it comes back under.
			shed = append(shed, shedReq{r, ErrCoDel})
			continue
		}
		batch = append(batch, r)
	}
	return batch, shed
}

// drain removes and returns every queued request (breaker-open
// re-routing, shutdown).
func (q *queue) drain() []*Request {
	q.mu.Lock()
	out := append([]*Request(nil), q.buf[q.head:]...)
	q.buf = q.buf[:0]
	q.head = 0
	q.firstAbove = time.Time{}
	q.mu.Unlock()
	return out
}
