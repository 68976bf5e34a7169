// Package epoch implements epoch-based memory reclamation for the
// lock-free KV index, following the token-passing/epoch design the
// paper adopts for deletion support in its benchmark hash table
// (§5.2.1, citing Kim et al., "Are Your Epochs Too Epic?").
//
// The classic three-epoch scheme: readers pin the global epoch while
// inside a critical section; removed objects are retired into the
// current epoch's bucket; once the global epoch has advanced twice past
// an object's retirement epoch, no reader can still hold a reference and
// the object is freed.
//
// Each retiree carries its home, the thread that allocated it. When its
// grace period ends, the thread that expires it routes it to its home's
// inbox, and the home frees it with its next drain: an allocator whose
// free is cheapest on the allocating thread (cxlalloc's local free, §3.1.1)
// then takes its local path for nearly every pointer. A drain may leave
// the home's own pointers owed (New), for the home's next allocations to
// free in the durable line each pays anyway (Owed).
package epoch

import (
	"sync"
	"sync/atomic"
)

const buckets = 3

// retireThreshold is how many retirements a thread accumulates before
// attempting to advance the epoch.
const retireThreshold = 64

// inboxCap bounds a thread's inbox: an idle home strands no more than
// this many pointers. A thread that routes a pointer to a full inbox
// takes the whole inbox and frees it itself. It bounds a thread's owed
// pointers the same way: a thread that stops allocating strands no more
// of them.
const inboxCap = 2 * retireThreshold

type slot struct {
	// state: bit 0 = active, bits 1.. = pinned epoch.
	state atomic.Uint64
	_     [7]uint64 // pad to a cache line
}

// retiree is one retired pointer and its home.
type retiree struct {
	p    uint64
	home int
}

type bucket struct {
	epoch uint64
	ptrs  []retiree
}

// inbox holds pointers other threads routed home to its thread. It is
// the only per-thread state other threads touch.
type inbox struct {
	mu   sync.Mutex
	ptrs []uint64
}

type threadState struct {
	buckets [buckets]bucket
	retires int
	// draining holds pointers whose grace period has elapsed but whose
	// free has not completed. Retire routes a rotated bucket out BEFORE
	// recording the new retiree: the free below is crash-instrumented,
	// and a crash must never unwind past the point where the retiree
	// would have been recorded — the caller has already unlinked it, so
	// a dropped pointer is a leaked block. What the free callback leaves
	// in it is owed (New); the thread's own allocations may free it off
	// the tail (Owed).
	draining []uint64
	// left is how many pointers the last free call left in draining, and
	// fresh how many have joined it since: the next drain counts what
	// the thread's allocations carried off the list as freed, and calls
	// the callback only when fresh pointers arrived.
	left, fresh int
	inbox       inbox
}

// Reclaimer coordinates reclamation across nThreads threads. Enter,
// Exit, and Retire are called by the owning thread only; distinct
// threads proceed concurrently, locking only an inbox, to route a
// pointer into it or to pull it.
type Reclaimer struct {
	global  atomic.Uint64
	slots   []slot
	threads []threadState
	free    func(tid int, ps *[]uint64, keep int)

	freed atomic.Uint64
}

// New creates a reclaimer. free is handed every batch of retired
// pointers whose grace period has elapsed, on their home thread (or on
// a thread that took over a full inbox, or on the thread a Flush runs
// for), and must consume *ps from its tail, taking each pointer (or each
// group it frees as one) out of *ps before that free begins: if the
// thread crashes inside free and is revived, what is left in *ps is
// exactly what the next drain still owes, and a pointer whose free had
// begun is the allocator's redo protocol's to complete, never freed
// twice. On return *ps holds at most keep pointers, which stay owed:
// they stay in the list, the thread's allocations may free them through
// Owed under the same contract, and the next batch is handed over with
// them. keep is 0 on a Flush, which frees everything.
func New(nThreads int, free func(tid int, ps *[]uint64, keep int)) *Reclaimer {
	r := &Reclaimer{
		slots:   make([]slot, nThreads),
		threads: make([]threadState, nThreads),
		free:    free,
	}
	r.global.Store(2) // start above zero so epoch-0 buckets are distinct
	return r
}

// Enter pins the current epoch for tid. Critical sections must be
// short; nesting is not supported.
func (r *Reclaimer) Enter(tid int) {
	e := r.global.Load()
	r.slots[tid].state.Store(e<<1 | 1)
}

// Exit unpins tid.
func (r *Reclaimer) Exit(tid int) {
	r.slots[tid].state.Store(0)
}

// Retire schedules p, allocated by thread home, to be freed once no
// thread can still reference it.
func (r *Reclaimer) Retire(tid, home int, p uint64) {
	ts := &r.threads[tid]
	e := r.global.Load()
	b := &ts.buckets[e%buckets]
	if b.epoch != e {
		// The bucket holds retirements from epoch e-3 or older: at
		// least two advances ago, safe to free. Route them out before
		// touching the allocator so p is recorded even if a free
		// crashes partway through.
		r.route(tid, b)
		b.epoch = e
	}
	b.ptrs = append(b.ptrs, retiree{p, home})
	ts.retires++
	r.drain(tid, inboxCap)
	if ts.retires >= retireThreshold {
		ts.retires = 0
		r.TryAdvance(tid)
	}
}

// TryAdvance attempts to advance the global epoch: possible when every
// active thread has observed the current epoch. On success, the calling
// thread routes its retirements that are now two epochs old home and
// drains.
func (r *Reclaimer) TryAdvance(tid int) bool {
	e := r.global.Load()
	for i := range r.slots {
		s := r.slots[i].state.Load()
		if s&1 == 1 && s>>1 != e {
			return false // a straggler still pins an older epoch
		}
	}
	if !r.global.CompareAndSwap(e, e+1) {
		return false // someone else advanced; that is progress too
	}
	// Bucket (e+1)%3 holds retirements from epoch e-2 or older; with the
	// global epoch now at e+1, their grace period is complete.
	r.route(tid, &r.threads[tid].buckets[(e+1)%buckets])
	r.drain(tid, inboxCap)
	return true
}

// Flush frees everything tid holds — its buckets, its draining list,
// owed pointers included, and its inbox — on tid, wherever each
// pointer's home is. Only safe at quiescence (no thread inside a
// critical section).
func (r *Reclaimer) Flush(tid int) {
	ts := &r.threads[tid]
	for i := range ts.buckets {
		b := &ts.buckets[i]
		for _, x := range b.ptrs {
			ts.draining = append(ts.draining, x.p)
		}
		ts.fresh += len(b.ptrs)
		b.ptrs = b.ptrs[:0]
	}
	r.drain(tid, 0)
}

// Owed returns tid's owed pointers: what its last drain left for its
// allocations to free. The caller, tid's own thread, may free pointers
// off the list's tail under the free callback's contract (New), taking
// each out before its free begins; the next drain counts them as freed.
func (r *Reclaimer) Owed(tid int) *[]uint64 { return &r.threads[tid].draining }

// Drain frees everything every thread has retired. Only safe at
// quiescence; benchmarks call it before measuring memory. Every thread
// advances, routing its expired retirements home, before any thread
// flushes: an advance can route pointers into a thread already flushed,
// and they would stay in its inbox.
func (r *Reclaimer) Drain() {
	for tid := range r.threads {
		for range buckets {
			r.TryAdvance(tid)
		}
	}
	for tid := range r.threads {
		r.Flush(tid)
	}
}

// route empties an expired bucket: tid's own pointers join its draining
// list, every other pointer its home's inbox. A full inbox is taken
// into tid's draining list whole first, so its home's pointers are
// freed here, remotely, in one batch. Nothing here can crash, so no
// pointer is ever both in the bucket and routed, or in neither.
func (r *Reclaimer) route(tid int, b *bucket) {
	ts := &r.threads[tid]
	for _, x := range b.ptrs {
		if x.home == tid {
			ts.draining = append(ts.draining, x.p)
			ts.fresh++
			continue
		}
		in := &r.threads[x.home].inbox
		in.mu.Lock()
		if len(in.ptrs) == inboxCap {
			ts.draining = append(ts.draining, in.ptrs...)
			ts.fresh += len(in.ptrs)
			in.ptrs = in.ptrs[:0]
		}
		in.ptrs = append(in.ptrs, x.p)
		in.mu.Unlock()
	}
	b.ptrs = b.ptrs[:0]
}

// drain pulls tid's inbox into its draining list and, when fresh
// pointers joined it or it holds more than keep, hands the list to the
// free callback whole. The callback takes each pointer out before its
// free begins (see New), and so do tid's allocations (Owed), so what
// left the list is what was freed, even when a crash unwinds through
// here or through an allocation.
func (r *Reclaimer) drain(tid, keep int) {
	ts := &r.threads[tid]
	in := &ts.inbox
	in.mu.Lock()
	ts.draining = append(ts.draining, in.ptrs...)
	ts.fresh += len(in.ptrs)
	in.ptrs = in.ptrs[:0]
	in.mu.Unlock()
	n := len(ts.draining)
	r.freed.Add(uint64(ts.left + ts.fresh - n))
	fresh := ts.fresh
	ts.left, ts.fresh = n, 0
	if fresh == 0 && n <= keep {
		return
	}
	defer func() {
		ts.left = len(ts.draining)
		r.freed.Add(uint64(n - ts.left))
	}()
	r.free(tid, &ts.draining, keep)
}

// Freed returns how many retired pointers have been freed.
func (r *Reclaimer) Freed() uint64 { return r.freed.Load() }
