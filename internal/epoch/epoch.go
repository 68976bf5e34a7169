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
// then takes its local path for nearly every pointer.
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
// takes the whole inbox and frees it itself.
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
	// a dropped pointer is a leaked block.
	draining []uint64
	inbox    inbox
}

// Reclaimer coordinates reclamation across nThreads threads. Enter,
// Exit, and Retire are called by the owning thread only; distinct
// threads proceed concurrently, locking only an inbox, to route a
// pointer into it or to pull it.
type Reclaimer struct {
	global  atomic.Uint64
	slots   []slot
	threads []threadState
	free    func(tid int, ps *[]uint64)

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
// twice. On return *ps is empty.
func New(nThreads int, free func(tid int, ps *[]uint64)) *Reclaimer {
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
	r.drain(tid)
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
	r.drain(tid)
	return true
}

// Flush frees everything tid holds — its buckets, its draining list
// and its inbox — on tid, wherever each pointer's home is. Only safe at
// quiescence (no thread inside a critical section).
func (r *Reclaimer) Flush(tid int) {
	ts := &r.threads[tid]
	for i := range ts.buckets {
		b := &ts.buckets[i]
		for _, x := range b.ptrs {
			ts.draining = append(ts.draining, x.p)
		}
		b.ptrs = b.ptrs[:0]
	}
	r.drain(tid)
}

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
			continue
		}
		in := &r.threads[x.home].inbox
		in.mu.Lock()
		if len(in.ptrs) == inboxCap {
			ts.draining = append(ts.draining, in.ptrs...)
			in.ptrs = in.ptrs[:0]
		}
		in.ptrs = append(in.ptrs, x.p)
		in.mu.Unlock()
	}
	b.ptrs = b.ptrs[:0]
}

// drain pulls tid's inbox into its draining list and hands the list to
// the free callback whole. The callback takes each pointer out before
// its free begins (see New), so what left the list is what was freed,
// even when a crash unwinds through here.
func (r *Reclaimer) drain(tid int) {
	ts := &r.threads[tid]
	in := &ts.inbox
	in.mu.Lock()
	ts.draining = append(ts.draining, in.ptrs...)
	in.ptrs = in.ptrs[:0]
	in.mu.Unlock()
	n := len(ts.draining)
	if n == 0 {
		return
	}
	defer func() { r.freed.Add(uint64(n - len(ts.draining))) }()
	r.free(tid, &ts.draining)
}

// Freed returns how many retired pointers have been freed.
func (r *Reclaimer) Freed() uint64 { return r.freed.Load() }
