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
package epoch

import "sync/atomic"

const buckets = 3

// retireThreshold is how many retirements a thread accumulates before
// attempting to advance the epoch.
const retireThreshold = 64

type slot struct {
	// state: bit 0 = active, bits 1.. = pinned epoch.
	state atomic.Uint64
	_     [7]uint64 // pad to a cache line
}

type bucket struct {
	epoch uint64
	ptrs  []uint64
}

type threadState struct {
	buckets  [buckets]bucket
	lastSeen uint64
	retires  int
	// draining holds pointers whose grace period has elapsed but whose
	// free has not completed. Retire moves a rotated bucket here BEFORE
	// recording the new retiree: the free below is crash-instrumented,
	// and a crash must never unwind past the point where the retiree
	// would have been recorded — the caller has already unlinked it, so
	// a dropped pointer is a leaked block.
	draining []uint64
}

// Reclaimer coordinates reclamation across nThreads threads. Enter,
// Exit, and Retire are called by the owning thread only; distinct
// threads proceed concurrently without locks.
type Reclaimer struct {
	global  atomic.Uint64
	slots   []slot
	threads []threadState
	free    func(tid int, ps *[]uint64)

	freed atomic.Uint64
}

// New creates a reclaimer. free is handed every batch of retired
// pointers whose grace period has elapsed, on the thread that retired
// them, and must consume *ps from its tail, taking each pointer (or each
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

// Retire schedules p to be freed once no thread can still reference it.
func (r *Reclaimer) Retire(tid int, p uint64) {
	ts := &r.threads[tid]
	e := r.global.Load()
	b := &ts.buckets[e%buckets]
	if b.epoch != e {
		// The bucket holds retirements from epoch e-3 or older: at
		// least two advances ago, safe to free. Set them aside before
		// touching the allocator so p is recorded even if a free
		// crashes partway through.
		ts.draining = append(ts.draining, b.ptrs...)
		b.ptrs = b.ptrs[:0]
		b.epoch = e
	}
	b.ptrs = append(b.ptrs, p)
	ts.retires++
	r.drain(tid, &ts.draining)
	if ts.retires >= retireThreshold {
		ts.retires = 0
		r.TryAdvance(tid)
	}
}

// TryAdvance attempts to advance the global epoch: possible when every
// active thread has observed the current epoch. On success, the calling
// thread frees its own retirements that are now two epochs old.
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
	ts := &r.threads[tid]
	r.drain(tid, &ts.buckets[(e+1)%buckets].ptrs)
	return true
}

// Flush frees everything tid has retired. Only safe at quiescence (no
// thread inside a critical section); benchmarks call it at teardown.
func (r *Reclaimer) Flush(tid int) {
	ts := &r.threads[tid]
	r.drain(tid, &ts.draining)
	for i := range ts.buckets {
		r.drain(tid, &ts.buckets[i].ptrs)
	}
}

// drain hands *ps to the free callback whole. The callback takes each
// pointer out of *ps before its free begins (see New), so what left *ps
// is what was freed, even when a crash unwinds through here.
func (r *Reclaimer) drain(tid int, ps *[]uint64) {
	if len(*ps) == 0 {
		return
	}
	n := len(*ps)
	defer func() { r.freed.Add(uint64(n - len(*ps))) }()
	r.free(tid, ps)
}

// Freed returns how many retired pointers have been freed.
func (r *Reclaimer) Freed() uint64 { return r.freed.Load() }
