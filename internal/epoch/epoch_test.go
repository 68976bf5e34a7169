package epoch

import (
	"sync"
	"sync/atomic"
	"testing"
)

// each adapts a per-pointer free to the reclaimer's batch callback,
// popping each pointer before freeing it, and leaving none owed.
func each(free func(tid int, p uint64)) func(int, *[]uint64, int) {
	return func(tid int, ps *[]uint64, _ int) {
		for len(*ps) > 0 {
			p := (*ps)[len(*ps)-1]
			*ps = (*ps)[:len(*ps)-1]
			free(tid, p)
		}
	}
}

func TestRetireNotFreedWhileReaderPinned(t *testing.T) {
	var freed []uint64
	r := New(2, each(func(tid int, p uint64) { freed = append(freed, p) }))
	r.Enter(0) // reader pins the epoch
	r.Enter(1)
	r.Retire(1, 1, 42)
	r.Exit(1)
	// The epoch cannot advance past the pinned reader, so nothing frees.
	for i := 0; i < 10; i++ {
		r.TryAdvance(1)
	}
	if len(freed) != 0 {
		t.Fatalf("freed %v while reader pinned", freed)
	}
	r.Exit(0)
	// Now two advances complete the grace period.
	r.TryAdvance(1)
	r.TryAdvance(1)
	r.TryAdvance(1)
	r.Flush(1)
	if len(freed) != 1 || freed[0] != 42 {
		t.Fatalf("freed = %v, want [42]", freed)
	}
}

func TestFlushFreesEverything(t *testing.T) {
	var n int
	r := New(1, each(func(int, uint64) { n++ }))
	for i := uint64(0); i < 10; i++ {
		r.Retire(0, 0, i)
	}
	r.Flush(0)
	if n != 10 {
		t.Fatalf("flushed %d, want 10", n)
	}
	if r.Freed() != 10 {
		t.Fatalf("Freed() = %d", r.Freed())
	}
}

func TestAdvanceRequiresAllThreadsCurrent(t *testing.T) {
	r := New(3, each(func(int, uint64) {}))
	r.Enter(0)
	r.Enter(1)
	e := r.global.Load()
	if r.TryAdvance(0) {
		// Both pinned at current epoch: advance allowed.
		if r.global.Load() != e+1 {
			t.Fatal("advance did not bump epoch")
		}
	}
	// Thread 1 still pinned at the old epoch now: no further advance.
	if r.TryAdvance(0) {
		t.Fatal("advanced past a thread pinned at an older epoch")
	}
	r.Exit(1)
	r.Enter(1) // re-pins at the new epoch
	// Thread 0 is itself still pinned at the old epoch: still blocked.
	if r.TryAdvance(1) {
		t.Fatal("advanced past thread 0's old pin")
	}
	r.Exit(0)
	r.Enter(0) // re-pin at the current epoch
	if !r.TryAdvance(0) {
		t.Fatal("advance blocked with all threads current")
	}
	r.Exit(0)
	r.Exit(1)
}

// The central safety property under real concurrency: a freed pointer
// is never freed while any reader that could have seen it is still in
// its critical section. We model it by having readers "hold" a pointer
// during their critical section and assert it is not freed meanwhile.
func TestConcurrentGraceSafety(t *testing.T) {
	const readers = 4
	const rounds = 3000
	var freedAt sync.Map // ptr -> struct{}{}
	r := New(readers+1, each(func(tid int, p uint64) { freedAt.Store(p, true) }))

	var next atomic.Uint64
	next.Store(1)
	current := atomic.Uint64{} // pointer currently published
	current.Store(next.Add(1))

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				r.Enter(tid)
				p := current.Load() // acquired inside the critical section
				if _, dead := freedAt.Load(p); dead {
					t.Errorf("reader %d acquired already-freed pointer %d", tid, p)
					r.Exit(tid)
					return
				}
				// Simulate some work; the pointer must stay valid.
				for i := 0; i < 10; i++ {
					if _, dead := freedAt.Load(p); dead {
						t.Errorf("pointer %d freed during reader %d's critical section", p, tid)
						r.Exit(tid)
						return
					}
				}
				r.Exit(tid)
			}
		}(g)
	}
	// Writer: replace the published pointer and retire the old one.
	for i := 0; i < rounds; i++ {
		old := current.Load()
		current.Store(next.Add(1))
		r.Retire(readers, readers, old)
		r.TryAdvance(readers)
	}
	close(stop)
	wg.Wait()
}

// ledger records which threads freed each pointer.
type ledger map[uint64][]int

func (l ledger) free(tid int, p uint64) { l[p] = append(l[p], tid) }

// check fails unless each of ps was freed exactly once, by tid.
func (l ledger) check(t *testing.T, tid int, ps ...uint64) {
	t.Helper()
	for _, p := range ps {
		if got := l[p]; len(got) != 1 || got[0] != tid {
			t.Errorf("pointer %d freed by %v, want once by thread %d", p, got, tid)
		}
	}
}

// expire advances the epoch three times on tid, routing every one of its
// buckets.
func expire(t *testing.T, r *Reclaimer, tid int) {
	t.Helper()
	for range buckets {
		if !r.TryAdvance(tid) {
			t.Fatalf("thread %d's advance blocked at quiescence", tid)
		}
	}
}

func TestRoutedPointerIsFreedOnceByItsHome(t *testing.T) {
	l := ledger{}
	r := New(2, each(l.free))
	r.Retire(1, 0, 7) // thread 1 unlinks a value thread 0 allocated
	r.Retire(1, 1, 9) // and one of its own
	expire(t, r, 1)
	l.check(t, 1, 9)
	if _, ok := l[7]; ok {
		t.Fatalf("routed pointer freed by %v before its home drained", l[7])
	}
	r.Retire(0, 0, 8) // the home's next drain pulls its inbox
	l.check(t, 0, 7)
	r.Drain()
	l.check(t, 0, 7, 8)
	l.check(t, 1, 9)
	if r.Freed() != 3 {
		t.Fatalf("Freed() = %d, want 3", r.Freed())
	}
}

func TestFullInboxIsTakenOverByItsFinder(t *testing.T) {
	l := ledger{}
	r := New(2, each(l.free))
	for p := uint64(0); p <= inboxCap; p++ {
		r.Retire(1, 0, p) // thread 0 never drains
	}
	expire(t, r, 1)
	// Routing pointer inboxCap found the inbox full: thread 1 freed the
	// first inboxCap itself, and the last one went home.
	for p := uint64(0); p < inboxCap; p++ {
		l.check(t, 1, p)
	}
	if len(l) != inboxCap {
		t.Fatalf("%d pointers freed before Drain, want %d", len(l), inboxCap)
	}
	r.Drain()
	l.check(t, 0, inboxCap)
}

func TestIdleHomeStrandsAtMostTheBound(t *testing.T) {
	l := ledger{}
	r := New(3, each(l.free))
	const n = 10 * inboxCap
	for p := uint64(0); p < n; p++ {
		r.Retire(1+int(p%2), 0, p) // threads 1 and 2 retire thread 0's values
	}
	expire(t, r, 1)
	expire(t, r, 2)
	stranded := n - r.Freed()
	if stranded == 0 || stranded > inboxCap {
		t.Fatalf("idle home strands %d pointers, want 1..%d", stranded, inboxCap)
	}
	r.Drain()
	if len(l) != n || r.Freed() != n {
		t.Fatalf("Drain left %d of %d pointers unfreed", n-len(l), n)
	}
	for p, tids := range l {
		if len(tids) != 1 {
			t.Fatalf("pointer %d freed by %v", p, tids)
		}
	}
}

// Drain advances every thread before it flushes any: thread 1's advance
// routes thread 0's values home after thread 0's own advances, and a
// Drain that flushed thread 0 first would leave them in its inbox.
func TestDrainFreesWhatALaterAdvanceRoutesHome(t *testing.T) {
	l := ledger{}
	r := New(2, each(l.free))
	for p := uint64(0); p < 5; p++ {
		r.Retire(1, 0, p)
	}
	r.Drain()
	l.check(t, 0, 0, 1, 2, 3, 4)
	if r.Freed() != 5 {
		t.Fatalf("Drain freed %d of 5", r.Freed())
	}
}

// Threads retiring each other's pointers concurrently route them into
// each other's inboxes while their homes pull and drain them: every
// pointer is still freed exactly once.
func TestConcurrentRoutingFreesEachOnce(t *testing.T) {
	const threads, per = 4, 5000
	var mu sync.Mutex
	l := ledger{}
	r := New(threads, each(func(tid int, p uint64) {
		mu.Lock()
		l.free(tid, p)
		mu.Unlock()
	}))
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Enter(tid)
				r.Retire(tid, i%threads, uint64(tid*per+i))
				r.Exit(tid)
			}
		}()
	}
	wg.Wait()
	r.Drain()
	if len(l) != threads*per || r.Freed() != threads*per {
		t.Fatalf("freed %d distinct pointers, Freed() = %d, want %d", len(l), r.Freed(), threads*per)
	}
	for p, tids := range l {
		if len(tids) != 1 {
			t.Fatalf("pointer %d freed by %v", p, tids)
		}
	}
}

// owing adapts a per-pointer free to a callback that leaves the whole
// batch owed while it holds at most keep pointers, as an allocator
// whose allocations carry the thread's own frees does, and otherwise
// frees all of it as each does.
func owing(free func(tid int, p uint64)) func(int, *[]uint64, int) {
	all := each(free)
	return func(tid int, ps *[]uint64, keep int) {
		if len(*ps) > keep {
			all(tid, ps, keep)
		}
	}
}

// carry frees n pointers off tid's owed list, as an allocation that
// carries them does.
func carry(r *Reclaimer, tid, n int, free func(tid int, p uint64)) {
	owed := r.Owed(tid)
	for range n {
		p := (*owed)[len(*owed)-1]
		*owed = (*owed)[:len(*owed)-1]
		free(tid, p)
	}
}

// A drain leaves a thread's own expired pointers owed; its allocations
// carry some off, and Flush, or Drain, frees the rest. Freed counts
// each pointer once, whichever freed it.
func TestFlushAndDrainFreeOwedPointers(t *testing.T) {
	for _, quiesce := range []string{"Flush", "Drain"} {
		t.Run(quiesce, func(t *testing.T) {
			l := ledger{}
			r := New(2, owing(l.free))
			for p := uint64(0); p < 10; p++ {
				r.Retire(0, 0, p)
			}
			expire(t, r, 0)
			if owed := len(*r.Owed(0)); owed != 10 || len(l) != 0 {
				t.Fatalf("%d pointers owed and %d freed after expiry, want 10 and 0", owed, len(l))
			}
			carry(r, 0, 3, l.free)
			l.check(t, 0, 7, 8, 9)
			if quiesce == "Flush" {
				r.Flush(0)
			} else {
				r.Drain()
			}
			if owed := len(*r.Owed(0)); owed != 0 {
				t.Fatalf("%s left %d pointers owed", quiesce, owed)
			}
			l.check(t, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9)
			if r.Freed() != 10 {
				t.Fatalf("Freed() = %d, want 10", r.Freed())
			}
		})
	}
}

// A thread that only retires, and never allocates, owes no more than
// the bound: once its owed list passes inboxCap, a drain frees it all.
func TestOwedListIsFreedPastTheBound(t *testing.T) {
	l := ledger{}
	r := New(1, owing(l.free))
	const n = 4 * inboxCap
	for p := uint64(0); p < n; p++ {
		r.Retire(0, 0, p)
		if owed := len(*r.Owed(0)); owed > inboxCap {
			t.Fatalf("%d pointers owed after %d retirements, want at most %d", owed, p+1, inboxCap)
		}
	}
	if len(l) == 0 || r.Freed() != uint64(len(l)) {
		t.Fatalf("%d pointers freed, Freed() = %d, after %d retirements; want some, counted",
			len(l), r.Freed(), n)
	}
	r.Drain()
	if len(l) != n || r.Freed() != n {
		t.Fatalf("Drain left %d of %d pointers unfreed", n-len(l), n)
	}
}
