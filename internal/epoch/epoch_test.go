package epoch

import (
	"sync"
	"sync/atomic"
	"testing"
)

// each adapts a per-pointer free to the reclaimer's batch callback,
// popping each pointer before freeing it.
func each(free func(tid int, p uint64)) func(int, *[]uint64) {
	return func(tid int, ps *[]uint64) {
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
	r.Retire(1, 42)
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
		r.Retire(0, i)
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
		r.Retire(readers, old)
		r.TryAdvance(readers)
	}
	close(stop)
	wg.Wait()
}
