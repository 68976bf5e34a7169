package core

import (
	"errors"
	"fmt"
	"sync"
	"testing"
)

// TestHugeHandoffUnderConcurrentReclaim hands huge blocks across
// processes while their owner keeps reclaiming. Thread 0 (process 0)
// allocates; thread 2 (process 1) touches each block (a fault-handler
// walk of thread 0's descriptor list), then frees a window of them newest
// first, asking the size of the oldest after each free (findDesc walks
// that pass the descriptors it just freed), and runs its own Maintain
// (the hazard sweep's walk). Thread 3 (process 1) does nothing but look
// up an anchor block, allocated first and so last in thread 0's list,
// behind every descriptor being freed. Meanwhile thread 0 runs Maintain
// whenever it is not allocating, so it unlinks and clears freed
// descriptors under the other threads' walks: a walker standing on a
// cleared descriptor must start over, not end its walk there and report
// a live block unmapped or already freed.
func TestHugeHandoffUnderConcurrentReclaim(t *testing.T) {
	cfg := testConfig()
	cfg.CheckInvariants = false // checked once at quiescence
	e := newEnv(t, cfg, 2, 2)
	h := e.h
	const owner, peer, walker = 0, 2, 3
	const window = 4
	rounds := 600
	if testing.Short() {
		rounds = 150
	}
	size := largeMax + 1
	anchor, err := h.Alloc(owner, size)
	if err != nil {
		t.Fatalf("Alloc anchor: %v", err)
	}

	handoff := make(chan Ptr, window)
	credits := make(chan struct{}, window) // blocks outstanding at the peer
	quit := make(chan struct{})
	var once sync.Once
	var wg, walking sync.WaitGroup
	wg.Add(2)
	// guard turns a heap panic into a test failure naming the thread and
	// stops the other side.
	guard := func(tid int) {
		if r := recover(); r != nil {
			t.Errorf("thread %d: %v", tid, r)
			once.Do(func() { close(quit) })
		}
	}

	stop := make(chan struct{})
	walking.Add(1)
	go func() {
		defer walking.Done()
		defer guard(walker)
		e.spaces[1].Touch(walker, anchor, 64)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if got := h.UsableSize(walker, anchor); got < size {
				panic(fmt.Sprintf("UsableSize(anchor %#x) = %d, want >= %d", anchor, got, size))
			}
		}
	}()

	go func() {
		defer wg.Done()
		defer close(handoff)
		defer guard(owner)
		for i := 0; i < rounds; i++ {
			for acquired := false; !acquired; {
				select {
				case credits <- struct{}{}:
					acquired = true
				case <-quit:
					return
				default:
					h.Maintain(owner)
				}
			}
			p, err := h.Alloc(owner, size)
			for tries := 0; errors.Is(err, ErrOutOfMemory) && tries < 1000; tries++ {
				h.Maintain(owner) // reclamation lags the peer's frees
				p, err = h.Alloc(owner, size)
			}
			if err != nil {
				panic(fmt.Sprintf("round %d: Alloc: %v", i, err))
			}
			select {
			case handoff <- p:
			case <-quit:
				return
			}
		}
	}()

	go func() {
		defer wg.Done()
		defer guard(peer)
		var held []Ptr
		for p := range handoff {
			e.spaces[1].Touch(peer, p, 64)
			held = append(held, p)
			if len(held) < window {
				continue
			}
			for j := len(held) - 1; j >= 0; j-- {
				h.Free(peer, held[j])
				<-credits
				// The oldest live block sits behind every descriptor just
				// freed, which the owner may be reclaiming right now.
				for k := 0; j > 0 && k < 4; k++ {
					if got := h.UsableSize(peer, held[0]); got < size {
						panic(fmt.Sprintf("UsableSize(%#x) = %d, want >= %d", held[0], got, size))
					}
				}
			}
			held = held[:0]
			h.Maintain(peer)
		}
		for _, p := range held {
			h.Free(peer, p)
		}
	}()
	wg.Wait()
	close(stop)
	walking.Wait()
	if t.Failed() {
		return
	}
	h.Free(walker, anchor)
	h.Maintain(walker)

	h.Maintain(peer)
	h.Maintain(owner)
	e.checkAll(owner)
	e.checkAll(peer)
	if err := h.AuditEmpty(owner); err != nil {
		t.Fatalf("ledger: %v", err)
	}
}
