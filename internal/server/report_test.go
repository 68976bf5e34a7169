package server

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cxlalloc/internal/chaos"
	"cxlalloc/internal/xrand"
)

// heldStore answers nothing until stopped, as a server answers a crashed
// write on a slot no watchdog will repair.
type heldStore struct {
	mu      sync.Mutex
	held    []*Request
	stopped bool
}

func (h *heldStore) Submit(r *Request) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.stopped {
		Reject(r, ErrStopped)
		return
	}
	h.held = append(h.held, r)
}

func (h *heldStore) waiting() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.held)
}

func (h *heldStore) stop() {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.stopped = true
	for _, r := range h.held {
		Reject(r, ErrStopped)
	}
}

// TestEndWindowConvergesBeforeCollecting: a lane waiting on a response
// only stop answers, and a complaint that never clears, end the window
// with one named violation each. Collecting the tally before converging
// would wait on that lane forever.
func TestEndWindowConvergesBeforeCollecting(t *testing.T) {
	store := &heldStore{}
	var gates chaos.Gates
	rng := xrand.New(1)
	key := func() int { return rng.Intn(4) }
	is := NewIssuer(NewClient(store, 1), chaos.NewOracle(4), &gates, 0, rng, key, key)
	var stop atomic.Bool
	lanes := Lanes([]*Issuer{is}, 1, &stop)
	for store.waiting() == 0 {
		time.Sleep(time.Millisecond)
	}
	stop.Store(true)

	done := make(chan *Tally, 1)
	go func() {
		done <- EndWindow(&gates, 3*time.Millisecond, lanes, store.stop, func() []string {
			return []string{"slot 3 not alive+leased"}
		})
	}()
	var tally *Tally
	select {
	case tally = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("EndWindow is still waiting on a lane only stop answers")
	}
	want := []string{
		"convergence: slot 3 not alive+leased after 3ms",
		"convergence: lanes still awaiting responses after 3ms",
	}
	if v := gates.Violations(); !slices.Equal(v, want) {
		t.Fatalf("violations %q, want %q", v, want)
	}
	if tally.Ops != 1 || tally.Failed != 1 {
		t.Fatalf("tally %d ops, %d failed; want the one op stop answered", tally.Ops, tally.Failed)
	}
}
