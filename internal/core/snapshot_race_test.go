package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"cxlalloc/internal/telemetry"
)

// TestSnapshotDuringWorkload drives mutator threads while a reader
// goroutine repeatedly takes Snapshot(). Under -race this
// proves the advertised property: the unified snapshot (published
// mirrors + atomic counters) is safe against running mutators, with
// tracing enabled for good measure. It also sanity-checks that the final
// quiesced snapshot balances allocs against frees exactly.
func TestSnapshotDuringWorkload(t *testing.T) {
	cfg := testConfig()
	cfg.CheckInvariants = false // invariant checks are quiesced-only machinery
	e := newEnv(t, cfg, 2, 4)

	telemetry.Start(cfg.NumThreads, 1<<10)
	defer telemetry.Stop()

	const nMutators = 4
	const opsPerMutator = 3000
	var stop atomic.Bool
	var mutators, readers sync.WaitGroup

	for m := 0; m < nMutators; m++ {
		mutators.Add(1)
		go func(tid int) {
			defer mutators.Done()
			sizes := []int{16, 64, 200, 3000}
			var live []Ptr
			for i := 0; i < opsPerMutator; i++ {
				p, err := e.h.Alloc(tid, sizes[i%len(sizes)])
				if err != nil {
					t.Errorf("tid %d: Alloc: %v", tid, err)
					return
				}
				live = append(live, p)
				if len(live) >= 8 {
					e.h.Free(tid, live[0])
					live = live[1:]
				}
			}
			for _, p := range live {
				e.h.Free(tid, p)
			}
		}(m)
	}

	readers.Add(1)
	go func() {
		defer readers.Done()
		for !stop.Load() {
			s := e.h.Snapshot()
			if s.Alloc.SmallFrees > s.Alloc.SmallAllocs {
				t.Errorf("snapshot: small frees %d > allocs %d", s.Alloc.SmallFrees, s.Alloc.SmallAllocs)
				return
			}
		}
	}()

	mutators.Wait()
	stop.Store(true)
	readers.Wait()

	e.h.PublishStats()
	s := e.h.Snapshot()
	wantOps := uint64(nMutators * opsPerMutator)
	gotAllocs := s.Alloc.SmallAllocs + s.Alloc.LargeAllocs + s.Alloc.HugeAllocs
	gotFrees := s.Alloc.SmallFrees + s.Alloc.LargeFrees + s.Alloc.HugeFrees
	if gotAllocs != wantOps || gotFrees != wantOps {
		t.Fatalf("quiesced snapshot: allocs=%d frees=%d, want %d each", gotAllocs, gotFrees, wantOps)
	}
	if !s.Trace.Enabled || s.Trace.Recorded == 0 {
		t.Fatalf("trace stats not captured: %+v", s.Trace)
	}
}
