package kvstore

import (
	"fmt"
	"sync"
	"testing"

	"cxlalloc/internal/alloc"
	"cxlalloc/internal/baselines/mim"
	"cxlalloc/internal/xrand"
)

func newStore(buckets, threads int) (*Store, alloc.Allocator) {
	a := mim.New(256<<20, threads)
	return New(a, buckets, threads), a
}

func TestPutGetDelete(t *testing.T) {
	s, _ := newStore(1024, 2)
	if err := s.Put(0, []byte("alpha"), []byte("one")); err != nil {
		t.Fatal(err)
	}
	v, ok := s.Get(0, []byte("alpha"), nil)
	if !ok || string(v) != "one" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	if _, ok := s.Get(0, []byte("beta"), nil); ok {
		t.Fatal("phantom key")
	}
	if !s.Delete(0, []byte("alpha")) {
		t.Fatal("delete failed")
	}
	if _, ok := s.Get(0, []byte("alpha"), nil); ok {
		t.Fatal("deleted key still visible")
	}
	if s.Delete(0, []byte("alpha")) {
		t.Fatal("double delete reported success")
	}
	st := s.Stats()
	if st.Inserts != 1 || st.Deletes != 1 || st.Hits != 1 || st.Misses != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestReplaceSemanticsReclaimOldValue(t *testing.T) {
	s, _ := newStore(64, 1)
	for i := 0; i < 100; i++ {
		if err := s.Put(0, []byte("k"), []byte(fmt.Sprintf("v%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	v, ok := s.Get(0, []byte("k"), nil)
	if !ok || string(v) != "v099" {
		t.Fatalf("Get after replaces = %q", v)
	}
	if st := s.Stats(); st.Replaces != 99 {
		t.Fatalf("replaces = %d, want 99", st.Replaces)
	}
	s.Drain()
	if st := s.Stats(); st.Reclaimed != 99 {
		t.Fatalf("reclaimed = %d, want 99 (old values leak)", st.Reclaimed)
	}
}

func TestHashCollisionsInOneBucket(t *testing.T) {
	s, _ := newStore(1, 1) // single bucket: everything collides
	keys := make([][]byte, 50)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%02d", i))
		if err := s.Put(0, keys[i], []byte(fmt.Sprintf("val-%02d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i, k := range keys {
		v, ok := s.Get(0, k, nil)
		if !ok || string(v) != fmt.Sprintf("val-%02d", i) {
			t.Fatalf("key %s -> %q, %v", k, v, ok)
		}
	}
	// Delete every other key; the rest must survive.
	for i := 0; i < len(keys); i += 2 {
		if !s.Delete(0, keys[i]) {
			t.Fatalf("delete %s failed", keys[i])
		}
	}
	for i, k := range keys {
		_, ok := s.Get(0, k, nil)
		if want := i%2 == 1; ok != want {
			t.Fatalf("key %s present=%v want %v", k, ok, want)
		}
	}
}

func TestLargeValues(t *testing.T) {
	s, _ := newStore(64, 1)
	val := make([]byte, 300<<10) // MC-12-style 300 KiB value
	for i := range val {
		val[i] = byte(i)
	}
	if err := s.Put(0, []byte("big"), val); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(0, []byte("big"), nil)
	if !ok || len(got) != len(val) || got[12345] != val[12345] {
		t.Fatal("large value corrupted")
	}
}

func TestAllocatorErrorPropagates(t *testing.T) {
	// cxl-shm-style cap: the store must surface the error.
	a := mim.New(1<<20, 1) // tiny arena: OOM quickly
	s := New(a, 16, 1)
	var err error
	for i := 0; i < 10000 && err == nil; i++ {
		err = s.Put(0, []byte(fmt.Sprintf("k%d", i)), make([]byte, 1024))
	}
	if err == nil {
		t.Fatal("no error from exhausted allocator")
	}
}

func TestConcurrentMixedWorkload(t *testing.T) {
	const threads = 4
	s, _ := newStore(4096, threads)
	var wg sync.WaitGroup
	for tid := 0; tid < threads; tid++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			rng := xrand.New(uint64(tid) * 77)
			var val []byte
			for i := 0; i < 5000; i++ {
				k := []byte(fmt.Sprintf("key-%d", rng.Intn(500)))
				switch rng.Intn(4) {
				case 0:
					if err := s.Put(tid, k, []byte(fmt.Sprintf("val-%d-%d", tid, i))); err != nil {
						t.Errorf("put: %v", err)
						return
					}
				case 1:
					s.Delete(tid, k)
				default:
					var ok bool
					val, ok = s.Get(tid, k, val)
					if ok && len(val) == 0 {
						t.Error("hit with empty value")
						return
					}
				}
			}
		}(tid)
	}
	wg.Wait()
	s.Drain()
	// Every surviving key reads back consistently.
	var val []byte
	for i := 0; i < 500; i++ {
		k := []byte(fmt.Sprintf("key-%d", i))
		if v, ok := s.Get(0, k, val); ok && len(v) == 0 {
			t.Fatalf("key %s: empty value", k)
		}
	}
}

// Memory must be reclaimed under insert/delete churn: the allocator's
// footprint stays bounded when the live set is constant.
func TestChurnBoundedFootprint(t *testing.T) {
	a := mim.New(256<<20, 2)
	s := New(a, 1024, 2)
	for i := 0; i < 200; i++ {
		s.Put(0, []byte(fmt.Sprintf("k%d", i)), make([]byte, 900))
	}
	base := a.Footprint().PSS()
	for round := 0; round < 50; round++ {
		for i := 0; i < 200; i++ {
			k := []byte(fmt.Sprintf("k%d", i))
			s.Delete(1, k) // remote-ish frees via reclamation
			s.Put(0, k, make([]byte, 900))
		}
	}
	s.Drain()
	grown := a.Footprint().PSS()
	if grown > base*4+(8<<20) {
		t.Fatalf("footprint grew %d -> %d under constant live set", base, grown)
	}
}

// The crash-resolution protocol (server/chaos) leans on three
// guarantees under concurrency: PutTracked reports the allocation
// before linking it, linked answers whether that exact allocation is
// the key's live node, and sweep restores the at-most-one-live-node
// invariant. Exercise all three against racing deleters.
func TestPutTrackedLinkedUnderConcurrentDeletes(t *testing.T) {
	const threads = 4
	s, _ := newStore(1024, threads)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for d := 1; d < threads; d++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := 0; i < 16; i++ {
					s.Delete(tid, []byte(fmt.Sprintf("key-%d", i)))
				}
			}
		}(d)
	}
	var val []byte
	for i := 0; i < 2000; i++ {
		k := []byte(fmt.Sprintf("key-%d", i%16))
		want := []byte(fmt.Sprintf("val-%06d", i))
		var p alloc.Ptr
		if err := s.PutTracked(0, k, want, func(q alloc.Ptr) { p = q }); err != nil {
			t.Fatalf("PutTracked: %v", err)
		}
		if p == 0 {
			t.Fatal("PutTracked never reported its allocation")
		}
		// linked(p) must agree with visible state: if the node is still
		// live it is THIS allocation; if a racing delete won, the key is
		// gone (a replace by someone else is impossible: single writer).
		linked := s.linked(0, k, p)
		v, ok := s.Get(0, k, val)
		val = v
		// linked and then gone is legal: a delete landed between the two
		// probes. Gone and then visible is not: nobody else links the key.
		if !linked && ok {
			t.Fatalf("key %s: visible after linked reported its node gone", k)
		}
		if ok && string(v) != string(want) {
			t.Fatalf("key %s = %q, want %q (single writer)", k, v, want)
		}
	}
	close(stop)
	wg.Wait()
	s.Drain()
}

// sweep after a simulated crashed replace: two live nodes for one key
// (the old value and the crash-leaked new one) must collapse back to
// one — the newest — and report the removals, with deleters racing.
func TestSweepRestoresSingleNodeUnderConcurrentDeletes(t *testing.T) {
	const threads = 4
	s, _ := newStore(64, threads)
	for round := 0; round < 200; round++ {
		k := []byte(fmt.Sprintf("crash-%d", round%8))
		// A normal put, then a tracked put for the same key emulating the
		// replace path's fresh node (the store links the new node first,
		// unlinking the old one afterwards; a crash between the two leaves
		// both live — sweep is the repair).
		if err := s.Put(0, k, []byte("old")); err != nil {
			t.Fatal(err)
		}
		if err := s.PutTracked(0, k, []byte("new"), nil); err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for d := 1; d < threads; d++ {
			wg.Add(1)
			go func(tid int) {
				defer wg.Done()
				if tid%2 == 1 {
					s.Delete(tid, []byte(fmt.Sprintf("crash-%d", (tid+round)%8)))
				}
				s.sweep(tid, k)
			}(d)
		}
		removed := s.sweep(0, k)
		wg.Wait()
		if removed < 0 || removed > 1 {
			t.Fatalf("round %d: sweep removed %d nodes for one key, want 0 or 1", round, removed)
		}
		// Invariant after sweeping: at most one live node, and if the key
		// is present its value is the newest.
		if extra := s.sweep(0, k); extra != 0 {
			t.Fatalf("round %d: second sweep removed %d more nodes", round, extra)
		}
		if v, ok := s.Get(0, k, nil); ok && string(v) != "new" {
			t.Fatalf("round %d: survivor = %q, want the newest node", round, v)
		}
	}
	s.Drain()
}

// TestGetNeverMissesAPresentKeyUnderReplace is ROADMAP item 0's probe:
// one bucket, 16 keys that are always present, one writer re-putting them
// round-robin, one reader. A replace prepends the new node before it
// marks and unlinks the old one, so a reader holding a stale bucket head
// used to walk off the end of the chain and report a miss (≈ 1 per 1 M
// gets here, more under -race, which is how CI runs this).
func TestGetNeverMissesAPresentKeyUnderReplace(t *testing.T) {
	const (
		nKeys = 16
		gets  = 3_000_000
	)
	s, _ := newStore(1, 2)
	keys := make([][]byte, nKeys)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%02d", i))
		if err := s.Put(0, keys[i], []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		val := []byte("value")
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Put(0, keys[i%nKeys], val); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var dst []byte
	misses := 0
	for i := 0; i < gets; i++ {
		var ok bool
		if dst, ok = s.Get(1, keys[i%nKeys], dst); !ok {
			misses++
		}
	}
	close(stop)
	wg.Wait()
	if misses != 0 {
		t.Fatalf("%d of %d gets missed a key that was never absent", misses, gets)
	}
}
