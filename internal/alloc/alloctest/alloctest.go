// Package alloctest provides a conformance suite every allocator in the
// evaluation must pass, so the benchmark comparisons measure design
// differences rather than bugs.
package alloctest

import (
	"sync"
	"testing"

	"cxlalloc/internal/alloc"
	"cxlalloc/internal/xrand"
)

// Options adjusts the suite to an allocator's documented limits.
type Options struct {
	// MaxSize is the largest allocation the allocator supports
	// (cxl-shm: 1 KiB). Zero means "at least 1 MiB".
	MaxSize int
	// Threads is the number of concurrent threads to exercise.
	Threads int
	// SingleProcessOnly marks allocators without cross-process support.
	SingleProcessOnly bool
}

// Run executes the conformance suite. factory must return a fresh
// allocator per subtest.
func Run(t *testing.T, factory func() alloc.Allocator, opts Options) {
	if opts.MaxSize == 0 {
		opts.MaxSize = 1 << 20
	}
	if opts.Threads == 0 {
		opts.Threads = 4
	}

	t.Run("RoundTrip", func(t *testing.T) {
		a := factory()
		sizes := []int{1, 8, 16, 100, 1000}
		for _, size := range sizes {
			if size > opts.MaxSize {
				continue
			}
			p, err := a.Alloc(0, size)
			if err != nil {
				t.Fatalf("Alloc(%d): %v", size, err)
			}
			if p == 0 {
				t.Fatalf("Alloc(%d) returned nil", size)
			}
			b := a.Bytes(0, p, size)
			if len(b) != size {
				t.Fatalf("Bytes(%d) len %d", size, len(b))
			}
			b[0] = 0x5A
			b[size-1] = 0xA5 // overwrites b[0] when size == 1
			want0 := byte(0x5A)
			if size == 1 {
				want0 = 0xA5
			}
			if b2 := a.Bytes(0, p, size); b2[0] != want0 || b2[size-1] != 0xA5 {
				t.Fatal("data lost")
			}
			a.AccessHook(0, p)
			a.Free(0, p)
		}
	})

	t.Run("DistinctLivePointers", func(t *testing.T) {
		a := factory()
		seen := map[alloc.Ptr]bool{}
		var ps []alloc.Ptr
		for i := 0; i < 300; i++ {
			p, err := a.Alloc(0, 48)
			if err != nil {
				t.Fatal(err)
			}
			if seen[p] {
				t.Fatalf("pointer %#x handed out twice", p)
			}
			seen[p] = true
			ps = append(ps, p)
		}
		for _, p := range ps {
			a.Free(0, p)
		}
	})

	t.Run("NoCrossTalk", func(t *testing.T) {
		a := factory()
		type obj struct {
			p    alloc.Ptr
			size int
			tag  byte
		}
		rng := xrand.New(5)
		var objs []obj
		for i := 0; i < 200; i++ {
			size := rng.IntRange(1, min(2048, opts.MaxSize))
			p, err := a.Alloc(0, size)
			if err != nil {
				t.Fatal(err)
			}
			tag := byte(i)
			b := a.Bytes(0, p, size)
			for j := range b {
				b[j] = tag
			}
			objs = append(objs, obj{p, size, tag})
		}
		for _, o := range objs {
			b := a.Bytes(0, o.p, o.size)
			for j := range b {
				if b[j] != o.tag {
					t.Fatalf("allocation %#x byte %d = %d, want %d", o.p, j, b[j], o.tag)
				}
			}
			a.Free(0, o.p)
		}
	})

	t.Run("MemoryReuse", func(t *testing.T) {
		a := factory()
		base := a.Footprint().PSS()
		for i := 0; i < 5000; i++ {
			p, err := a.Alloc(0, 256)
			if err != nil {
				t.Fatal(err)
			}
			a.Free(0, p)
		}
		grown := a.Footprint().PSS()
		// Churning one object must not grow the footprint unboundedly.
		if grown > base+(4<<20) {
			t.Fatalf("footprint grew from %d to %d churning one object: memory not reused", base, grown)
		}
	})

	t.Run("ConcurrentChurn", func(t *testing.T) {
		a := factory()
		var wg sync.WaitGroup
		for tid := 0; tid < opts.Threads; tid++ {
			wg.Add(1)
			go func(tid int) {
				defer wg.Done()
				rng := xrand.New(uint64(tid))
				var ps []alloc.Ptr
				for i := 0; i < 2000; i++ {
					if rng.Intn(2) == 0 || len(ps) == 0 {
						p, err := a.Alloc(tid, rng.IntRange(1, min(1024, opts.MaxSize)))
						if err != nil {
							t.Errorf("tid %d: %v", tid, err)
							return
						}
						a.Bytes(tid, p, 1)[0] = byte(tid)
						ps = append(ps, p)
					} else {
						i := rng.Intn(len(ps))
						a.Free(tid, ps[i])
						ps = append(ps[:i], ps[i+1:]...)
					}
				}
				for _, p := range ps {
					a.Free(tid, p)
				}
			}(tid)
		}
		wg.Wait()
	})

	t.Run("RemoteFree", func(t *testing.T) {
		a := factory()
		const n = 2000
		ch := make(chan alloc.Ptr, 128)
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { // producer: tid 0
			defer wg.Done()
			for i := 0; i < n; i++ {
				p, err := a.Alloc(0, 64)
				if err != nil {
					t.Errorf("producer: %v", err)
					return
				}
				ch <- p
			}
			close(ch)
		}()
		go func() { // consumer: tid 1 frees remotely
			defer wg.Done()
			for p := range ch {
				a.Free(1, p)
			}
		}()
		wg.Wait()
	})

	t.Run("Properties", func(t *testing.T) {
		a := factory()
		pr := a.Properties()
		if pr.Name == "" || pr.Memory == "" || pr.Recovery == "" || pr.Strategy == "" {
			t.Fatalf("incomplete properties: %+v", pr)
		}
		if pr.Name != a.Name() {
			t.Fatalf("Properties().Name %q != Name() %q", pr.Name, a.Name())
		}
	})

	t.Run("FootprintGrowsWithLiveData", func(t *testing.T) {
		a := factory()
		before := a.Footprint().PSS()
		var ps []alloc.Ptr
		for i := 0; i < 100; i++ {
			p, err := a.Alloc(0, min(1024, opts.MaxSize))
			if err != nil {
				t.Fatal(err)
			}
			// Touch the data so page accounting sees it.
			b := a.Bytes(0, p, min(1024, opts.MaxSize))
			b[0] = 1
			ps = append(ps, p)
		}
		after := a.Footprint().PSS()
		if after <= before {
			t.Fatalf("footprint did not grow with 100 live KiB-objects: %d -> %d", before, after)
		}
		for _, p := range ps {
			a.Free(0, p)
		}
	})
}
