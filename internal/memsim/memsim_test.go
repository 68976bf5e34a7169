package memsim

import (
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"cxlalloc/internal/telemetry"
	"cxlalloc/internal/xrand"
)

func newDev() *Device {
	return NewDevice(Config{HWccWords: 64, SWccWords: 1024, DataBytes: 4096})
}

func TestHWccAlwaysCoherent(t *testing.T) {
	d := newDev()
	d.HWccStore(3, 42)
	if got := d.HWccLoad(3); got != 42 {
		t.Fatalf("HWccLoad = %d", got)
	}
	if !d.HWccCAS(3, 42, 43) {
		t.Fatal("CAS with correct expected failed")
	}
	if d.HWccCAS(3, 42, 44) {
		t.Fatal("CAS with stale expected succeeded")
	}
	if got := d.HWccLoad(3); got != 43 {
		t.Fatalf("after CAS, HWccLoad = %d", got)
	}
	if got := d.HWccAdd(3, 7); got != 50 {
		t.Fatalf("HWccAdd = %d", got)
	}
}

func TestHWccConcurrentCAS(t *testing.T) {
	d := newDev()
	const goroutines = 8
	const perG = 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				for {
					v := d.HWccLoad(0)
					if d.HWccCAS(0, v, v+1) {
						break
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := d.HWccLoad(0); got != goroutines*perG {
		t.Fatalf("counter = %d, want %d", got, goroutines*perG)
	}
}

// The central SWcc property: a store is invisible to other threads until
// the owner flushes, and a reader holding a cached line does not see the
// flushed value until it invalidates.
func TestSWccStalenessAndFlush(t *testing.T) {
	d := newDev()
	writer := d.NewCache()
	reader := d.NewCache()

	// Reader caches word 10 while it is zero.
	if got := reader.Load(10); got != 0 {
		t.Fatalf("initial load = %d", got)
	}
	// Writer stores without flushing: invisible in memory and to reader.
	writer.Store(10, 99)
	if got := reader.LoadFresh(10); got != 0 {
		t.Fatalf("unflushed store visible: %d", got)
	}
	// Writer flushes; reader's stale cached copy still reads 0 …
	writer.Flush(10)
	if got := reader.Load(10); got != 0 {
		t.Fatalf("stale cached line should still read 0, got %d", got)
	}
	// … until the reader loads fresh.
	if got := reader.LoadFresh(10); got != 99 {
		t.Fatalf("LoadFresh after flush = %d, want 99", got)
	}
}

// Writebacks must be word-granular: two threads with copies of the same
// line, dirtying different words, must not clobber each other.
func TestSWccNoFalseSharingClobber(t *testing.T) {
	d := newDev()
	a := d.NewCache()
	b := d.NewCache()
	a.Load(0) // both cache line 0
	b.Load(0)
	a.Store(0, 111) // word 0
	b.Store(1, 222) // word 1, same line
	a.Flush(0)
	b.Flush(0)
	probe := d.NewCache()
	if got := probe.LoadFresh(0); got != 111 {
		t.Fatalf("word 0 = %d, want 111 (clobbered by clean writeback?)", got)
	}
	if got := probe.LoadFresh(1); got != 222 {
		t.Fatalf("word 1 = %d, want 222", got)
	}
}

func TestSWccLoadFreshPreservesOwnDirty(t *testing.T) {
	d := newDev()
	c := d.NewCache()
	c.Store(5, 77)
	// LoadFresh of a word in the same line must not lose the dirty store.
	if got := c.LoadFresh(5); got != 77 {
		t.Fatalf("LoadFresh lost own dirty word: %d", got)
	}
	probe := d.NewCache()
	if got := probe.LoadFresh(5); got != 77 {
		t.Fatalf("dirty word not written back by LoadFresh: %d", got)
	}
}

// LoadFreshLine is LoadFresh for a whole line: it writes back the
// caller's own dirty words, sees a peer's flushed store over a stale
// resident copy, and costs one flush, one load and one fetch (one flush
// and one load on a coherent device).
func TestSWccLoadFreshLine(t *testing.T) {
	d := newDev()
	c, peer := d.NewCache(), d.NewCache()
	c.Load(8) // a resident copy of line 1, soon stale
	peer.Store(10, 99)
	peer.Flush(10)
	c.Store(13, 77) // the caller's own dirty word in the same line
	s0 := c.Stats()
	line := c.LoadFreshLine(12)
	if line[2] != 99 {
		t.Fatalf("LoadFreshLine read %d over a stale copy, want the peer's flushed 99", line[2])
	}
	if line[5] != 77 {
		t.Fatalf("LoadFreshLine lost its own dirty word: %d", line[5])
	}
	if got := d.NewCache().LoadFresh(13); got != 77 {
		t.Fatalf("dirty word not written back by LoadFreshLine: %d", got)
	}
	want := telemetry.CacheStats{Loads: 1, Fetches: 1, Flushes: 1, Writebacks: 1}
	if got := telemetry.Delta(c.Stats(), s0); got != want {
		t.Fatalf("LoadFreshLine counted %+v, want %+v", got, want)
	}

	coh := NewDevice(Config{SWccWords: 64, Coherent: true})
	cc := coh.NewCache()
	cc.Store(3, 5)
	s0 = cc.Stats()
	if line := cc.LoadFreshLine(7); line[3] != 5 {
		t.Fatalf("coherent LoadFreshLine word 3 = %d, want 5", line[3])
	}
	want = telemetry.CacheStats{Loads: 1, Flushes: 1}
	if got := telemetry.Delta(cc.Stats(), s0); got != want {
		t.Fatalf("coherent LoadFreshLine counted %+v, want %+v", got, want)
	}
}

func TestSWccFlushRange(t *testing.T) {
	d := newDev()
	c := d.NewCache()
	for w := 0; w < 40; w++ {
		c.Store(w, uint64(w+1))
	}
	c.FlushRange(0, 40)
	probe := d.NewCache()
	for w := 0; w < 40; w++ {
		if got := probe.LoadFresh(w); got != uint64(w+1) {
			t.Fatalf("word %d = %d after FlushRange", w, got)
		}
	}
	if c.Resident(0) || c.Resident(39) {
		t.Fatal("FlushRange left lines resident")
	}
	// Flushing a non-resident line is a no-op, not a panic.
	c.Flush(999)
}

func TestSWccDiscardLosesDirty(t *testing.T) {
	d := newDev()
	c := d.NewCache()
	c.Store(8, 123)
	c.DiscardAll()
	probe := d.NewCache()
	if got := probe.LoadFresh(8); got != 0 {
		t.Fatalf("discarded dirty line reached memory: %d", got)
	}
	// WritebackAll, by contrast, drains dirty lines.
	c2 := d.NewCache()
	c2.Store(9, 321)
	c2.WritebackAll()
	if got := probe.LoadFresh(9); got != 321 {
		t.Fatalf("WritebackAll did not drain: %d", got)
	}
}

func TestCoherentModeBypassesCache(t *testing.T) {
	d := NewDevice(Config{HWccWords: 8, SWccWords: 64, DataBytes: 0, Coherent: true})
	a := d.NewCache()
	b := d.NewCache()
	a.Store(0, 5)
	// No flush needed: coherent mode propagates immediately.
	if got := b.Load(0); got != 5 {
		t.Fatalf("coherent store not visible: %d", got)
	}
	b.Store(0, 6)
	if got := a.Load(0); got != 6 {
		t.Fatalf("coherent store not visible: %d", got)
	}
	a.Flush(0) // no-ops, must not panic
	a.Fence()
}

func TestCacheStatsCount(t *testing.T) {
	d := newDev()
	c := d.NewCache()
	c.Load(0) // fetch
	c.Load(1) // hit (same line)
	c.Load(8) // fetch (next line)
	c.Store(0, 1)
	c.Flush(0)
	c.Fence()
	s := c.Stats()
	if s.Loads != 3 || s.Fetches != 2 || s.Hits != 2 || s.Stores != 1 ||
		s.Flushes != 1 || s.Writebacks != 1 || s.Fences != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestZeroedDeviceReadsZero(t *testing.T) {
	d := newDev()
	c := d.NewCache()
	for w := 0; w < 1024; w += 97 {
		if c.Load(w) != 0 {
			t.Fatalf("SWcc word %d nonzero in fresh device", w)
		}
	}
	for w := 0; w < 64; w++ {
		if d.HWccLoad(w) != 0 {
			t.Fatalf("HWcc word %d nonzero in fresh device", w)
		}
	}
	d.Data()[100] = 9
	d.Zero()
	if d.Data()[100] != 9-9 {
		t.Fatal("Zero did not clear data region")
	}
}

// Property: for a single thread, the cache is transparent — any sequence
// of Store/Load/Flush/LoadFresh behaves like a flat array.
func TestQuickSingleThreadTransparency(t *testing.T) {
	f := func(seed uint64) bool {
		d := NewDevice(Config{SWccWords: 128})
		c := d.NewCache()
		model := make([]uint64, 128)
		rng := xrand.New(seed)
		for i := 0; i < 500; i++ {
			w := rng.Intn(128)
			switch rng.Intn(4) {
			case 0:
				v := rng.Uint64()
				c.Store(w, v)
				model[w] = v
			case 1:
				if c.Load(w) != model[w] {
					return false
				}
			case 2:
				c.Flush(w)
			case 3:
				if c.LoadFresh(w) != model[w] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: flush-then-fresh-load round-trips any value between two
// caches (the publish/subscribe pattern the allocator relies on).
func TestQuickPublishSubscribe(t *testing.T) {
	f := func(v uint64, wRaw uint16) bool {
		d := NewDevice(Config{SWccWords: 1024})
		w := int(wRaw) % 1024
		pub := d.NewCache()
		sub := d.NewCache()
		sub.Load(w) // stale copy
		pub.Store(w, v)
		pub.Flush(w)
		pub.Fence()
		return sub.LoadFresh(w) == v
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSpinApproximatesDuration(t *testing.T) {
	start := time.Now()
	Spin(200 * time.Microsecond)
	elapsed := time.Since(start)
	if elapsed < 200*time.Microsecond {
		t.Fatalf("Spin returned after %v, want >= 200µs", elapsed)
	}
	if elapsed > 50*time.Millisecond {
		t.Fatalf("Spin took %v; far too long", elapsed)
	}
	Spin(0)
	Spin(-time.Second) // must return immediately
}

func TestLatencyInject(t *testing.T) {
	var nilLat *Latency
	nilLat.Inject(time.Hour) // nil model: no-op
	off := LatencyOff()
	start := time.Now()
	off.Inject(time.Hour)
	if time.Since(start) > time.Second {
		t.Fatal("disabled latency model injected delay")
	}
	cxl := LatencyCXL()
	if !cxl.Enabled || cxl.CXLLoad <= cxl.LocalLoad {
		t.Fatalf("CXL model should be enabled with CXLLoad > LocalLoad: %+v", cxl)
	}
	dram := LatencyDRAM()
	if !dram.Enabled || dram.MCASService != 0 {
		t.Fatalf("DRAM model misconfigured: %+v", dram)
	}
}

// TestSharedStatsMirrorsEveryCounter guards the published mirror: the
// cache counts in telemetry.CacheStats, so a counter added there is
// summed into every Snapshot only if publish and SharedStats carry it.
func TestSharedStatsMirrorsEveryCounter(t *testing.T) {
	c := newDev().NewCache()
	v := reflect.ValueOf(&c.stats).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetUint(uint64(100 + i))
	}
	want := c.Stats() // republishes
	if got := c.SharedStats(); got != want {
		t.Fatalf("SharedStats = %+v, want %+v: the mirror drops a counter", got, want)
	}
}
