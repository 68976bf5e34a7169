package memsim

// Lockstep property test for the open-addressing Cache rewrite: the
// reference model below is the pre-rewrite map-of-pointers
// implementation, kept verbatim as executable documentation of the SWcc
// semantics (unbounded residency, arbitrary staleness, dirty-word-
// granular writeback). The test drives the real Cache and the model with
// identical random operation sequences on twin devices and demands
// bit-identical observable behaviour after every step: returned values,
// residency, stats counters, and the entire device SWcc image.

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"cxlalloc/internal/telemetry"
	"cxlalloc/internal/xrand"
)

// refCache is the reference model: the original map-based SWcc cache,
// extended with the same drain-horizon persistence tracking the real
// Cache grew (recent = per-line durable floors since the last Fence).
type refCache struct {
	dev    *Device
	lines  map[int]*refLine
	stats  telemetry.CacheStats
	track  bool
	recent map[int]*refRev
}

type refLine struct {
	words [LineWords]uint64
	dirty uint8
}

type refRev struct {
	mask  uint8
	words [LineWords]uint64
}

func newRefCache(d *Device) *refCache {
	return &refCache{
		dev:    d,
		lines:  make(map[int]*refLine),
		track:  d.cfg.TrackPersist && !d.cfg.Coherent,
		recent: make(map[int]*refRev),
	}
}

func (c *refCache) line(w int) (*refLine, int) {
	idx := w / LineWords
	l := c.lines[idx]
	if l == nil {
		l = &refLine{}
		base := idx * LineWords
		for i := 0; i < LineWords; i++ {
			l.words[i] = c.dev.swccLoad(base + i)
		}
		c.lines[idx] = l
		c.stats.Fetches++
	} else {
		c.stats.Hits++
	}
	return l, w % LineWords
}

func (c *refCache) Load(w int) uint64 {
	c.stats.Loads++
	if c.dev.cfg.Coherent {
		return c.dev.swccLoad(w)
	}
	l, i := c.line(w)
	return l.words[i]
}

func (c *refCache) Store(w int, v uint64) {
	c.stats.Stores++
	if c.dev.cfg.Coherent {
		c.dev.swccStore(w, v)
		return
	}
	l, i := c.line(w)
	if c.track {
		idx := w / LineWords
		e := c.recent[idx]
		if e == nil {
			e = &refRev{mask: l.dirty, words: l.words}
			c.recent[idx] = e
		}
		if e.mask&(1<<uint(i)) == 0 {
			if l.dirty&(1<<uint(i)) != 0 {
				e.words[i] = l.words[i]
			} else {
				e.words[i] = c.dev.swccLoad(idx*LineWords + i)
			}
			e.mask |= 1 << uint(i)
		}
	}
	l.words[i] = v
	l.dirty |= 1 << uint(i)
}

func (c *refCache) LoadFresh(w int) uint64 {
	if c.dev.cfg.Coherent {
		// Mirrors the documented stats change: the no-op flush counts.
		c.stats.Flushes++
		c.stats.Loads++
		return c.dev.swccLoad(w)
	}
	c.Flush(w)
	return c.Load(w)
}

func (c *refCache) LoadFreshLine(w int) [LineWords]uint64 {
	if c.dev.cfg.Coherent {
		c.stats.Flushes++
		c.stats.Loads++
		var line [LineWords]uint64
		for i := range line {
			line[i] = c.dev.swccLoad(w/LineWords*LineWords + i)
		}
		return line
	}
	c.Flush(w)
	c.stats.Loads++
	l, _ := c.line(w)
	return l.words
}

func (c *refCache) Flush(w int) {
	c.stats.Flushes++
	if c.dev.cfg.Coherent {
		return
	}
	idx := w / LineWords
	l := c.lines[idx]
	if l == nil {
		return
	}
	c.writeback(idx, l)
	delete(c.lines, idx)
}

func (c *refCache) FlushRange(w, n int) {
	if n <= 0 {
		return
	}
	first := w / LineWords
	last := (w + n - 1) / LineWords
	for idx := first; idx <= last; idx++ {
		c.Flush(idx * LineWords)
	}
}

func (c *refCache) Fence() {
	c.stats.Fences++
	if c.track {
		c.recent = make(map[int]*refRev)
	}
}

func (c *refCache) writeback(idx int, l *refLine) {
	if l.dirty == 0 {
		return
	}
	base := idx * LineWords
	for i := 0; i < LineWords; i++ {
		if l.dirty&(1<<uint(i)) != 0 {
			c.dev.swccStore(base+i, l.words[i])
		}
	}
	l.dirty = 0
	c.stats.Writebacks++
}

func (c *refCache) WritebackAll() {
	for idx, l := range c.lines {
		c.writeback(idx, l)
	}
	if c.track {
		c.recent = make(map[int]*refRev) // everything drained => committed
	}
}

func (c *refCache) DiscardAll() {
	c.lines = make(map[int]*refLine)
	if c.track {
		c.recent = make(map[int]*refRev)
	}
}

func (c *refCache) Resident(w int) bool {
	_, ok := c.lines[w/LineWords]
	return ok
}

func (c *refCache) InPlay() []int32 {
	if !c.track || len(c.recent) == 0 {
		return nil
	}
	out := make([]int32, 0, len(c.recent))
	for idx := range c.recent {
		out = append(out, int32(idx))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// CrashDiscard mirrors Cache.CrashDiscard against the model state.
func (c *refCache) CrashDiscard(pol CrashPolicy) CrashOutcome {
	inPlay := c.InPlay()
	out := CrashOutcome{InPlay: inPlay}
	persist := make(map[int32]bool, len(inPlay))
	var rng *xrand.Rand
	if pol.Kind == PersistRandom {
		rng = xrand.New(pol.Seed)
	}
	for i, idx := range inPlay {
		var p bool
		switch pol.Kind {
		case PersistAll:
			p = true
		case PersistNone:
			p = false
		case PersistSubset:
			p = i < 64 && pol.Mask&(1<<uint(i)) != 0
		case PersistRandom:
			p = rng.Uint64()&1 != 0
		}
		persist[idx] = p
		if p {
			out.Persisted++
			if i < 64 {
				out.Mask |= 1 << uint(i)
			}
		} else {
			out.Dropped++
		}
	}
	for _, idx := range inPlay {
		if persist[idx] {
			continue
		}
		e := c.recent[int(idx)]
		for i := 0; i < LineWords; i++ {
			if e.mask&(1<<uint(i)) != 0 {
				c.dev.swccStore(int(idx)*LineWords+i, e.words[i])
			}
		}
	}
	for idx, l := range c.lines {
		if p, inWindow := persist[int32(idx)]; inWindow && !p {
			continue
		}
		c.writeback(idx, l)
	}
	c.lines = make(map[int]*refLine)
	if c.track {
		c.recent = make(map[int]*refRev)
	}
	return out
}

// TestCacheLockstepProperty drives the real Cache and the reference
// model through identical random operation sequences — two simulated
// threads per device, so cross-thread staleness and publish/subscribe
// interleavings are covered — and checks every observable after every
// operation, in both coherence modes.
func TestCacheLockstepProperty(t *testing.T) {
	const (
		words   = 256 // small region => frequent line reuse and collisions
		threads = 2
		ops     = 4000
		seeds   = 25
	)
	for _, coherent := range []bool{false, true} {
		for seed := uint64(1); seed <= seeds; seed++ {
			name := fmt.Sprintf("coherent=%v/seed=%d", coherent, seed)
			cfg := Config{SWccWords: words, Coherent: coherent}
			gotDev := NewDevice(cfg)
			refDev := NewDevice(cfg)
			var got [threads]*Cache
			var ref [threads]*refCache
			for i := 0; i < threads; i++ {
				got[i] = gotDev.NewCache()
				ref[i] = newRefCache(refDev)
			}
			rng := xrand.New(seed)
			for op := 0; op < ops; op++ {
				ti := rng.Intn(threads)
				g, r := got[ti], ref[ti]
				w := rng.Intn(words)
				var gv, rv uint64
				var kind string
				switch rng.Intn(17) {
				case 0, 1, 2, 3:
					kind = "Load"
					gv, rv = g.Load(w), r.Load(w)
				case 16:
					kind = "LoadFreshLine"
					if gl, rl := g.LoadFreshLine(w), r.LoadFreshLine(w); gl != rl {
						t.Fatalf("%s: op %d (%s tid=%d w=%d): got %v, reference %v",
							name, op, kind, ti, w, gl, rl)
					}
				case 4, 5, 6, 7:
					kind = "Store"
					v := rng.Uint64()
					g.Store(w, v)
					r.Store(w, v)
				case 8, 9:
					kind = "LoadFresh"
					gv, rv = g.LoadFresh(w), r.LoadFresh(w)
				case 10, 11:
					kind = "Flush"
					g.Flush(w)
					r.Flush(w)
				case 12:
					kind = "FlushRange"
					n := rng.Intn(40)
					if w+n > words {
						n = words - w
					}
					g.FlushRange(w, n)
					r.FlushRange(w, n)
				case 13:
					kind = "WritebackAll"
					g.WritebackAll()
					r.WritebackAll()
				case 14:
					kind = "DiscardAll"
					g.DiscardAll()
					r.DiscardAll()
				default:
					kind = "Fence"
					g.Fence()
					r.Fence()
				}
				if gv != rv {
					t.Fatalf("%s: op %d (%s tid=%d w=%d): got %d, reference %d",
						name, op, kind, ti, w, gv, rv)
				}
				if g.Resident(w) != r.Resident(w) {
					t.Fatalf("%s: op %d (%s tid=%d w=%d): residency diverged (got %v)",
						name, op, kind, ti, w, g.Resident(w))
				}
				if gs, rs := g.Stats(), r.stats; gs != rs {
					t.Fatalf("%s: op %d (%s tid=%d w=%d): stats diverged\n got %+v\n ref %+v",
						name, op, kind, ti, w, gs, rs)
				}
				for i := 0; i < words; i++ {
					if a, b := gotDev.swccLoad(i), refDev.swccLoad(i); a != b {
						t.Fatalf("%s: op %d (%s tid=%d w=%d): device word %d diverged: got %d, reference %d",
							name, op, kind, ti, w, i, a, b)
					}
				}
			}
			// Terminal check: every line any thread still holds reads the
			// same through both implementations.
			for i := 0; i < threads; i++ {
				for w := 0; w < words; w++ {
					if got[i].Load(w) != ref[i].Load(w) {
						t.Fatalf("%s: terminal Load(%d) diverged on thread %d", name, w, i)
					}
				}
			}
		}
	}
}

// TestCacheGrowthKeepsLines fills a cache far past its initial table
// capacity and verifies no line or dirty word is lost across the grow
// rehashes, then flushes everything and checks the device image.
func TestCacheGrowthKeepsLines(t *testing.T) {
	const words = 16384 // 2048 lines >> initialSlots
	d := NewDevice(Config{SWccWords: words})
	c := d.NewCache()
	for w := 0; w < words; w++ {
		c.Store(w, uint64(w)+1)
	}
	for w := 0; w < words; w++ {
		if got := c.Load(w); got != uint64(w)+1 {
			t.Fatalf("word %d = %d before flush", w, got)
		}
		if !c.Resident(w) {
			t.Fatalf("word %d not resident", w)
		}
	}
	c.FlushRange(0, words)
	probe := d.NewCache()
	for w := 0; w < words; w++ {
		if c.Resident(w) {
			t.Fatalf("word %d resident after FlushRange", w)
		}
		if got := probe.LoadFresh(w); got != uint64(w)+1 {
			t.Fatalf("device word %d = %d after flush", w, got)
		}
	}
	s := c.Stats()
	if s.Fetches != words/LineWords || s.Writebacks != words/LineWords {
		t.Fatalf("stats = %+v, want %d fetches and writebacks", s, words/LineWords)
	}
}

// TestCrashDiscardLockstepProperty extends the lockstep property to the
// adversarial persistence model: random operation sequences interleaved
// with CrashDiscard calls under every policy kind must keep the real
// Cache and the reference model bit-identical — in-play windows, crash
// outcomes, residency, stats, and the full device image.
func TestCrashDiscardLockstepProperty(t *testing.T) {
	const (
		words   = 256
		threads = 2
		ops     = 3000
		seeds   = 15
	)
	for seed := uint64(1); seed <= seeds; seed++ {
		name := fmt.Sprintf("seed=%d", seed)
		cfg := Config{SWccWords: words, TrackPersist: true}
		gotDev := NewDevice(cfg)
		refDev := NewDevice(cfg)
		var got [threads]*Cache
		var ref [threads]*refCache
		for i := 0; i < threads; i++ {
			got[i] = gotDev.NewCache()
			ref[i] = newRefCache(refDev)
		}
		rng := xrand.New(seed)
		for op := 0; op < ops; op++ {
			ti := rng.Intn(threads)
			g, r := got[ti], ref[ti]
			w := rng.Intn(words)
			var kind string
			switch rng.Intn(17) {
			case 0, 1, 2, 3:
				kind = "Load"
				if gv, rv := g.Load(w), r.Load(w); gv != rv {
					t.Fatalf("%s: op %d Load(%d) diverged: %d vs %d", name, op, w, gv, rv)
				}
			case 16:
				kind = "LoadFreshLine"
				if gl, rl := g.LoadFreshLine(w), r.LoadFreshLine(w); gl != rl {
					t.Fatalf("%s: op %d LoadFreshLine(%d) diverged: %v vs %v", name, op, w, gl, rl)
				}
			case 4, 5, 6, 7, 8, 9:
				kind = "Store"
				v := rng.Uint64()
				g.Store(w, v)
				r.Store(w, v)
			case 10, 11:
				kind = "Flush"
				g.Flush(w)
				r.Flush(w)
			case 12:
				kind = "FlushRange"
				n := rng.Intn(40)
				if w+n > words {
					n = words - w
				}
				g.FlushRange(w, n)
				r.FlushRange(w, n)
			case 13, 14:
				kind = "Fence"
				g.Fence()
				r.Fence()
			default:
				kind = "CrashDiscard"
				pol := CrashPolicy{
					Kind: CrashPolicyKind(rng.Intn(4)),
					Mask: rng.Uint64(),
					Seed: rng.Uint64(),
				}
				if ip, rip := g.InPlay(), r.InPlay(); !reflect.DeepEqual(ip, rip) {
					t.Fatalf("%s: op %d InPlay diverged: %v vs %v", name, op, ip, rip)
				}
				go1, ro := g.CrashDiscard(pol), r.CrashDiscard(pol)
				if !reflect.DeepEqual(go1, ro) {
					t.Fatalf("%s: op %d CrashDiscard(kind=%d) outcome diverged:\n got %+v\n ref %+v",
						name, op, pol.Kind, go1, ro)
				}
			}
			if g.Resident(w) != r.Resident(w) {
				t.Fatalf("%s: op %d (%s w=%d): residency diverged", name, op, kind, w)
			}
			if gs, rs := g.Stats(), r.stats; gs != rs {
				t.Fatalf("%s: op %d (%s w=%d): stats diverged\n got %+v\n ref %+v", name, op, kind, w, gs, rs)
			}
			for i := 0; i < words; i++ {
				if a, b := gotDev.swccLoad(i), refDev.swccLoad(i); a != b {
					t.Fatalf("%s: op %d (%s w=%d): device word %d diverged: %d vs %d",
						name, op, kind, w, i, a, b)
				}
			}
		}
	}
}

// TestCrashDiscardRandomMatchesSubset pins the replayability contract:
// a PersistRandom outcome's effective Mask, rerun as PersistSubset on an
// identical cache history, must leave an identical device image.
func TestCrashDiscardRandomMatchesSubset(t *testing.T) {
	build := func() (*Device, *Cache) {
		d := NewDevice(Config{SWccWords: 256, TrackPersist: true})
		c := d.NewCache()
		rng := xrand.New(7)
		for op := 0; op < 200; op++ {
			c.Store(rng.Intn(256), rng.Uint64())
			if op%37 == 0 {
				c.Fence()
			}
		}
		return d, c
	}
	d1, c1 := build()
	out := c1.CrashDiscard(CrashPolicy{Kind: PersistRandom, Seed: 99})
	if out.Dropped == 0 || out.Persisted == 0 {
		t.Fatalf("degenerate random outcome: %+v", out)
	}
	d2, c2 := build()
	out2 := c2.CrashDiscard(CrashPolicy{Kind: PersistSubset, Mask: out.Mask})
	if !reflect.DeepEqual(out.InPlay, out2.InPlay) || out.Mask != out2.Mask {
		t.Fatalf("subset replay diverged: %+v vs %+v", out, out2)
	}
	for w := 0; w < 256; w++ {
		if a, b := d1.swccLoad(w), d2.swccLoad(w); a != b {
			t.Fatalf("device word %d: random image %d != subset replay image %d", w, a, b)
		}
	}
}

// TestCrashDiscardDropsUnfencedFlush pins the adversary's core power: a
// flush not yet covered by a completed Fence is not durable — dropping
// the line reverts the device to its fence-time floor, even though the
// flush already wrote the new value through.
func TestCrashDiscardDropsUnfencedFlush(t *testing.T) {
	d := NewDevice(Config{SWccWords: 64, TrackPersist: true})
	c := d.NewCache()
	c.Store(3, 111)
	c.Flush(3)
	c.Fence() // 111 is durably committed
	c.Store(3, 222)
	c.Flush(3) // device now holds 222 — but no fence completed
	if got := d.swccLoad(3); got != 222 {
		t.Fatalf("flush did not reach device: %d", got)
	}
	out := c.CrashDiscard(CrashPolicy{Kind: PersistNone})
	if len(out.InPlay) != 1 || out.Dropped != 1 {
		t.Fatalf("outcome = %+v, want one dropped line", out)
	}
	if got := d.swccLoad(3); got != 111 {
		t.Fatalf("device word 3 = %d after drop, want the fenced floor 111", got)
	}
}

// TestCrashDiscardDrainsPreFenceDirt pins the drain-horizon boundary:
// dirt older than the last completed Fence is outside the adversary's
// reach — even drop-all writes it back, because the protocol relies on
// the cache draining completed operations' unflushed effects.
func TestCrashDiscardDrainsPreFenceDirt(t *testing.T) {
	d := NewDevice(Config{SWccWords: 64, TrackPersist: true})
	c := d.NewCache()
	c.Store(5, 333) // dirty, never flushed
	c.Fence()       // ...but the fence closes the window over it
	out := c.CrashDiscard(CrashPolicy{Kind: PersistNone})
	if len(out.InPlay) != 0 {
		t.Fatalf("outcome = %+v, want an empty window", out)
	}
	if got := d.swccLoad(5); got != 333 {
		t.Fatalf("device word 5 = %d, want pre-fence dirt 333 drained", got)
	}
	if c.Resident(5) {
		t.Fatal("cache not emptied by CrashDiscard")
	}
}
