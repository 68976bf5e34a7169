package memsim

import (
	"sync/atomic"

	"cxlalloc/internal/telemetry"
)

// LineWords is the number of 64-bit words per cache line (64 bytes, the
// x86 line size the paper's flush/fence reasoning assumes).
const LineWords = 8

const (
	lineShift = 3 // log2(LineWords)
	lineMask  = LineWords - 1
	emptyLine = int32(-1) // slot/MRU sentinel: no line
)

// Cache is one simulated core-private CPU cache over the device's SWcc
// region. The paper assumes threads are pinned to cores (§3.2.2), so
// each simulated thread owns exactly one Cache and no two threads share
// one. A Cache is therefore not safe for concurrent use.
//
// Semantics:
//
//   - Load returns the cached copy if the line is resident, otherwise it
//     fetches the line from device memory. A resident line can be
//     arbitrarily stale — that is the point of the simulation.
//   - Store writes into the cached line (write-allocate, write-back) and
//     marks the word dirty. Nothing reaches device memory until Flush.
//   - Flush writes back only the dirty words of the line and evicts it.
//     Writing back whole lines would fabricate coherence bugs that real
//     hardware does not have (two cores never hold the same line dirty
//     in a real MESI system; in our model they can hold copies, so we
//     must not let a clean word clobber another thread's flushed update).
//   - Fence is an ordering marker. Device words are accessed atomically,
//     so the Go runtime already provides the ordering; Fence exists so
//     the allocator code documents and counts its fences exactly where
//     the paper requires them.
//
// When the device is configured Coherent, all operations bypass the
// cache and hit memory directly; Flush and Fence become no-ops. The
// allocator code is identical in both modes, matching the paper's claim
// that cxlalloc "remains correct if there is full HWcc".
//
// Implementation (DESIGN.md §7): because every allocator metadata access
// funnels through here, the line table is an open-addressing hash table
// of *inline* lines — one flat pointer-free backing array the GC never
// scans, and a resident access never allocates. Deletion (Flush evicts)
// uses backward-shift compaction, so there are no tombstones and probe
// chains stay short at any load factor. A last-line MRU fast path sits
// in front of the table: metadata words are heavily line-local
// (descriptor words are adjacent), so most Load/Store calls reduce to
// one integer compare plus an array access.
type Cache struct {
	dev   *Device
	stats telemetry.CacheStats

	// owner is the simulated thread this core-private cache belongs to
	// (telemetry.SystemTID until SetOwner); it tags trace events.
	owner int

	// pub is the atomically-published mirror of stats, refreshed by the
	// owner every pubEvery fences (and at explicit sync points), so
	// other goroutines can read a recent view via SharedStats while the
	// owner keeps mutating the plain counters lock-free. Staleness is
	// bounded by pubEvery fences — a handful of allocator ops — which is
	// what a live metrics snapshot needs; exact reads still exist via
	// Stats for quiesced callers.
	pub      [7]atomic.Uint64
	sincePub uint32

	tab    []cacheSlot
	mask   uint32 // len(tab)-1; len(tab) is a power of two
	n      uint32 // occupied slots
	growAt uint32 // occupancy that triggers doubling
	shift  uint   // 64 - log2(len(tab)), for Fibonacci hashing

	// MRU fast path: tab[lastPos] holds line lastIdx (emptyLine = none).
	// Invalidated whenever a slot moves (eviction, rehash).
	lastIdx int32
	lastPos uint32

	// evTick is the flush/fence trace-sampling counter (telemetry
	// SampleHot): EvFlush/EvFence are the highest-rate events in the
	// system, so only every HotSamplePeriod-th one is recorded. The
	// Flushes/Fences counters stay exact.
	evTick uint32

	// Per-line durability tracking (persist.go), enabled by the device's
	// TrackPersist config. recent maps every line touched since the last
	// completed Fence to its durable floor — the device image the line
	// reverts to if a crash drops it. Off the adversarial-persistence
	// harness this stays nil and the hot path pays one branch.
	track  bool
	recent map[int32]*revEntry
}

// cacheSlot is one inline cache line. idx is the line index within the
// SWcc region, or emptyLine for a free slot.
type cacheSlot struct {
	idx   int32
	dirty uint8 // bitmask: bit i set => words[i] modified locally
	words [LineWords]uint64
}

// initialSlots is the starting table size: 64 slots ≈ 4.5 KiB per
// thread, enough for a thread's descriptor working set without growth in
// the common case.
const initialSlots = 64

// NewCache returns an empty cache over the device's SWcc region.
func (d *Device) NewCache() *Cache {
	c := &Cache{dev: d, owner: telemetry.SystemTID, lastIdx: emptyLine}
	if d.cfg.TrackPersist && !d.cfg.Coherent {
		c.track = true
		c.recent = make(map[int32]*revEntry)
	}
	c.setTable(make([]cacheSlot, initialSlots))
	return c
}

// SetOwner records the simulated thread that owns this cache; trace
// events emitted by the cache carry this tid.
func (c *Cache) SetOwner(tid int) { c.owner = tid }

// pubEvery is the publish cadence in fences. Every allocator op fences
// at least once (the oplog commit), so the shared mirror lags the plain
// counters by at most a few dozen ops — and the publish cost (seven
// atomic stores) amortizes to well under a cycle per cache access.
const pubEvery = 64

// publish refreshes the shared mirror from the plain counters. Only the
// owning thread may call it.
func (c *Cache) publish() {
	c.sincePub = 0
	c.pub[0].Store(c.stats.Loads)
	c.pub[1].Store(c.stats.Hits)
	c.pub[2].Store(c.stats.Stores)
	c.pub[3].Store(c.stats.Fetches)
	c.pub[4].Store(c.stats.Writebacks)
	c.pub[5].Store(c.stats.Flushes)
	c.pub[6].Store(c.stats.Fences)
}

// SharedStats returns the last published counters. Unlike Stats it is
// safe to call from any goroutine while the owner is running; the view
// lags the owner by at most pubEvery fences.
func (c *Cache) SharedStats() telemetry.CacheStats {
	return telemetry.CacheStats{
		Loads:      c.pub[0].Load(),
		Hits:       c.pub[1].Load(),
		Stores:     c.pub[2].Load(),
		Fetches:    c.pub[3].Load(),
		Writebacks: c.pub[4].Load(),
		Flushes:    c.pub[5].Load(),
		Fences:     c.pub[6].Load(),
	}
}

// setTable installs tab (len a power of two) as the — empty — line
// table and derives the probe parameters.
func (c *Cache) setTable(tab []cacheSlot) {
	for i := range tab {
		tab[i].idx = emptyLine
	}
	c.tab = tab
	c.mask = uint32(len(tab) - 1)
	c.growAt = uint32(len(tab)/4) * 3
	c.shift = 64 - uint(trailingOnes(c.mask))
	c.n = 0
	c.lastIdx = emptyLine
}

// trailingOnes counts the set bits of a 2^k-1 mask (i.e. k).
func trailingOnes(m uint32) int {
	k := 0
	for ; m != 0; m >>= 1 {
		k++
	}
	return k
}

// home is the preferred slot of line idx: Fibonacci hashing spreads the
// strided line indices allocator metadata produces evenly, whatever the
// table size.
func (c *Cache) home(idx int32) uint32 {
	return uint32((uint64(uint32(idx)) * 0x9E3779B97F4A7C15) >> c.shift)
}

// find locates line idx. It returns the slot holding it (ok=true), or
// the empty slot where it would be inserted (ok=false).
func (c *Cache) find(idx int32) (pos uint32, ok bool) {
	pos = c.home(idx)
	for {
		s := &c.tab[pos]
		if s.idx == idx {
			return pos, true
		}
		if s.idx == emptyLine {
			return pos, false
		}
		pos = (pos + 1) & c.mask
	}
}

// fetch returns the slot holding line idx, fetching it from device
// memory if it is not resident, and records it as the MRU line.
func (c *Cache) fetch(idx int32) uint32 {
	pos, ok := c.find(idx)
	if ok {
		c.stats.Hits++
	} else {
		if c.n >= c.growAt {
			c.grow()
			pos, _ = c.find(idx)
		}
		s := &c.tab[pos]
		s.idx = idx
		s.dirty = 0
		base := int(idx) << lineShift
		for i := 0; i < LineWords; i++ {
			s.words[i] = c.dev.swccLoad(base + i)
		}
		c.n++
		c.stats.Fetches++
	}
	c.lastIdx = idx
	c.lastPos = pos
	return pos
}

// grow doubles the table, re-slotting every resident line. This is the
// only allocation on the access path, amortized O(1) and absent entirely
// once the table covers the thread's working set.
func (c *Cache) grow() {
	old := c.tab
	c.setTable(make([]cacheSlot, 2*len(old)))
	for i := range old {
		if old[i].idx == emptyLine {
			continue
		}
		pos, _ := c.find(old[i].idx)
		c.tab[pos] = old[i]
		c.n++
	}
}

// evict removes the entry at pos by backward-shift compaction: every
// entry in the following probe cluster whose home lies outside the
// cyclic interval (hole, entry] slides back into the hole, so lookups
// need no tombstone checks.
func (c *Cache) evict(pos uint32) {
	mask := c.mask
	i := pos
	for {
		c.tab[i].idx = emptyLine
		j := i
		for {
			j = (j + 1) & mask
			s := &c.tab[j]
			if s.idx == emptyLine {
				c.n--
				c.lastIdx = emptyLine
				return
			}
			k := c.home(s.idx)
			// Does k lie cyclically in (i, j]? Then s is reachable from
			// its home without passing the hole and may stay.
			if i <= j {
				if i < k && k <= j {
					continue
				}
			} else if i < k || k <= j {
				continue
			}
			c.tab[i] = *s
			i = j
			break
		}
	}
}

// Stats returns a copy of the event counters. It is exact but may only
// be called by the owning thread, or with the owner quiesced; use
// SharedStats for concurrent readers. Calling it also republishes the
// shared mirror, so a quiesce-then-Stats sequence leaves SharedStats
// exact too.
func (c *Cache) Stats() telemetry.CacheStats {
	c.publish()
	return c.stats
}

// Load returns SWcc word w, possibly from a stale cached line.
func (c *Cache) Load(w int) uint64 {
	c.stats.Loads++
	if c.dev.cfg.Coherent {
		return c.dev.swccLoad(w)
	}
	idx := int32(uint(w) >> lineShift)
	if idx == c.lastIdx {
		c.stats.Hits++
		return c.tab[c.lastPos].words[uint(w)&lineMask]
	}
	return c.tab[c.fetch(idx)].words[uint(w)&lineMask]
}

// Store writes v to SWcc word w in this thread's cache only.
func (c *Cache) Store(w int, v uint64) {
	c.stats.Stores++
	if c.dev.cfg.Coherent {
		c.dev.swccStore(w, v)
		return
	}
	idx := int32(uint(w) >> lineShift)
	var s *cacheSlot
	if idx == c.lastIdx {
		c.stats.Hits++
		s = &c.tab[c.lastPos]
	} else {
		s = &c.tab[c.fetch(idx)]
	}
	i := uint(w) & lineMask
	if c.track {
		c.capture(s, i)
	}
	s.words[i] = v
	s.dirty |= 1 << i
}

// LoadFresh invalidates the line containing w (writing back any dirty
// words first, so the caller cannot lose its own updates) and then loads
// w from device memory. This is the paper's "flush and fence before each
// load" pattern for reading another thread's published metadata.
func (c *Cache) LoadFresh(w int) uint64 {
	if c.dev.cfg.Coherent {
		// Count the flush the incoherent path performs even though it is
		// a no-op here, so Flushes is comparable across modes. (Fetches
		// and Writebacks still differ: a coherent device has no cache.)
		c.stats.Flushes++
		c.stats.Loads++
		return c.dev.swccLoad(w)
	}
	c.Flush(w)
	return c.Load(w)
}

// LoadFreshLine is LoadFresh for the whole line containing w: one flush
// (writing back the caller's dirty words before the eviction, as Flush
// does), one fetch, and the line's words returned by value. It counts
// one flush, one load and one fetch, with no hit. A line fetch is not an
// atomic snapshot: each word is its device value at some instant after
// the call began, which is what a loop of LoadFresh calls guarantees too.
func (c *Cache) LoadFreshLine(w int) [LineWords]uint64 {
	if c.dev.cfg.Coherent {
		// The no-op flush counts, as in LoadFresh.
		c.stats.Flushes++
		c.stats.Loads++
		var line [LineWords]uint64
		for i := range line {
			line[i] = c.dev.swccLoad(w&^lineMask + i)
		}
		return line
	}
	c.Flush(w)
	c.stats.Loads++
	return c.tab[c.fetch(int32(uint(w)>>lineShift))].words
}

// Flush writes back the dirty words of the line containing w and evicts
// the line. Flushing a non-resident line is a no-op (like CLFLUSH of an
// uncached address).
func (c *Cache) Flush(w int) {
	c.stats.Flushes++
	if telemetry.Enabled() && telemetry.SampleHot(&c.evTick) {
		telemetry.Emit(c.owner, telemetry.EvFlush, uint64(w), 0)
	}
	if c.dev.cfg.Coherent {
		return
	}
	pos, ok := c.find(int32(uint(w) >> lineShift))
	if !ok {
		return
	}
	c.writeback(&c.tab[pos])
	c.evict(pos)
}

// FlushOpt writes back the dirty words of the line containing w but
// keeps the line resident (CLWB to Flush's CLFLUSH). Durability-wise it
// is identical to Flush — the dirty words reach device memory and the
// next Fence commits them — but the line stays cached, so words a
// thread rewrites every operation (the oplog record, a magazine line)
// are not churned through evict + refetch. Flushing a clean or
// non-resident line is a no-op, which is what coalesces duplicate
// flushes of the same line for free: the dirty mask is the flush set.
func (c *Cache) FlushOpt(w int) {
	c.stats.Flushes++
	if telemetry.Enabled() && telemetry.SampleHot(&c.evTick) {
		telemetry.Emit(c.owner, telemetry.EvFlush, uint64(w), 0)
	}
	if c.dev.cfg.Coherent {
		return
	}
	if pos, ok := c.find(int32(uint(w) >> lineShift)); ok {
		c.writeback(&c.tab[pos])
	}
}

// FlushRange flushes every line intersecting words [w, w+n).
func (c *Cache) FlushRange(w, n int) {
	if n <= 0 {
		return
	}
	first := w / LineWords
	last := (w + n - 1) / LineWords
	for idx := first; idx <= last; idx++ {
		c.Flush(idx * LineWords)
	}
}

// Fence orders prior flushes before subsequent operations. In the
// simulator the underlying stores are already sequentially consistent,
// so Fence only records that the protocol required a fence here.
func (c *Cache) Fence() {
	c.stats.Fences++
	if telemetry.Enabled() && telemetry.SampleHot(&c.evTick) {
		telemetry.Emit(c.owner, telemetry.EvFence, 0, 0)
	}
	if c.track && len(c.recent) > 0 {
		// A completed fence is the durability commit point: every flush
		// issued before it has reached the device, and every line dirtied
		// before it is assumed drained by the time a later crash is
		// resolved (the drain-horizon model, persist.go).
		clear(c.recent)
	}
	if c.sincePub++; c.sincePub >= pubEvery {
		c.publish()
	}
}

func (c *Cache) writeback(s *cacheSlot) {
	if s.dirty == 0 {
		return
	}
	base := int(s.idx) << lineShift
	for i := 0; i < LineWords; i++ {
		if s.dirty&(1<<uint(i)) != 0 {
			c.dev.swccStore(base+i, s.words[i])
		}
	}
	s.dirty = 0
	c.stats.Writebacks++
}

// WritebackAll writes back every dirty line but keeps lines resident.
// It models a thread crash where the host survives: the core's cache
// eventually drains to memory even though the thread is gone.
func (c *Cache) WritebackAll() {
	for i := range c.tab {
		if c.tab[i].idx != emptyLine {
			c.writeback(&c.tab[i])
		}
	}
	if c.track {
		clear(c.recent) // everything drained => everything committed
	}
	c.publish()
}

// DiscardAll drops every line, losing dirty data. It models the harsher
// failure where cached state is gone (host reboot), and is also used
// when a recovered thread must start cold so it cannot observe its own
// pre-crash stale lines.
func (c *Cache) DiscardAll() {
	for i := range c.tab {
		c.tab[i].idx = emptyLine
	}
	c.n = 0
	c.lastIdx = emptyLine
	if c.track {
		clear(c.recent)
	}
	// Republish the stats mirror like WritebackAll does: DiscardAll runs
	// at crash/recovery boundaries, exactly when a concurrent Snapshot
	// may read the mirrors, and skipping the refresh here left them
	// stale-by-a-window at the one moment freshness matters.
	c.publish()
}

// Resident reports whether the line containing w is cached. Tests use it
// to assert protocol steps evicted what they must.
func (c *Cache) Resident(w int) bool {
	_, ok := c.find(int32(uint(w) >> lineShift))
	return ok
}
