package core

import (
	"testing"

	"cxlalloc/internal/atomicx"
)

// Direct tests of the §3.2.2 SWcc protocol: what must be flushed, what
// may stay cached, and why each stale-read case is safe. These run in
// ModeHWcc (SWcc cache simulation ON), so a missing flush would be a
// real lost store, not a no-op.

func swccEnv(t *testing.T) *env {
	cfg := testConfig()
	cfg.Mode = atomicx.ModeHWcc
	cfg.CheckInvariants = false
	return newEnv(t, cfg, 2, 2) // tids 0,1 (proc 0); 2,3 (proc 1)
}

// Local operations keep metadata cached: with recovery disabled (no
// oplog flushes) a thread churning inside one slab performs zero
// flushes after warmup — the property that lets cxlalloc-mcas keep 80%
// of its throughput (§5.4.2).
func TestSWccLocalOpsKeepMetadataCached(t *testing.T) {
	cfg := testConfig()
	cfg.Mode = atomicx.ModeHWcc
	cfg.NonRecoverable = true
	cfg.CheckInvariants = false
	e := newEnv(t, cfg, 1, 1)
	// Warm up: first alloc extends the heap and initializes a slab.
	p := e.alloc(0, 64)
	e.h.Free(0, p)
	_, _, flushesBefore, _ := e.h.CacheStatsFor(0)
	for i := 0; i < 1000; i++ {
		q := e.alloc(0, 64)
		e.h.Free(0, q)
	}
	_, _, flushesAfter, _ := e.h.CacheStatsFor(0)
	if flushesAfter != flushesBefore {
		t.Fatalf("local alloc/free churn performed %d flushes; metadata should stay cached",
			flushesAfter-flushesBefore)
	}
}

// Giving up ownership publishes the descriptor: after a spill to the
// global free list, a cold observer sees owner == 0 in memory.
func TestSWccSpillPublishesDescriptor(t *testing.T) {
	e := swccEnv(t)
	blocks := smallBlocks(e)
	var ps []Ptr
	for i := 0; i < (e.cfg.UnsizedThreshold+3)*blocks; i++ {
		ps = append(ps, e.alloc(0, smallMax))
	}
	for _, p := range ps {
		e.h.Free(0, p)
	}
	head := payloadOf(e.h.dcas.Load(0, e.h.small.freeW))
	if head == 0 {
		t.Fatal("nothing spilled")
	}
	probe := e.dev.NewCache() // cold cache: reads memory, not tid 0's cache
	w0 := probe.LoadFresh(e.h.small.descW0(int(head - 1)))
	if w0Owner(w0) != 0 {
		t.Fatalf("spilled slab's owner in memory = %d; descriptor not flushed before publish", w0Owner(w0))
	}
}

// A slab emptied as 16 B (5 descriptor lines dirty) and re-initialized
// as 1 KiB (1 line) by the same owner must publish all 5 lines when it
// is released: the dirty extent in word 0 carries them across the
// re-init. Otherwise the old owner's cache keeps the 16 B bitset lines
// dirty, and their eventual write-back (a crash, or any later drain)
// lands on the next owner's bitset, marking its taken blocks free — the
// ledger audit sees more free bits than the countdown allows.
func TestReinitToFewerLinesPublishesOldExtent(t *testing.T) {
	e := swccEnv(t)
	const owner, adopter, auditor = 0, 2, 1
	s := e.h.small
	p := e.alloc(owner, 16)
	idx := s.slabOf(p)
	e.h.Free(owner, p)
	e.h.DrainMagazines(owner) // empty as 16 B: back to the unsized list
	var big []Ptr
	for i := 0; i < smallBlocks(e); i++ {
		big = append(big, e.alloc(owner, smallMax)) // re-init as 1 KiB; the last detaches
	}
	for _, q := range big {
		e.h.Free(adopter, q) // the last remote free steals the slab
	}
	// The adopter re-inits the slab as 16 B and takes blocks whose bits
	// lie past line 0 (bitset words 6 and 7 are in line 1).
	var taken []Ptr
	for i := 0; i < 8*64; i++ {
		taken = append(taken, e.alloc(adopter, 16))
	}
	if s.slabOf(big[0]) != idx || s.slabOf(taken[0]) != idx || s.slabOf(taken[len(taken)-1]) != idx {
		t.Fatalf("the 1 KiB and 16 B incarnations are not both slab %d", idx)
	}
	for _, q := range taken {
		e.h.Free(owner, q) // remote: the countdown falls, the bits stay clear
	}
	e.h.threads[adopter].cache.WritebackAll()
	e.h.threads[owner].cache.WritebackAll()
	e.checkAll(auditor)
	if err := e.h.AuditEmpty(auditor); err != nil {
		t.Fatalf("ledger: %v", err)
	}
}

// Disowning publishes owner == 0 so future freers take the remote path.
func TestSWccDisownPublishesOwnerClear(t *testing.T) {
	e := swccEnv(t)
	first := e.alloc(0, smallMax)
	idx := e.h.small.slabOf(first)
	e.h.Free(1, first) // remote free while active
	for i := 0; i < smallBlocks(e); i++ {
		e.alloc(0, smallMax)
	}
	probe := e.dev.NewCache()
	w0 := probe.LoadFresh(e.h.small.descW0(idx))
	if w0Owner(w0) != 0 {
		t.Fatalf("disowned slab's owner in memory = %d; flush before unlink missing", w0Owner(w0))
	}
}

// §3.2.2's case 4: a freeing thread holding a STALE cached owner value
// still frees correctly, because the remote path depends only on the
// HWcc countdown, never on the cached descriptor.
func TestSWccStaleCachedOwnerIsSafe(t *testing.T) {
	e := swccEnv(t)
	// 1. Thread 0 fills a slab completely: it DETACHES, which flushes
	//    the descriptor with owner == tid0 into memory.
	blocks := smallBlocks(e)
	ps := fillExactlyOneSlab(e, 0)
	idx := e.h.small.slabOf(ps[0])
	// 2. Thread 1 frees one block remotely, caching the descriptor
	//    line — owner == tid0, straight from memory.
	e.h.Free(1, ps[0])
	ts1 := e.h.ts(1)
	if !ts1.cache.Resident(e.h.small.descW0(idx)) {
		t.Fatal("test setup: thread 1 did not cache the descriptor line")
	}
	if got := w0Owner(e.h.small.loadW0(ts1, idx)); got != 1 {
		t.Fatalf("thread 1 cached owner %d, want 1", got)
	}
	// 3. Thread 0 frees one block locally (reattach) and refills the
	//    slab: it goes full again WITH a remote free on record, so it
	//    is DISOWNED — owner == 0 flushed to memory.
	e.h.Free(0, ps[1])
	refill := e.alloc(0, smallMax)
	if e.h.small.slabOf(refill) != idx {
		t.Fatalf("refill went to slab %d, want %d", e.h.small.slabOf(refill), idx)
	}
	cached := w0Owner(e.h.small.loadW0(ts1, idx))
	fresh := w0Owner(e.dev.NewCache().LoadFresh(e.h.small.descW0(idx)))
	if cached != 1 || fresh != 0 {
		t.Fatalf("staleness not established: cached=%d fresh=%d (want 1 vs 0)", cached, fresh)
	}
	// 4. Thread 1 frees every remaining block through its STALE view.
	//    Every free must take the remote path (cached owner tid0 != 1's
	//    own ID, memory owner 0 != too — both route remote; §3.2.2 case
	//    4), the countdown must hit zero, and thread 1 steals the slab.
	e.h.Free(1, refill)
	for _, p := range ps[2:] {
		e.h.Free(1, p)
	}
	if got := e.h.small.remoteCount(1, idx); got != 0 {
		t.Fatalf("countdown = %d after all frees; stale-owner frees mis-routed", got)
	}
	if got := w0Owner(e.h.small.loadW0(ts1, idx)); got != 2 {
		t.Fatalf("slab owner = %d, want 2 (stolen by thread 1)", got)
	}
	_ = blocks
	e.checkAll(0)
}

// The global free list's next pointers are read fresh: slabs spilled by
// one thread are correctly popped by a thread whose cache never saw
// them (different process, cold lines).
func TestSWccGlobalListCrossProcessPop(t *testing.T) {
	e := swccEnv(t)
	blocks := smallBlocks(e)
	var ps []Ptr
	for i := 0; i < (e.cfg.UnsizedThreshold+4)*blocks; i++ {
		ps = append(ps, e.alloc(0, smallMax))
	}
	for _, p := range ps {
		e.h.Free(0, p)
	}
	// Thread 2 lives in the other process; its allocations must come
	// from the global list (popGlobal) without extending the heap.
	s0, _ := e.h.HeapLengths(2)
	var qs []Ptr
	for i := 0; i < 2*blocks; i++ {
		qs = append(qs, e.alloc(2, smallMax))
	}
	s1, _ := e.h.HeapLengths(2)
	if s1 != s0 {
		t.Fatalf("cross-process pop extended the heap (%d -> %d): stale global list reads", s0, s1)
	}
	for _, p := range qs {
		e.h.Free(2, p)
	}
	e.checkAll(0)
}

// Huge-heap SWcc data is treated as uncachable: a descriptor written by
// one thread is immediately visible to a reader in another process.
func TestSWccHugeDescriptorImmediatelyVisible(t *testing.T) {
	e := swccEnv(t)
	p := e.alloc(0, largeMax+1)
	// Thread 2 (other process) finds the descriptor without any action
	// from thread 0 beyond the allocation itself.
	ts2 := e.h.ts(2)
	if _, ok := e.h.findDesc(ts2, 0, p); !ok {
		t.Fatal("huge descriptor not visible cross-process: flush-after-write missing")
	}
	if got := e.h.hugeUsableSize(ts2, 2, p); got < largeMax+1 {
		t.Fatalf("cross-process usable size = %d", got)
	}
	e.h.Free(2, p)
	e.checkAll(0)
}

// A hazard scan must see a peer's publication over a stale cached copy
// of the peer's hazard lines, and must see its removal too. Thread 1
// (process 1) owns a huge block; thread 0 (process 0) maps it, which
// publishes thread 0's hazard, after thread 1 cached thread 0's hazard
// lines while they were empty. A scan that trusted those lines would
// let the owner reclaim a block thread 0 still maps (the unsafe
// direction); once thread 0 retires the hazard, a scan that trusted the
// lines it fetched while the hazard was there would keep the descriptor
// forever (the leak direction).
func TestHazardScanSeesPeerPublishOverStaleCopy(t *testing.T) {
	cfg := testConfig()
	cfg.Mode = atomicx.ModeHWcc
	e := newEnv(t, cfg, 2, 1) // tid 0 in process 0, tid 1 in process 1
	const peer, owner = 0, 1
	p := e.alloc(owner, largeMax+1)
	n := uint64(e.h.UsableSize(owner, p))

	ts := e.h.ts(owner)
	for i := 0; i < cfg.NumHazards; i++ {
		if v := ts.cache.Load(e.h.hazardW(peer, i)); v != 0 {
			t.Fatalf("peer hazard slot %d = %#x before the peer mapped anything", i, v)
		}
	}
	e.spaces[peer].Touch(peer, p, n) // fault: publish, then map
	if !e.spaces[peer].MappedRange(p, n) {
		t.Fatal("touch did not map the block into the peer's process")
	}
	if !ts.cache.Resident(e.h.hazardW(peer, 0)) {
		t.Fatal("the owner's stale copy of the peer's hazard line is gone before the scan")
	}

	e.h.Free(owner, p) // frees, then reclaims: the peer's hazard must hold it
	if _, ok := e.h.findDesc(ts, owner, p); !ok {
		t.Fatal("owner reclaimed a descriptor whose block the peer still maps: the hazard scan read a stale line")
	}
	if !e.h.hazardPublished(ts, p) {
		t.Fatal("hazardPublished missed the peer's hazard behind a stale cached line")
	}

	e.h.Maintain(peer) // the peer sees the free bit: unmap, then clear its hazard
	if e.spaces[peer].MappedRange(p, 1) {
		t.Fatal("peer's Maintain did not unmap the freed block")
	}
	if !ts.cache.Resident(e.h.hazardW(peer, 0)) {
		t.Fatal("the owner holds no copy of the peer's hazard line from before the retirement")
	}
	if e.h.hazardPublished(ts, p) {
		t.Fatal("hazardPublished still sees the peer's retired hazard in a stale cached line")
	}
	e.h.Maintain(owner)
	if _, ok := e.h.findDesc(ts, owner, p); ok {
		t.Fatal("owner kept the descriptor after the peer retired its hazard")
	}
	e.checkAll(owner)
}
