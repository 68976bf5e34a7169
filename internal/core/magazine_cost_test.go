package core

import (
	"fmt"
	"maps"
	"math/bits"
	"slices"
	"strings"
	"testing"

	"cxlalloc/internal/crash"
	"cxlalloc/internal/telemetry"
	"cxlalloc/internal/xrand"
)

// The magazine fast path's device cost, counted the way dcas_cost_test.go
// counts a remote free: exact per-thread cache events on an incoherent
// pod with no latency model, so every number repeats on any machine. A
// steady-state pop and a magazine free each write back exactly one line
// — the magazine line — under one fence; a second line (such as the
// pop's handoff record kept in the oplog) shows up here first.

// lineCost runs f, which only tid may run, and returns what tid's cache
// counted meanwhile.
func lineCost(e *env, tid int, f func()) telemetry.CacheStats {
	c := e.h.threads[tid].cache
	s0 := c.Stats()
	f()
	return telemetry.Delta(c.Stats(), s0)
}

// warmMagazine has tid allocate size-byte small blocks until its class
// magazine holds a live window, and returns the mirror and the blocks.
func warmMagazine(t *testing.T, e *env, tid, size int) (*magSlot, []Ptr) {
	t.Helper()
	var ptrs []Ptr
	for i := 0; i < 4; i++ {
		ptrs = append(ptrs, e.alloc(tid, size))
		if m := e.h.small.magAt(&e.h.threads[tid], smallClassOf(size)); m != nil && m.mask != 0 {
			return m, ptrs
		}
	}
	t.Fatalf("no live class-%d magazine after four allocations", smallClassOf(size))
	return nil, nil
}

// wantOneLine fails unless c is one flush, one write-back, one fence and
// no fetch.
func wantOneLine(t *testing.T, op string, c telemetry.CacheStats) {
	t.Helper()
	if c.Flushes != 1 || c.Writebacks != 1 || c.Fences != 1 || c.Fetches != 0 {
		t.Fatalf("%s: %d flushes, %d write-backs, %d fences, %d fetches; want 1, 1, 1, 0",
			op, c.Flushes, c.Writebacks, c.Fences, c.Fetches)
	}
}

// A steady-state pop is one line: the handoff record rides in the
// magazine line it flushes, and the oplog word is never stored. The
// word is seeded with a record no code path writes (opNone with
// operands), so any writeOplog or clearOplog in the pop replaces it.
func TestMagPopCostsOneLine(t *testing.T) {
	e, _ := costEnv(t)
	const tid = 0
	m, _ := warmMagazine(t, e, tid, smallMax)
	ts := &e.h.threads[tid]
	ow := e.h.lay.oplogW(tid)
	sentinel := packOp(opNone, 1, 2, 3)
	ts.cache.Store(ow, sentinel)
	ts.cache.FlushOpt(ow)
	ts.cache.Fence()

	for i := 0; i < 3 && m.mask != 0; i++ {
		before := m.mask
		c := lineCost(e, tid, func() { e.alloc(tid, smallMax) })
		if m.mask != before&(before-1) {
			t.Fatalf("pop %d did not take the magazine's lowest block (mask %#x -> %#x)", i, before, m.mask)
		}
		wantOneLine(t, "magazine pop", c)
		if got := ts.cache.Load(ow); got != sentinel {
			t.Fatalf("pop %d stored %#x to the oplog word", i, got)
		}
	}
}

// A Free into the magazine's window is one line too: the mask-set,
// flushed and fenced. It also writes back a pop's lazily cleared
// record, which shares the line.
func TestMagFreeCostsOneLine(t *testing.T) {
	for _, r := range localRuns {
		if r.freePoint == "" {
			continue
		}
		t.Run(r.name, func(t *testing.T) {
			e, inj := costEnv(t)
			inj.EnableCoverage()
			run, keep := r.setup(t, e, 1)
			m := e.h.small.magAt(&e.h.threads[0], smallClassOf(64))
			before := m.mask
			visits0 := inj.Points()[r.freePoint]
			c := lineCost(e, 0, func() { e.h.Free(0, run[0]) })
			if bits.OnesCount64(m.mask) != bits.OnesCount64(before)+1 {
				t.Fatalf("free did not land in the magazine (mask %#x -> %#x)", before, m.mask)
			}
			wantOneLine(t, r.name+" free", c)
			if v := inj.Points()[r.freePoint] - visits0; v != 1 {
				t.Fatalf("%s free visited %s %d times, want 1", r.name, r.freePoint, v)
			}
			if rec := magMetaRecord(e.dev.NewCache().LoadFresh(e.h.small.magW(0, smallClassOf(64)))); rec != 0 {
				t.Fatalf("pop's handoff record %d still durable after the free's fence", rec)
			}
			for _, p := range keep {
				e.h.Free(0, p)
			}
			auditDrained(t, e)
		})
	}
}

// One live block of one class, in alloc/free pairs on a fresh heap —
// BenchmarkSmallMallocFree's shape. The first alloc opens the magazine's
// window on a fresh slab, and every later pair pops from it and frees
// back into it: one refill in all, no slab init or empty transition
// after the first pair, and at most one flushed line per op. Were the
// window opened only by a Free, the first block would come from the
// classic take, its Free would empty the slab, and the next alloc would
// init it again, every pair.
func TestOneLiveBlockKeepsItsWindow(t *testing.T) {
	const pairs = 256
	e, inj := costEnv(t)
	inj.EnableCoverage()
	pair := func() { e.h.Free(0, e.alloc(0, 64)) }
	pair()
	p0 := inj.Points()
	c := lineCost(e, 0, func() {
		for range pairs - 1 {
			pair()
		}
	})
	p1 := inj.Points()
	if n := p1["small.magrefill.post-oplog"]; n != 1 {
		t.Fatalf("%d refills over %d pairs, want 1", n, pairs)
	}
	for _, point := range inj.PointNames() {
		if v := p1[point] - p0[point]; v != 0 && (strings.HasPrefix(point, "small.init.") || strings.HasPrefix(point, "small.empty.")) {
			t.Fatalf("pairs 2..%d visited %s %d times, want 0", pairs, point, v)
		}
	}
	if ops := uint64(2 * (pairs - 1)); c.Flushes > ops {
		t.Fatalf("pairs 2..%d: %d flushes over %d ops, want at most 1 per op", pairs, c.Flushes, ops)
	}
	auditDrained(t, e)
}

// localRun sets up a run of a thread's own blocks on thread 0 of e: it
// returns k owned 64 B blocks of one bitset word, and the blocks still
// to free afterwards. A FreeBatch commits every such run with a run
// record in a magazine line, whatever the magazine holds; a Free of one
// of its blocks commits it with the magazine line at freePoint.
type localRun struct {
	name      string
	freePoint string // "" when a Free misses the magazine's window
	setup     func(t *testing.T, e *env, k int) (run, keep []Ptr)
}

// localRuns covers every state of the magazine a run of a thread's own
// blocks can meet.
var localRuns = []localRun{
	// The magazine's window covers the run's word: a Free ORs its block
	// into the mask line.
	{"magazine-hit", "small.magfree.post-put", func(t *testing.T, e *env, k int) ([]Ptr, []Ptr) {
		_, keep := warmMagazine(t, e, 0, 64)
		var run []Ptr
		for range k {
			run = append(run, e.alloc(0, 64))
		}
		return run, keep
	}},
	// The window gave the run, in word 0, and a drain closed it: a Free
	// misses the window and takes the classic local free.
	{"closed", "", func(t *testing.T, e *env, k int) ([]Ptr, []Ptr) {
		_, keep := warmMagazine(t, e, 0, 64)
		run := allocClass(e, 64, k)
		e.h.DrainMagazines(0)
		return run, keep
	}},
	// A live window on word 0 of the run's slab, and the run in word 1:
	// a Free misses the window and takes the classic local free.
	{"classic", "", func(t *testing.T, e *env, k int) ([]Ptr, []Ptr) {
		_, run, keep := windowBeside(t, e, k)
		return run, keep
	}},
}

// windowBeside has thread 0 of a fresh heap allocate n 64 B blocks of
// one slab from bitset word 1 on, and leaves its 64 B window live on
// word 0 of that slab: a first window takes word 0 and gives its blocks,
// later refills take words 1 on and give the n, and once word 0's
// blocks but one are freed and the last window drained, one more
// refill brings the window back to word 0. It returns the window's
// mirror, the n blocks from block 64 on, and the blocks thread 0 still
// holds besides them.
func windowBeside(t *testing.T, e *env, n int) (m *magSlot, blocks, held []Ptr) {
	t.Helper()
	s, class := e.h.small, smallClassOf(64)
	word0 := allocClass(e, 64, 64)
	blocks = allocClass(e, 64, n)
	freeBatch(t, e, 0, word0[1:])
	e.h.DrainMagazines(0)
	held = []Ptr{word0[0], e.alloc(0, 64)}
	m = s.magAt(&e.h.threads[0], class)
	idx := s.slabOf(word0[0])
	if int(m.slab) != idx+1 || m.word != 0 || blocks[0] != s.ptrOf(idx, 64, class) || s.slabOf(blocks[n-1]) != idx {
		t.Fatalf("magazine window (slab %d, word %d), blocks %#x..%#x: want slab %d word 0, blocks from block 64 of it",
			m.slab-1, m.word, blocks[0], blocks[n-1], idx)
	}
	return m, blocks, held
}

// A run of k owned blocks in one bitset word, freed through FreeBatch,
// is one line whatever the magazine holds: one run record in the
// class magazine line, 1 flush, 1 write-back, 1 fence, no fetch and no
// mCAS pair — not one line per block, and no magazine point.
func TestFreeBatchRunCostsOneLine(t *testing.T) {
	const k = 5
	for _, r := range localRuns {
		t.Run(r.name, func(t *testing.T) {
			e, inj := costEnv(t)
			inj.EnableCoverage()
			run, keep := r.setup(t, e, k)
			p0 := inj.Points()
			var c telemetry.CacheStats
			d := nmpDelta(e, func() { c = lineCost(e, 0, func() { freeBatch(t, e, 0, run) }) })
			wantOneLine(t, r.name+" run", c)
			if pairs := d.Successes + d.Failures; pairs != 0 {
				t.Fatalf("%s run: %d mCAS pairs, want 0", r.name, pairs)
			}
			p1 := inj.Points()
			for _, point := range []string{"small.local-free.post-oplog", "small.local-free.post-put"} {
				if v := p1[point] - p0[point]; v != 1 {
					t.Fatalf("%s run of %d blocks visited %s %d times, want 1", r.name, k, point, v)
				}
			}
			for _, point := range inj.PointNames() {
				if v := p1[point] - p0[point]; v != 0 && strings.Contains(point, ".mag") {
					t.Fatalf("%s run of %d blocks visited magazine point %s", r.name, k, point)
				}
			}
			for _, p := range keep {
				e.h.Free(0, p)
			}
			auditDrained(t, e)
		})
	}
}

// k runs of owned blocks outside the magazine's window — two blocks in
// each of words 1..k of the slab whose word 0 the live window holds —
// cost one record per group of up to three, in the window's magazine
// line: ceil(k/3) flushes, write-backs and fences, and no fetch. The
// oplog stays one word: once the caches drain, words 1..7 of the
// thread's oplog line are 0, and no magazine line holds a run word.
func TestFreeBatchGroupsClassicRuns(t *testing.T) {
	for k := 1; k <= 7; k++ {
		t.Run(fmt.Sprintf("runs=%d", k), func(t *testing.T) {
			e, inj := costEnv(t)
			inj.EnableCoverage()
			_, blocks, keep := windowBeside(t, e, 6*64+2) // words 1..6 and two of word 7
			var run []Ptr
			for i, p := range blocks {
				if i/64 < k && i%64 < 2 {
					run = append(run, p)
				} else {
					keep = append(keep, p)
				}
			}
			p0 := inj.Points()
			c := lineCost(e, 0, func() { freeBatch(t, e, 0, run) })
			want := uint64((k + 2) / 3)
			if c.Flushes != want || c.Writebacks != want || c.Fences != want || c.Fetches != 0 {
				t.Fatalf("%d runs: %d flushes, %d write-backs, %d fences, %d fetches; want %d, %d, %d, 0",
					k, c.Flushes, c.Writebacks, c.Fences, c.Fetches, want, want, want)
			}
			p1 := inj.Points()
			for point, n := range map[string]uint64{"small.local-free.post-oplog": want, "small.local-free.post-put": uint64(k)} {
				if got := p1[point] - p0[point]; got != n {
					t.Fatalf("%d runs visited %s %d times, want %d", k, point, got, n)
				}
			}
			for _, p := range keep {
				e.h.Free(0, p)
			}
			auditDrained(t, e)
			wantNoRunWords(t, e, 0)
		})
	}
}

// wantNoRunWords fails if the device holds a run word of tid's: in
// words 1..7 of its oplog line, or in words 2..7 of any of its magazine
// lines.
func wantNoRunWords(t *testing.T, e *env, tid int) {
	t.Helper()
	dev := e.dev.NewCache()
	ow := e.h.lay.oplogW(tid)
	for w := ow + 1; w < ow+lineWords; w++ {
		if v := dev.LoadFresh(w); v != 0 {
			t.Fatalf("word %d of thread %d's oplog line holds %#x, want 0", w-ow, tid, v)
		}
	}
	for _, s := range []*slabHeap{e.h.small, e.h.large} {
		for class := 1; class < len(s.classes); class++ {
			mw := s.magW(tid, class)
			for w := mw + 2; w < mw+lineWords; w++ {
				if v := dev.LoadFresh(w); v != 0 {
					t.Fatalf("word %d of thread %d's %s class-%d magazine line holds %#x, want 0",
						w-mw, tid, s.name, class, v)
				}
			}
		}
	}
}

// k owed runs outside the magazine's window — two blocks in each of
// words 1..k of the slab whose word 0 the live window holds — ride
// ceil(k/3) pops of that window, up to three to a pop (AllocFreeing):
// each pop is one flush, one write-back and one fence and no fetch, and
// no pop stores to the oplog word, so no local-free record is written.
// Freed through FreeBatch ahead of the same pops, the runs cost
// ceil(k/3) lines more.
func TestPopCarriesOwedRuns(t *testing.T) {
	for k := 1; k <= 7; k++ {
		t.Run(fmt.Sprintf("runs=%d", k), func(t *testing.T) {
			pops := uint64((k + 2) / 3)
			carried := owedRunsCost(t, k, true)
			batched := owedRunsCost(t, k, false)
			if carried.Flushes != pops || batched.Flushes != 2*pops || batched.Writebacks != 2*pops ||
				batched.Fences != 2*pops || batched.Fetches != 0 {
				t.Fatalf("%d runs: carried by %d pops, %d flushes; freed by FreeBatch first, %d flushes, %d write-backs, %d fences, %d fetches; want %d and %d, %d, %d, 0",
					k, pops, carried.Flushes, batched.Flushes, batched.Writebacks, batched.Fences, batched.Fetches,
					pops, 2*pops, 2*pops, 2*pops)
			}
		})
	}
}

// A carrying allocation whose class has no slab left to refill from
// frees what its thread owes before it takes a fresh slab. Thread 0
// fills one 1 KiB slab, which detaches, and owes all of its blocks: the
// allocation frees them, which empties the slab, and reuses it instead
// of extending the heap.
func TestOwedBlocksAreFreedBeforeAFreshSlab(t *testing.T) {
	e, _ := costEnv(t)
	s := e.h.small
	owed := fillExactlyOneSlab(e, 0)
	idx, length := s.slabOf(owed[0]), s.length(0)
	if got := e.h.threads[0].cache.Load(s.localW(0, smallClassOf(smallMax))); got != 0 {
		t.Fatalf("1 KiB sized list holds slab %d, want none", got-1)
	}
	p, err := e.h.AllocFreeing(0, smallMax, &owed)
	if err != nil {
		t.Fatal(err)
	}
	if len(owed) != 0 || s.length(0) != length || s.slabOf(p) != idx {
		t.Fatalf("%d blocks still owed, heap of %d slabs (was %d), block from slab %d; want 0, %d and slab %d",
			len(owed), s.length(0), length, s.slabOf(p), length, idx)
	}
	e.h.Free(0, p)
	auditDrained(t, e)
}

// owedRunsCost frees k two-block runs outside the live 64 B window of
// thread 0 and pops ceil(k/3) blocks from the window: carried by the
// pops when carry is set, freed through one FreeBatch before them
// otherwise. It returns what thread 0's cache counted, after checking
// every block is then free exactly once.
func owedRunsCost(t *testing.T, k int, carry bool) telemetry.CacheStats {
	t.Helper()
	e, inj := costEnv(t)
	inj.EnableCoverage()
	_, blocks, keep := windowBeside(t, e, 6*64+2) // words 1..6 and two of word 7
	var run []Ptr
	for i, p := range blocks {
		if i/64 < k && i%64 < 2 {
			run = append(run, p)
		} else {
			keep = append(keep, p)
		}
	}
	ts, ow := &e.h.threads[0], e.h.lay.oplogW(0)
	sentinel := packOp(opNone, 1, 2, 3)
	ts.cache.Store(ow, sentinel)
	ts.cache.FlushOpt(ow)
	ts.cache.Fence()
	pops := (k + 2) / 3
	p0 := inj.Points()
	var total telemetry.CacheStats
	if carry {
		ps := slices.Clone(run)
		for i := range pops {
			var p Ptr
			c := lineCost(e, 0, func() {
				var err error
				if p, err = e.h.AllocFreeing(0, 64, &ps); err != nil {
					t.Fatal(err)
				}
			})
			wantOneLine(t, fmt.Sprintf("pop %d", i), c)
			if want := max(0, k-3*(i+1)); len(ps) != 2*want {
				t.Fatalf("pop %d left %d pointers owed, want %d", i, len(ps), 2*want)
			}
			total = telemetry.Add(total, c)
			keep = append(keep, p)
		}
		if got := ts.cache.Load(ow); got != sentinel {
			t.Fatalf("the pops stored %#x to the oplog word", got)
		}
	} else {
		total = lineCost(e, 0, func() {
			freeBatch(t, e, 0, run)
			for range pops {
				keep = append(keep, e.alloc(0, 64))
			}
		})
	}
	p1 := inj.Points()
	records := uint64(0)
	if !carry {
		records = uint64(pops)
	}
	for point, n := range map[string]uint64{"small.local-free.post-oplog": records, "small.local-free.post-put": uint64(k),
		"small.magalloc.post-take": uint64(pops), "small.magrefill.post-oplog": 0} {
		if got := p1[point] - p0[point]; got != n {
			t.Fatalf("carry=%v, %d runs: %s visited %d times, want %d", carry, k, point, got, n)
		}
	}
	for _, p := range keep {
		e.h.Free(0, p)
	}
	auditDrained(t, e)
	return total
}

// k runs inside magazine windows — two blocks popped from the live
// window of each of k small classes — cost what k runs outside any
// window cost: one record per group of up to three, in the magazine
// line of the group's first run, so ceil(k/3) flushes, write-backs and
// fences, and no fetch. No run changes its window: each mask and each
// cached meta and mask word is unchanged. A group's record flushes its
// line, which writes out the lazily cleared record of the window's
// last pop, as a Free into the window does: ceil(k/3) device lines
// come to equal their cached lines, and the rest are unchanged.
func TestFreeBatchGroupsMagazineRuns(t *testing.T) {
	sizes := []int{16, 32, 64, 128, 256, 512, 1024}
	for k := 1; k <= len(sizes); k++ {
		t.Run(fmt.Sprintf("runs=%d", k), func(t *testing.T) {
			e, inj := costEnv(t)
			inj.EnableCoverage()
			s, ts := e.h.small, &e.h.threads[0]
			dev := e.dev.NewCache()
			type window struct {
				m           *magSlot
				mask        uint64
				line, saved [2]uint64
			}
			var wins []window
			var run, keep []Ptr
			for _, size := range sizes[:k] {
				m, held := warmMagazine(t, e, 0, size)
				keep = append(keep, held...)
				run = append(run, e.alloc(0, size), e.alloc(0, size))
				mw := s.magW(0, smallClassOf(size))
				wins = append(wins, window{m: m, mask: m.mask,
					line:  [2]uint64{ts.cache.Load(mw), ts.cache.Load(mw + 1)},
					saved: [2]uint64{dev.LoadFresh(mw), dev.LoadFresh(mw + 1)}})
			}
			p0 := inj.Points()
			c := lineCost(e, 0, func() { freeBatch(t, e, 0, run) })
			want := uint64((k + 2) / 3)
			if c.Flushes != want || c.Writebacks != want || c.Fences != want || c.Fetches != 0 {
				t.Fatalf("%d runs: %d flushes, %d write-backs, %d fences, %d fetches; want %d, %d, %d, 0",
					k, c.Flushes, c.Writebacks, c.Fences, c.Fetches, want, want, want)
			}
			p1 := inj.Points()
			for point, n := range map[string]uint64{"small.local-free.post-oplog": want, "small.local-free.post-put": uint64(k),
				"small.magfree.post-put": 0} {
				if got := p1[point] - p0[point]; got != n {
					t.Fatalf("%d runs visited %s %d times, want %d", k, point, got, n)
				}
			}
			written := uint64(0)
			for i, w := range wins {
				mw := s.magW(0, smallClassOf(sizes[i]))
				line := [2]uint64{ts.cache.Load(mw), ts.cache.Load(mw + 1)}
				saved := [2]uint64{dev.LoadFresh(mw), dev.LoadFresh(mw + 1)}
				if w.m.mask != w.mask || line != w.line || saved != w.saved && saved != line {
					t.Fatalf("%d B magazine: mask %#x -> %#x, line %#x -> %#x, device %#x -> %#x; want mask and line unchanged, device unchanged or the line",
						sizes[i], w.mask, w.m.mask, w.line, line, w.saved, saved)
				}
				if saved != w.saved {
					written++
				}
			}
			if written != want {
				t.Fatalf("%d runs wrote out %d magazine lines, want %d", k, written, want)
			}
			for _, p := range keep {
				e.h.Free(0, p)
			}
			auditDrained(t, e)
		})
	}
}

// reattachedSlabs fills two 1 KiB slabs of thread 0, so both detach
// (each slab's window gives all of its blocks but the last, which the
// classic take gives), then frees deepFree blocks of the first and
// headFree blocks of the second outside any window: each free's first
// block reattaches its slab at the sized-list head, so the second slab
// is the head and the first sits behind it. Thread 0's magazine is
// empty. It returns the two slabs and every block still allocated.
func reattachedSlabs(t *testing.T, e *env, headFree, deepFree int) (head, deep int, held []Ptr) {
	t.Helper()
	s := e.h.small
	per := smallBlocks(e)
	ptrs := append(fillExactlyOneSlab(e, 0), fillExactlyOneSlab(e, 0)...)
	deep, head = s.slabOf(ptrs[0]), s.slabOf(ptrs[per])
	for _, p := range append(slices.Clone(ptrs[:deepFree]), ptrs[per:per+headFree]...) {
		e.h.Free(0, p)
	}
	ts := &e.h.threads[0]
	class := smallClassOf(smallMax)
	if got := ts.cache.Load(s.localW(0, class)); got != uint64(head+1) {
		t.Fatalf("sized-list head is slab %d, want %d", int(got)-1, head)
	}
	for _, c := range []struct{ idx, free int }{{head, headFree}, {deep, deepFree}} {
		if fc := s.getFreeCount(ts, c.idx); fc != uint32(c.free) {
			t.Fatalf("slab %d has %d free blocks, want %d", c.idx, fc, c.free)
		}
	}
	// Resident, as for any thread that has used its magazine before: the
	// first use of a line fetches it, and that is no refill's cost.
	ts.cache.Load(s.magW(0, class))
	held = append(slices.Clone(ptrs[deepFree:per]), ptrs[per+headFree:]...)
	return head, deep, held
}

// classicVisits returns how often each classic-path point that a refill
// must not reach was visited.
func classicVisits(inj *crash.Injector) map[string]uint64 {
	pts := inj.Points()
	out := map[string]uint64{}
	for _, p := range []string{"small.alloc.post-oplog", "small.detach.post-oplog", "small.disown.post-oplog"} {
		out[p] = pts[p]
	}
	return out
}

// A refill takes the sized-list slab with the most free blocks, not the
// head: with 3 free blocks in the head slab and 20 in the one behind it,
// the magazine privatizes 19 of the 20 (the leave-one rule keeps one)
// and pops one of them. The alloc is the refill's magazine line, which
// carries the pop's record and mask, flushed under its own fence (the
// refill writes no oplog record), and the bitset commit's bare fence: 1
// flush, 2 fences, no fetch, and no classic take or detach. Taking the
// head's word instead gives a 2-block window.
func TestRefillTakesTheSlabWithMostFreeBlocks(t *testing.T) {
	e, inj := costEnv(t)
	inj.EnableCoverage()
	_, deep, held := reattachedSlabs(t, e, 3, 20)
	before := classicVisits(inj)
	var p Ptr
	c := lineCost(e, 0, func() { p = e.alloc(0, smallMax) })
	if got := e.h.small.slabOf(p); got != deep {
		t.Fatalf("alloc took a block of slab %d, want slab %d (20 free)", got, deep)
	}
	m := e.h.small.magAt(&e.h.threads[0], smallClassOf(smallMax))
	if int(m.slab) != deep+1 || bits.OnesCount64(m.mask) != 18 {
		t.Fatalf("magazine holds %d blocks of slab %d, want 18 of slab %d (19 taken, 1 popped)",
			bits.OnesCount64(m.mask), m.slab-1, deep)
	}
	if c.Flushes != 1 || c.Writebacks != 1 || c.Fences != 2 || c.Fetches != 0 {
		t.Fatalf("refill and pop: %d flushes, %d write-backs, %d fences, %d fetches; want 1, 1, 2, 0",
			c.Flushes, c.Writebacks, c.Fences, c.Fetches)
	}
	if after := classicVisits(inj); !maps.Equal(after, before) {
		t.Fatalf("the refill fell to the classic path: %v -> %v", before, after)
	}
	e.h.Free(0, p)
	for _, q := range held {
		e.h.Free(0, q)
	}
	auditDrained(t, e)
}

// A head slab with one free block can give the magazine nothing; the
// refill takes from a slab behind it instead of falling to the classic
// path, which would take the head's last block (an opAllocBlock
// record), load its countdown from the NMP unit and detach it (an
// opDetach record and a descriptor flush), only for the next local
// free to fetch the descriptor back to reattach it.
func TestRefillSkipsASlabThatCanGiveOnlyItsLastBlock(t *testing.T) {
	e, inj := costEnv(t)
	inj.EnableCoverage()
	head, deep, held := reattachedSlabs(t, e, 1, 5)
	before := classicVisits(inj)
	var p Ptr
	d := nmpDelta(e, func() { p = e.alloc(0, smallMax) })
	if after := classicVisits(inj); !maps.Equal(after, before) {
		t.Fatalf("the refill fell to the classic path: %v -> %v", before, after)
	}
	if d.Loads != 0 {
		t.Fatalf("%d NMP loads; a refill reads no countdown", d.Loads)
	}
	if got := e.h.small.slabOf(p); got != deep {
		t.Fatalf("alloc took a block of slab %d, want slab %d (the head, slab %d, has 1 free)", got, deep, head)
	}
	if fc := e.h.small.getFreeCount(&e.h.threads[0], head); fc != 1 {
		t.Fatalf("head slab %d has %d free blocks, want its 1 untouched", head, fc)
	}
	e.h.Free(0, p)
	for _, q := range held {
		e.h.Free(0, q)
	}
	auditDrained(t, e)
}

// A kv-like churn: thread 0 keeps 512 live 1 KiB blocks spread over 32
// slabs, about half of each free, and in each round frees 128 of them, drawn
// at random, through one FreeBatch — runs of about 4 blocks per slab,
// as an epoch drain hands expired values home — then allocates 128.
// Reattached slabs sit at the sized-list head with a few free blocks
// each; a refill that takes the head's word refills every few pops and
// detaches the head once only its last block is left. Counted over the
// last 40 of 50 rounds, per alloc (the frees included). Taking the
// head's word: 8215 flushes and 597 fetches over 5120 allocs (1.604 and
// 0.117 per alloc). Taking the fullest slab's: 6705 and 0 (1.310 and 0);
// 6518 once a refill writes no oplog record, 5747 (1.122) once one
// record commits up to three classic runs of a batch, 5735 once every
// run of a batch joins those records, none paying a magazine line, and
// 5543 (1.083) once a refill's line carries its first pop.
func TestRefillChurnCostsPerAlloc(t *testing.T) {
	e, _ := costEnv(t)
	const live, batch, rounds, warm = 512, 128, 50, 10
	rng := xrand.New(2026)
	shuffle := func(ptrs []Ptr) {
		rng.Shuffle(len(ptrs), func(i, j int) { ptrs[i], ptrs[j] = ptrs[j], ptrs[i] })
	}
	ptrs := make([]Ptr, 2*live)
	for i := range ptrs {
		ptrs[i] = e.alloc(0, smallMax)
	}
	shuffle(ptrs)
	for i := live; i < len(ptrs); i += batch {
		freeBatch(t, e, 0, ptrs[i:i+batch])
	}
	ptrs = ptrs[:live]
	round := func() {
		shuffle(ptrs)
		freeBatch(t, e, 0, ptrs[:batch])
		for i := range batch {
			ptrs[i] = e.alloc(0, smallMax)
		}
	}
	var c telemetry.CacheStats
	for r := 0; r < rounds; r++ {
		if r < warm {
			round()
			continue
		}
		c = telemetry.Add(c, lineCost(e, 0, round))
	}
	allocs := float64((rounds - warm) * batch)
	flushes, fetches := float64(c.Flushes)/allocs, float64(c.Fetches)/allocs
	t.Logf("%.3f flushes, %.3f write-backs, %.3f fences, %.4f fetches per alloc",
		flushes, float64(c.Writebacks)/allocs, float64(c.Fences)/allocs, fetches)
	if c.Flushes != 5543 || c.Fetches != 0 {
		t.Fatalf("%d flushes and %d fetches over %.0f allocs (%.3f and %.4f per alloc); want 5543 and 0",
			c.Flushes, c.Fetches, allocs, flushes, fetches)
	}
	for _, p := range ptrs {
		e.h.Free(0, p)
	}
	auditDrained(t, e)
}
