package core

import (
	"math/bits"
	"testing"

	"cxlalloc/internal/telemetry"
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

// A free into the magazine's window is one line too: the mask-set,
// flushed and fenced. It also writes back a pop's lazily cleared record,
// which shares the line.
func TestMagFreeCostsOneLine(t *testing.T) {
	e, _ := costEnv(t)
	const tid = 0
	m, _ := warmMagazine(t, e, tid, smallMax)
	p := e.alloc(tid, smallMax)
	before := m.mask
	c := lineCost(e, tid, func() { e.h.Free(tid, p) })
	if bits.OnesCount64(m.mask) != bits.OnesCount64(before)+1 {
		t.Fatalf("free did not land in the magazine (mask %#x -> %#x)", before, m.mask)
	}
	wantOneLine(t, "magazine free", c)
	if rec := magMetaRecord(e.dev.NewCache().LoadFresh(e.h.small.magW(tid, smallClassOf(smallMax)))); rec != 0 {
		t.Fatalf("pop's handoff record %d still durable after the free's fence", rec)
	}
}

// localRun sets up one path of a grouped local free on thread 0 of e:
// it returns k owned 64 B blocks of one bitset word, and the path the
// run will take.
type localRun struct {
	name  string
	point string // the crash point after the run's one commit
	setup func(t *testing.T, e *env, k int) (run, keep []Ptr)
}

// localRuns covers every path a run of a thread's own blocks takes.
var localRuns = []localRun{
	// The magazine's window covers the run's word: the run is ORed into
	// the mask line.
	{"magazine-hit", "small.magfree.post-put", func(t *testing.T, e *env, k int) ([]Ptr, []Ptr) {
		_, keep := warmMagazine(t, e, 0, 64)
		var run []Ptr
		for range k {
			run = append(run, e.alloc(0, 64))
		}
		return run, keep
	}},
	// The magazine is empty: it adopts the run's word with the run's
	// mask. A drained window leaves the magazine line resident.
	{"adopt", "small.magfree.post-adopt", func(t *testing.T, e *env, k int) ([]Ptr, []Ptr) {
		_, keep := warmMagazine(t, e, 0, 64)
		e.h.DrainMagazines(0)
		run := classicBlocks(e, k)
		return run, keep
	}},
	// A live window on word 0 of the run's slab: a drain's record names
	// one pending block, not a run, so the run takes one opLocalFree
	// record.
	{"classic", "small.local-free.post-put", func(t *testing.T, e *env, k int) ([]Ptr, []Ptr) {
		m, keep := warmMagazine(t, e, 0, 64)
		run := classicBlocks(e, k)
		if idx := e.h.small.slabOf(run[0]); int(m.slab) != idx+1 || m.word != 0 || run[0] != e.h.small.ptrOf(idx, 64, smallClassOf(64)) {
			t.Fatalf("magazine window (slab %d, word %d), run from %#x: want slab %d word 0, run from block 64",
				m.slab-1, m.word, run[0], idx)
		}
		return run, keep
	}},
}

// classicBlocks has thread 0 allocate n 64 B blocks through the classic
// path, with magazines off: the lowest free blocks of the sized-list
// head slab's bitset.
func classicBlocks(e *env, n int) []Ptr {
	e.h.SetMagazines(false)
	defer e.h.SetMagazines(true)
	ptrs := make([]Ptr, n)
	for i := range ptrs {
		ptrs[i] = e.alloc(0, 64)
	}
	return ptrs
}

// A run of k owned blocks in one bitset word, freed through FreeBatch,
// is one line on every path: 1 flush, 1 write-back, 1 fence, no fetch
// and no mCAS pair — not one line per block.
func TestFreeBatchRunCostsOneLine(t *testing.T) {
	const k = 5
	for _, r := range localRuns {
		t.Run(r.name, func(t *testing.T) {
			e, inj := costEnv(t)
			inj.EnableCoverage()
			run, keep := r.setup(t, e, k)
			visits0 := inj.Points()[r.point]
			var c telemetry.CacheStats
			d := nmpDelta(e, func() { c = lineCost(e, 0, func() { freeBatch(t, e, 0, run) }) })
			wantOneLine(t, r.name+" run", c)
			if pairs := d.Successes + d.Failures; pairs != 0 {
				t.Fatalf("%s run: %d mCAS pairs, want 0", r.name, pairs)
			}
			if v := inj.Points()[r.point] - visits0; v != 1 {
				t.Fatalf("%s run of %d blocks visited %s %d times, want 1", r.name, k, r.point, v)
			}
			for _, p := range keep {
				e.h.Free(0, p)
			}
			auditDrained(t, e)
		})
	}
}
