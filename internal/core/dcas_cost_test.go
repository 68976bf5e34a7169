package core

import (
	"slices"
	"testing"

	"cxlalloc/internal/atomicx"
	"cxlalloc/internal/crash"
	"cxlalloc/internal/memsim"
	"cxlalloc/internal/telemetry"
)

// The tests in this file count device events, not time: ModeMCAS, no
// latency model, one goroutine, so every number repeats exactly on any
// machine. They pin what one logical CAS costs (one spwr/sprd pair, plus
// one more only when the overwritten writer really is still pending)
// and that recovery reads the same answers it did when the help step
// was an unconditional CAS.

// costEnv is crashEnv on a pod without HWcc: tids 0,1 in process 0 and
// 2,3 in process 1.
func costEnv(t *testing.T) (*env, *crash.Injector) {
	cfg := testConfig()
	cfg.Mode = atomicx.ModeMCAS
	cfg.CheckInvariants = false
	inj := crash.NewInjector()
	cfg.Crash = inj
	return newEnv(t, cfg, 2, 2), inj
}

// nmpDelta runs f and returns what the NMP unit counted meanwhile.
func nmpDelta(e *env, f func()) telemetry.NMPStats {
	s0 := e.h.Snapshot()
	f()
	return e.h.Snapshot().Delta(s0).NMP
}

// allocInOneSlab has tid allocate n top-class small blocks, all of which
// must come from one slab, and returns them with the slab's index.
func allocInOneSlab(t *testing.T, e *env, tid, n int) ([]Ptr, int) {
	t.Helper()
	if n >= smallBlocks(e) {
		t.Fatalf("n = %d does not fit below one slab of %d blocks", n, smallBlocks(e))
	}
	ptrs := make([]Ptr, n)
	for i := range ptrs {
		ptrs[i] = e.alloc(tid, smallMax)
	}
	idx := e.h.small.slabOf(ptrs[0])
	for _, p := range ptrs {
		if e.h.small.slabOf(p) != idx {
			t.Fatalf("blocks span slabs %d and %d", idx, e.h.small.slabOf(p))
		}
	}
	return ptrs, idx
}

// auditDrained checks the ledger once every block has been freed: the
// bitset's free blocks must equal the countdown, which a remote free
// decremented twice (or never) breaks. Every thread writes its cache
// back first, so the auditor reads what owners' local frees left in
// their own dirty lines.
func auditDrained(t *testing.T, e *env) {
	t.Helper()
	for tid := 0; tid < 4; tid++ {
		e.h.DrainMagazines(tid)
		e.h.threads[tid].cache.WritebackAll()
	}
	e.checkAll(1)
	if err := e.h.AuditEmpty(1); err != nil {
		t.Fatalf("ledger: %v", err)
	}
}

// N uncontended remote frees by one thread are N mCAS pairs: the first
// overwrites an untagged word, every later one the freer's own tag, and
// neither needs help. (The unconditional help CAS made this 2N-1 pairs
// with N-1 failures.)
func TestRemoteFreeCostsOnePairPerFree(t *testing.T) {
	e, _ := costEnv(t)
	const n = 24
	ptrs, idx := allocInOneSlab(t, e, 0, n)
	total := e.h.small.remoteCount(1, idx)

	d := nmpDelta(e, func() {
		for _, p := range ptrs {
			e.h.Free(2, p)
		}
	})

	if pairs := d.Successes + d.Failures; pairs != n || d.SpRds != n || d.SpWrs != n {
		t.Fatalf("%d remote frees cost %d pairs (%d spwr, %d sprd), want %d", n, pairs, d.SpWrs, d.SpRds, n)
	}
	if d.Failures != 0 || d.Conflicts != 0 {
		t.Fatalf("%d failures, %d conflicts in a sequential run", d.Failures, d.Conflicts)
	}
	if d.Loads > 2*n {
		t.Fatalf("%d NMP loads for %d remote frees, want at most %d", d.Loads, n, 2*n)
	}
	if got := e.h.small.remoteCount(1, idx); got != total-n {
		t.Fatalf("countdown = %d, want %d", got, total-n)
	}
	auditDrained(t, e)
}

// Two threads alternating remote frees into one slab, neither beginning
// another operation in between: every overwritten tag belongs to a
// writer still pending on it, so every help is needed and is issued —
// 2N-1 pairs, none failing. Then the freer crashes after its CAS, the
// other overwrites its tag, and recovery must read "landed" off the help
// word and not decrement again.
func TestAlternatingRemoteFreesHelpAndRecover(t *testing.T) {
	e, inj := costEnv(t)
	const n = 16
	const b, c = 2, 3
	ptrs, idx := allocInOneSlab(t, e, 0, n+2)
	total := e.h.small.remoteCount(1, idx)

	d := nmpDelta(e, func() {
		for i, p := range ptrs[:n] {
			e.h.Free(b+i%2, p)
		}
	})
	if pairs := d.Successes + d.Failures; pairs != 2*n-1 || d.Failures != 0 {
		t.Fatalf("%d alternating frees: %d pairs, %d failures; want %d and 0", n, pairs, d.Failures, 2*n-1)
	}
	// One load of the countdown per free, one of the help word per help.
	if d.Loads != 2*n-1 {
		t.Fatalf("%d NMP loads, want %d", d.Loads, 2*n-1)
	}

	inj.Arm("small.remote-free.post-cas", b, 0)
	if cr := crash.Run(func() { e.h.Free(b, ptrs[n]) }); cr == nil || cr.TID != b {
		t.Fatalf("b did not crash after its CAS: %+v", cr)
	}
	e.h.MarkCrashed(b)
	inj.Disarm()
	if tid, _, _ := atomicx.Tag(e.h.dcas.Load(c, e.h.small.hwBase+idx)); tid != b {
		t.Fatalf("countdown tagged by thread %d, want the crashed freer %d", tid, b)
	}
	e.h.Free(c, ptrs[n+1]) // destroys b's tag; the help word is now the only evidence
	if tid, _, _ := atomicx.Tag(e.h.dcas.Load(c, e.h.small.hwBase+idx)); tid != c {
		t.Fatalf("countdown tagged by thread %d after c's free, want %d", tid, c)
	}
	if _, err := e.h.RecoverThread(b, e.spaces[1]); err != nil {
		t.Fatalf("RecoverThread: %v", err)
	}
	if got := e.h.small.remoteCount(1, idx); got != total-(n+2) {
		t.Fatalf("countdown = %d after recovery, want %d: b's free was redone or lost", got, total-(n+2))
	}
	auditDrained(t, e)
}

// A thread remote-freeing twice running into the same slab overwrites
// its own tag and helps nobody. Crashed before the second CAS it must
// redo it, crashed after it must not; either way the countdown is exact.
func TestSelfTaggedRemoteFreeRecovers(t *testing.T) {
	for _, point := range []string{"small.remote-free.pre-cas", "small.remote-free.post-cas"} {
		t.Run(point, func(t *testing.T) {
			e, inj := costEnv(t)
			const b = 2
			ptrs, idx := allocInOneSlab(t, e, 0, 2)
			total := e.h.small.remoteCount(1, idx)

			e.h.Free(b, ptrs[0])
			inj.Arm(point, b, 0)
			d := nmpDelta(e, func() {
				if cr := crash.Run(func() { e.h.Free(b, ptrs[1]) }); cr == nil || cr.Point != point {
					t.Fatalf("no crash at %q: %+v", point, cr)
				}
			})
			wantPairs := uint64(0)
			if point == "small.remote-free.post-cas" {
				wantPairs = 1
			}
			if d.SpRds != wantPairs || d.Failures != 0 {
				t.Fatalf("second free up to the crash: %d pairs, %d failures; want %d and 0", d.SpRds, d.Failures, wantPairs)
			}
			e.h.MarkCrashed(b)
			inj.Disarm()
			if _, err := e.h.RecoverThread(b, e.spaces[1]); err != nil {
				t.Fatalf("RecoverThread: %v", err)
			}
			if got := e.h.small.remoteCount(1, idx); got != total-2 {
				t.Fatalf("countdown = %d after recovery, want %d", got, total-2)
			}
			auditDrained(t, e)
		})
	}
}

// freeCost runs f, which only tid may run, and returns the mCAS pairs
// and the SWcc flushes (tid's exact count) it cost.
func freeCost(e *env, tid int, f func()) (pairs, flushes uint64) {
	c := e.h.threads[tid].cache
	f0 := c.Stats().Flushes
	d := nmpDelta(e, f)
	return d.Successes + d.Failures, c.Stats().Flushes - f0
}

// freeBatch hands a copy of ptrs to FreeBatch and checks it consumed
// them all.
func freeBatch(t *testing.T, e *env, tid int, ptrs []Ptr) {
	t.Helper()
	ps := slices.Clone(ptrs)
	e.h.FreeBatch(tid, &ps)
	if len(ps) != 0 {
		t.Fatalf("FreeBatch left %d pointers in the batch", len(ps))
	}
}

// N remote frees of one slab's blocks handed to FreeBatch are one
// countdown decrement by N: one mCAS pair. The same N through Free are N
// pairs. None reaches zero and the freer's oplog line is clean, so
// neither writes a line: the records ride in the help word.
func TestFreeBatchOnePairPerSlab(t *testing.T) {
	const n = 24
	for _, batch := range []bool{false, true} {
		e, _ := costEnv(t)
		ptrs, idx := allocInOneSlab(t, e, 0, n)
		total := e.h.small.remoteCount(1, idx)
		pairs, flushes := freeCost(e, 2, func() {
			if batch {
				freeBatch(t, e, 2, ptrs)
				return
			}
			for _, p := range ptrs {
				e.h.Free(2, p)
			}
		})
		want := uint64(n)
		if batch {
			want = 1
		}
		if pairs != want || flushes != 0 {
			t.Fatalf("batch=%v: %d remote frees into one slab cost %d pairs and %d flushes, want %d and 0",
				batch, n, pairs, flushes, want)
		}
		if got := e.h.small.remoteCount(1, idx); got != total-n {
			t.Fatalf("batch=%v: countdown = %d, want %d", batch, got, total-n)
		}
		auditDrained(t, e)
	}
}

// A batch spanning k slabs, small and large, owned by threads in both
// processes, costs k pairs and no flush.
func TestFreeBatchOnePairPerSlabAcrossSlabs(t *testing.T) {
	e, _ := costEnv(t)
	var ptrs []Ptr
	for _, owner := range []int{0, 1, 3} {
		ps, _ := allocInOneSlab(t, e, owner, 5)
		ptrs = append(ptrs, ps...)
	}
	large := []Ptr{e.alloc(0, smallMax+1), e.alloc(0, smallMax+1)}
	if e.h.large.slabOf(large[0]) != e.h.large.slabOf(large[1]) {
		t.Fatalf("large blocks span two slabs")
	}
	ptrs = append(ptrs, large...)
	const k = 4
	pairs, flushes := freeCost(e, 2, func() { freeBatch(t, e, 2, ptrs) })
	if pairs != k || flushes != 0 {
		t.Fatalf("batch over %d slabs cost %d pairs and %d flushes, want %d and 0", k, pairs, flushes, k)
	}
	auditDrained(t, e)
}

// A batch holding every block of a slab takes its countdown to zero in
// one decrement and steals the slab exactly once.
func TestFreeBatchStealsOnce(t *testing.T) {
	e, _ := costEnv(t)
	inj := e.cfg.Crash
	inj.EnableCoverage()
	ptrs := fillExactlyOneSlab(e, 0)
	idx := e.h.small.slabOf(ptrs[0])
	if e.h.small.slabOf(ptrs[len(ptrs)-1]) != idx {
		t.Fatalf("fillExactlyOneSlab spans slabs")
	}
	steals0 := inj.Points()["small.steal.post-oplog"]
	pairs, _ := freeCost(e, 2, func() { freeBatch(t, e, 2, ptrs) })
	if steals := inj.Points()["small.steal.post-oplog"] - steals0; steals != 1 {
		t.Fatalf("emptying slab %d in one batch stole it %d times, want 1", idx, steals)
	}
	if pairs != 1 {
		t.Fatalf("emptying slab %d in one batch cost %d pairs, want 1", idx, pairs)
	}
	auditDrained(t, e)
}

// A batch mixing the freer's own magazine, local and huge blocks with
// another thread's small and huge blocks frees each exactly once: the
// op ledger counts every pointer, each takes its own path, the freer's
// blocks of one word land as one run — the small and large magazine
// windows' runs and the full slab's run under one local-free record, no
// magazine line — only the remote slab group costs a pair, and the
// drained heap audits clean.
func TestFreeBatchMixedFreesEachOnce(t *testing.T) {
	e, _ := costEnv(t)
	inj := e.cfg.Crash
	inj.EnableCoverage()
	const b = 2
	var ptrs []Ptr
	for i := 0; i < 6; i++ {
		ptrs = append(ptrs, e.alloc(b, 64)) // own: magazine
	}
	ptrs = append(ptrs, e.alloc(b, smallMax+1), e.alloc(b, smallMax+1)) // own: large magazine
	full := fillExactlyOneSlab(e, b)
	ptrs = append(ptrs, full[0])                                        // own, in a full slab: the classic local free
	ptrs = append(ptrs, e.alloc(b, largeMax+1), e.alloc(0, largeMax+1)) // huge: own and remote
	remote, _ := allocInOneSlab(t, e, 0, 5)
	ptrs = append(ptrs, remote...)

	points0 := inj.Points()
	ops0 := e.h.ops[b].counts
	pairs, _ := freeCost(e, b, func() { freeBatch(t, e, b, ptrs) })
	ops := e.h.ops[b].counts
	small, large, huge := ops[ocSmallFree]-ops0[ocSmallFree], ops[ocLargeFree]-ops0[ocLargeFree], ops[ocHugeFree]-ops0[ocHugeFree]
	if small != 12 || large != 2 || huge != 2 {
		t.Fatalf("ledger counted %d small, %d large, %d huge frees; want 12, 2, 2", small, large, huge)
	}
	points := inj.Points()
	for point, want := range map[string]uint64{
		"small.magfree.post-put":     0,
		"large.magfree.post-put":     0,
		"small.local-free.post-put":  2,
		"large.local-free.post-put":  1,
		"huge.free.post-unmap":       2,
		"small.remote-free.post-cas": 1,
	} {
		if got := points[point] - points0[point]; got != want {
			t.Errorf("%s visited %d times, want %d", point, got, want)
		}
	}
	records := points["small.local-free.post-oplog"] + points["large.local-free.post-oplog"] -
		points0["small.local-free.post-oplog"] - points0["large.local-free.post-oplog"]
	if records != 1 {
		t.Errorf("the three local runs took %d local-free records, want 1", records)
	}
	if pairs != 1 {
		t.Fatalf("mixed batch cost %d pairs, want 1 (the remote slab group)", pairs)
	}
	for _, p := range full[1:] {
		e.h.Free(b, p)
	}
	for tid := 0; tid < 4; tid++ {
		e.h.Maintain(tid)
	}
	auditDrained(t, e)
}

// A remote free that does not reach zero keeps its redo record in the
// help word its Begin stores: it flushes and fences a line only to
// publish the lazy clear an earlier operation left in the oplog, and
// never more than the one NMP store its Begin always cost. A
// zero-reaching group owes a steal, so it still writes and flushes its
// oplog record.
func TestRemoteFreeRecordRidesInHelpWord(t *testing.T) {
	e, inj := costEnv(t)
	const b = 2
	ptrs := fillExactlyOneSlab(e, 0)
	idx := e.h.small.slabOf(ptrs[0])
	ow := e.h.lay.oplogW(b)
	clean := packOp(opNone, 0, 0, 0)

	e.h.Free(b, mustAlloc(e, b, 64)) // a classic local free: its clear is pending
	for i, p := range ptrs[:3] {
		var c telemetry.CacheStats
		d := nmpDelta(e, func() { c = lineCost(e, b, func() { e.h.Free(b, p) }) })
		want := uint64(0)
		if i == 0 {
			want = 1 // the publish of the local free's clear
		}
		if c.Flushes != want || c.Fences != want {
			t.Fatalf("remote free %d: %d flushes, %d fences; want %d of each", i, c.Flushes, c.Fences, want)
		}
		if d.Stores != 1 {
			t.Fatalf("remote free %d: %d NMP stores, want 1 (its Begin)", i, d.Stores)
		}
		if got := e.dev.NewCache().LoadFresh(ow); got != clean {
			t.Fatalf("remote free %d: durable oplog word %#x, want the clear", i, got)
		}
		ver, rec := e.h.dcas.Record(b)
		if want := packOp(opRemoteFree, uint32(idx), 1, 0); rec != want || ver != e.h.threads[b].ver {
			t.Fatalf("remote free %d: help word holds (ver %d, record %#x), want (%d, %#x)",
				i, ver, rec, e.h.threads[b].ver, want)
		}
	}

	// The rest of the slab in one group reaches zero: crash it before its
	// CAS and find the record, flagged, in the flushed oplog word.
	rest := slices.Clone(ptrs[3:])
	inj.Arm("small.remote-free.pre-cas", b, 0)
	c := lineCost(e, b, func() {
		if cr := crash.Run(func() { e.h.FreeBatch(b, &rest) }); cr == nil || cr.TID != b {
			t.Fatalf("no crash of thread %d before the zero-reaching CAS: %+v", b, cr)
		}
	})
	inj.Disarm()
	if c.Flushes != 1 || c.Fences != 1 {
		t.Fatalf("zero-reaching group up to its CAS: %d flushes, %d fences; want 1 of each (its oplog record)",
			c.Flushes, c.Fences)
	}
	want := packOp(opRemoteFree, uint32(idx), uint16(len(ptrs)-3)|remoteZero, e.h.threads[b].ver)
	if got := e.dev.NewCache().LoadFresh(ow); got != want {
		t.Fatalf("durable oplog word %#x, want the zero-reaching record %#x", got, want)
	}
	if _, rec := e.h.dcas.Record(b); rec != 0 {
		t.Fatalf("help word still holds record %#x under an oplog-recorded free", rec)
	}
	e.h.MarkCrashed(b)
	if _, err := e.h.RecoverThread(b, e.spaces[1]); err != nil {
		t.Fatalf("RecoverThread: %v", err)
	}
	if owner := w0Owner(e.h.small.loadW0(&e.h.threads[b], idx)); owner != b+1 {
		t.Fatalf("slab %d owned by %d after recovery, want the freer's steal (%d)", idx, owner, b+1)
	}
	auditDrained(t, e)
}

// After a magazine pop, whose record's clear is still unfenced, a
// remote free owes a bare fence and no flush; the next one owes nothing.
func TestRemoteFreeAfterPopCostsOneFence(t *testing.T) {
	e, _ := costEnv(t)
	const b = 0
	qs, _ := allocInOneSlab(t, e, 2, 3)
	warmMagazine(t, e, b, 64)
	e.h.Free(b, qs[0]) // publishes the refill's oplog clear
	mustAlloc(e, b, 64)
	for i, q := range qs[1:] {
		c := lineCost(e, b, func() { e.h.Free(b, q) })
		want := uint64(0)
		if i == 0 {
			want = 1
		}
		if c.Flushes != 0 || c.Fences != want {
			t.Fatalf("remote free %d after a pop: %d flushes, %d fences; want 0 and %d", i, c.Flushes, c.Fences, want)
		}
	}
}

// A thread recovered from a clean crash continues its version sequence
// from the help word. Restarting at zero, its next remote free reused
// version 1 while its own old (t, 1) tag still sat on the countdown, so
// a crash before that free's CAS read back as landed and the block was
// lost.
func TestRecoveredThreadNeverReusesAVersion(t *testing.T) {
	e, inj := costEnv(t)
	const b = 2
	ptrs, idx := allocInOneSlab(t, e, 0, 3)
	total := e.h.small.remoteCount(1, idx)

	e.h.Free(b, ptrs[0])
	e.h.MarkCrashed(b)
	if _, err := e.h.RecoverThread(b, e.spaces[1]); err != nil {
		t.Fatalf("RecoverThread: %v", err)
	}
	inj.Arm("small.remote-free.pre-cas", b, 0)
	if cr := crash.Run(func() { e.h.Free(b, ptrs[1]) }); cr == nil || cr.TID != b {
		t.Fatalf("no crash before the second free's CAS: %+v", cr)
	}
	e.h.MarkCrashed(b)
	inj.Disarm()
	rep, err := e.h.RecoverThread(b, e.spaces[1])
	if err != nil {
		t.Fatalf("RecoverThread: %v", err)
	}
	if got := e.h.small.remoteCount(1, idx); got != total-2 {
		t.Fatalf("countdown = %d after recovery, want %d", got, total-2)
	}
	if rep.Op != "remote-free" {
		t.Fatalf("recovery reports in-flight op %q, want the redone remote-free", rep.Op)
	}
	e.h.Free(b, ptrs[2])
	auditDrained(t, e)
}

// The publish guard: a remote free that keeps its record in the help
// word, and so writes no oplog line, first fences what the thread's
// previous operation left unfenced — every other operation opens with a
// fence, so a crash at its points never drops an earlier operation's
// writes. Those writes include lazily cleared records: the classic
// allocation's oplog record, flushed first, and a magazine pop's record
// in its magazine line. Dropped by a crash in the remote free, either
// comes back, and recovery reports a block the application already
// holds as pending — adopted, it is freed twice. The classic allocation
// is of a class of one block per slab, which no window can give.
func TestRemoteFreeFencesEarlierLazyClears(t *testing.T) {
	for _, tc := range []struct {
		name string
		pop  bool
		// drop reports whether the crash drops line l of thread tid.
		drop func(e *env, tid int, l int32) bool
	}{
		{"classic-alloc", false, func(e *env, tid int, l int32) bool {
			return int(l) == e.h.lay.oplogW(tid)/memsim.LineWords
		}},
		{"magazine-pop", true, func(*env, int, int32) bool { return true }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.Mode = atomicx.ModeMCAS
			cfg.CheckInvariants = false
			cfg.TrackPersist = true
			inj := crash.NewInjector()
			cfg.Crash = inj
			e := newEnv(t, cfg, 2, 2)
			e.h.SetCrashPersistPolicy(func(tid int, inPlay []int32) memsim.CrashPolicy {
				mask := ^uint64(0)
				for i, l := range inPlay {
					if i < 64 && tc.drop(e, tid, l) {
						mask &^= 1 << uint(i)
					}
				}
				return memsim.CrashPolicy{Kind: memsim.PersistSubset, Mask: mask}
			})
			const b = 0
			qs, _ := allocInOneSlab(t, e, 2, 2)
			var live []Ptr
			var p Ptr
			if tc.pop {
				// Open a window on a fresh slab, then let a remote free
				// publish the slab init's oplog clear, so only the pop's
				// record is left unfenced.
				_, live = warmMagazine(t, e, b, 64)
				e.h.Free(b, qs[0])
				p = mustAlloc(e, b, 64)
			} else {
				p = mustAlloc(e, b, largeMax)
			}

			inj.Arm("small.remote-free.pre-cas", b, 0)
			if cr := crash.Run(func() { e.h.Free(b, qs[1]) }); cr == nil || cr.TID != b {
				t.Fatalf("no crash before the remote free's CAS: %+v", cr)
			}
			e.h.MarkCrashed(b)
			inj.Disarm()
			rep, err := e.h.RecoverThread(b, e.spaces[0])
			if err != nil {
				t.Fatalf("RecoverThread: %v", err)
			}
			if rep.PendingAlloc != 0 {
				t.Fatalf("recovery reported %#x pending, but %#x was handed out before the remote free: "+
					"an earlier operation's record outlived the remote free's crash", rep.PendingAlloc, p)
			}
			if !tc.pop {
				e.h.Free(b, qs[0])
			}
			for _, q := range append(live, p) {
				e.h.Free(b, q)
			}
			auditDrained(t, e)
		})
	}
}

// A local free leaves its run words' clear unfenced, and a remote free
// owes that a fence too: a crash in the remote free that keeps the
// cleared run words but drops the bitset line they committed would
// lose the local free, and the ledger audit would find its block
// neither free nor held.
func TestRemoteFreeFencesALocalFreesRunClear(t *testing.T) {
	e, inj := magCrashEnv(t, true)
	const b = 0
	qs, _ := allocInOneSlab(t, e, 2, 2)
	inj.EnableCoverage()
	_, blocks, live := windowBeside(t, e, 65)
	p := blocks[64]
	e.h.Free(b, qs[0]) // publishes the drain's oplog clear
	mw := e.h.small.magW(b, smallClassOf(64))
	e.h.SetCrashPersistPolicy(func(_ int, inPlay []int32) memsim.CrashPolicy {
		mask := uint64(0)
		for i, l := range inPlay {
			if i < 64 && int(l) == mw/memsim.LineWords {
				mask |= 1 << uint(i)
			}
		}
		return memsim.CrashPolicy{Kind: memsim.PersistSubset, Mask: mask}
	})
	p0 := inj.Points()["small.local-free.post-oplog"]
	e.h.Free(b, p)
	if inj.Points()["small.local-free.post-oplog"] != p0+1 {
		t.Fatalf("Free(%#x) did not take the classic local free", p)
	}
	inj.Arm("small.remote-free.pre-cas", b, 0)
	if cr := crash.Run(func() { e.h.Free(b, qs[1]) }); cr == nil || cr.TID != b {
		t.Fatalf("no crash before the remote free's CAS: %+v", cr)
	}
	e.h.MarkCrashed(b)
	inj.Disarm()
	if _, err := e.h.RecoverThread(b, e.spaces[0]); err != nil {
		t.Fatalf("RecoverThread: %v", err)
	}
	for _, q := range append(live, blocks[:64]...) {
		e.h.Free(b, q)
	}
	auditDrained(t, e)
}

// Recovery redoes the help-word record before the oplog's: an opClaim
// record stays in the oplog across the claimant's later operations, and
// its redo Begins, replacing the help word. Read after that, a landed
// remote free whose tag another thread overwrote would look unlanded
// and be redone — one decrement too many.
func TestHelpRecordRedoneBeforeOplogRecord(t *testing.T) {
	e, _ := costEnv(t)
	const b, c, victim = 2, 3, 1
	ptrs, idx := allocInOneSlab(t, e, 0, 2)
	total := e.h.small.remoteCount(1, idx)

	if _, ok := e.h.ClaimAcquire(b, victim, 0); !ok {
		t.Fatal("ClaimAcquire failed on a free claim word")
	}
	e.h.Free(b, ptrs[0]) // lands; its record rides in b's help word
	e.h.Free(c, ptrs[1]) // overwrites b's tag, marking help[b] observed
	e.h.MarkCrashed(b)
	if _, err := e.h.RecoverThread(b, e.spaces[1]); err != nil {
		t.Fatalf("RecoverThread: %v", err)
	}
	if got := e.h.small.remoteCount(1, idx); got != total-2 {
		t.Fatalf("countdown = %d after recovery, want %d: b's landed free was redone", got, total-2)
	}
	if holder, _, held := unpackClaim(atomicx.Payload(e.h.dcas.Load(c, e.h.claimW(victim)))); held {
		t.Fatalf("claim on %d still held by %d after the claimant's recovery", victim, holder)
	}
	auditDrained(t, e)
}
