// Package recoverable provides the Memento-style recoverable data
// structures of the paper's Figure 7 experiment: a queue and a hash map
// whose elements are allocator objects, instrumented so the harness can
// crash threads mid-insert and compare recovery strategies —
// cxlalloc's non-blocking, leak-free recovery versus ralloc's choice
// between blocking garbage collection and leaking.
//
// Memento (Cho et al., PLDI '23) makes operations detectably
// recoverable; the part that interacts with the allocator is exactly
// what cxlalloc's recovery report provides: after a crash between
// taking a block and publishing it, the application learns the pending
// allocation and can adopt it (completing the insert) instead of
// leaking it.
package recoverable

import (
	"encoding/binary"
	"sync"
	"sync/atomic"

	"cxlalloc/internal/alloc"
	"cxlalloc/internal/kvstore"
)

// Structure is the harness-facing interface shared by the queue and map.
type Structure interface {
	// Insert allocates a size-byte object for element i and links it.
	Insert(tid, i, size int) error
	// Adopt links an already-allocated object (recovery handoff).
	Adopt(tid int, p alloc.Ptr)
	// RemoveAll unlinks and frees every element, returning the count.
	// Requires quiescence.
	RemoveAll(tid int) int
	// Live snapshots every linked allocation (GC roots). Requires
	// quiescence.
	Live() []alloc.Ptr
	// Len returns the current element count (approximate under
	// concurrency).
	Len() int
}

// Queue is a multi-producer queue of allocator objects. Link operations
// are short critical sections on a sharded mutex; Figure 7 measures
// allocator behaviour, and crashes are injected inside the allocator,
// never while a queue shard is held.
type Queue struct {
	a      alloc.Allocator
	shards [16]queueShard
}

type queueShard struct {
	mu    sync.Mutex
	items []alloc.Ptr
}

// NewQueue creates a queue over a.
func NewQueue(a alloc.Allocator) *Queue { return &Queue{a: a} }

func (q *Queue) Insert(tid, i, size int) error {
	p, err := q.a.Alloc(tid, size)
	if err != nil {
		return err
	}
	b := q.a.Bytes(tid, p, size)
	b[0] = byte(i)
	q.Adopt(tid, p)
	return nil
}

func (q *Queue) Adopt(tid int, p alloc.Ptr) {
	sh := &q.shards[tid%len(q.shards)]
	sh.mu.Lock()
	sh.items = append(sh.items, p)
	sh.mu.Unlock()
}

func (q *Queue) RemoveAll(tid int) int {
	n := 0
	for s := range q.shards {
		sh := &q.shards[s]
		sh.mu.Lock()
		items := sh.items
		sh.items = nil
		sh.mu.Unlock()
		for _, p := range items {
			q.a.Free(tid, p)
			n++
		}
	}
	return n
}

func (q *Queue) Live() []alloc.Ptr {
	var out []alloc.Ptr
	for s := range q.shards {
		sh := &q.shards[s]
		sh.mu.Lock()
		out = append(out, sh.items...)
		sh.mu.Unlock()
	}
	return out
}

func (q *Queue) Len() int {
	n := 0
	for s := range q.shards {
		sh := &q.shards[s]
		sh.mu.Lock()
		n += len(sh.items)
		sh.mu.Unlock()
	}
	return n
}

// Map is the hash-map structure: elements are keyed by index in the
// lock-free kvstore index.
type Map struct {
	s      *kvstore.Store
	maxIdx atomic.Int64
}

// NewMap creates a map over a with nBuckets index buckets.
func NewMap(a alloc.Allocator, nBuckets, nThreads int) *Map {
	m := &Map{s: kvstore.New(a, nBuckets, nThreads)}
	m.maxIdx.Store(-1)
	return m
}

func mapKey(i int) []byte {
	var k [8]byte
	binary.LittleEndian.PutUint64(k[:], uint64(i))
	return k[:]
}

func (m *Map) Insert(tid, i, size int) error {
	if size < 9 {
		size = 9 // key (8 B) plus at least one value byte
	}
	val := make([]byte, size-8)
	val[0] = byte(i)
	for {
		cur := m.maxIdx.Load()
		if int64(i) <= cur || m.maxIdx.CompareAndSwap(cur, int64(i)) {
			break
		}
	}
	return m.s.Put(tid, mapKey(i), val)
}

// Adopt links a recovered pending allocation. The map cannot know which
// key the crashed insert was for (that record died with the thread), so
// it frees the orphan — still leak-free, matching what a Memento map
// does when its own redo record says the operation never linked.
func (m *Map) Adopt(tid int, p alloc.Ptr) {
	// The kvstore owns its allocations; an unlinked one is returned to
	// the allocator.
	m.free(tid, p)
}

func (m *Map) free(tid int, p alloc.Ptr) {
	// Map.s.mem is not exported; free through a tiny interface instead.
	m.s.FreeOrphan(tid, p)
}

func (m *Map) RemoveAll(tid int) int {
	count := 0
	for i := int64(0); i <= m.maxIdx.Load(); i++ {
		if m.s.Delete(tid, mapKey(int(i))) {
			count++
		}
	}
	m.s.Drain()
	return count
}

func (m *Map) Live() []alloc.Ptr { return m.s.LivePtrs() }

func (m *Map) Len() int { return len(m.s.LivePtrs()) }
