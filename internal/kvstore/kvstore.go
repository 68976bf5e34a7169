// Package kvstore is the in-memory key-value index of the paper's
// macrobenchmarks (§5.2.1): an adaptation of cxl-shm's non-resizable
// lock-free hash table, extended with deletion via logical marking and
// epoch-based reclamation.
//
// The index structure is deliberately identical across allocators
// ("because we are comparing the impact of the underlying allocator, and
// not the index data structure"): chain nodes live in harness memory,
// while every entry's key and value bytes are one allocation from the
// allocator under test — so each insert is one Alloc, each
// delete/replace is one (possibly remote, possibly deferred) Free, and
// each read is one AccessHook on the allocation.
package kvstore

import (
	"bytes"
	"sync"
	"sync/atomic"

	"cxlalloc/internal/alloc"
	"cxlalloc/internal/epoch"
)

// node is one chain entry. Nodes are insert-at-head only; deletion is a
// logical flag followed by best-effort physical unlinking, which keeps
// the list lock-free without marked-pointer tricks (a node is never
// inserted mid-list, so the classic lost-insert race cannot occur).
type node struct {
	next    atomic.Pointer[node]
	deleted atomic.Bool
	ptr     alloc.Ptr // key||value allocation
	keyLen  int32
	valLen  int32
	hash    uint64
}

// Store is the hash index. Reads and inserts are lock-free; physical
// unlinking of logically deleted nodes serializes per bucket shard
// (without marked pointers, a concurrent unlink of a victim's successor
// could resurrect a reclaimed node through a stale next pointer; a
// deleter-only shard lock rules that out while leaving the measured hot
// paths — reads and inserts — lock-free). All methods are safe for
// concurrent use by distinct thread IDs.
type Store struct {
	buckets []atomic.Pointer[node]
	mask    uint64
	mem     alloc.Allocator
	rec     *epoch.Reclaimer
	shards  []sync.Mutex

	inserts  atomic.Uint64
	replaces atomic.Uint64
	deletes  atomic.Uint64
	hits     atomic.Uint64
	misses   atomic.Uint64
}

// New creates a store with nBuckets (rounded up to a power of two)
// over the given allocator, for nThreads threads.
func New(mem alloc.Allocator, nBuckets, nThreads int) *Store {
	n := 1
	for n < nBuckets {
		n <<= 1
	}
	return &Store{
		buckets: make([]atomic.Pointer[node], n),
		mask:    uint64(n - 1),
		mem:     mem,
		rec: epoch.New(nThreads, func(tid int, ps *[]uint64) {
			alloc.FreeAll(mem, tid, ps)
		}),
		shards: make([]sync.Mutex, min(n, 4096)),
	}
}

func (s *Store) shard(h uint64) *sync.Mutex {
	return &s.shards[(h&s.mask)%uint64(len(s.shards))]
}

// hash is FNV-1a; good enough dispersion for the benchmark keyspaces.
func hash(key []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}

// Put inserts or replaces key's value. It returns an allocator error
// (e.g. cxl-shm's size cap) unchanged, so the harness can record
// unsupported configurations.
func (s *Store) Put(tid int, key, val []byte) error {
	return s.PutTracked(tid, key, val, nil)
}

// PutTracked is Put with an allocation-visibility hook for crash-aware
// clients: onAlloc (when non-nil) runs as soon as the value allocation
// has returned, before any byte is written or the node is linked. A
// client that crashes mid-Put can then resolve the op's fate exactly
// with ResolvePut. (A crash before onAlloc runs leaves the allocation, if
// any, to the recovery report's PendingAlloc — the two windows cannot
// overlap.)
func (s *Store) PutTracked(tid int, key, val []byte, onAlloc func(alloc.Ptr)) error {
	p, err := s.mem.Alloc(tid, len(key)+len(val))
	if err != nil {
		return err
	}
	if onAlloc != nil {
		onAlloc(p)
	}
	buf := s.mem.Bytes(tid, p, len(key)+len(val))
	copy(buf, key)
	copy(buf[len(key):], val)

	h := hash(key)
	n := &node{ptr: p, keyLen: int32(len(key)), valLen: int32(len(val)), hash: h}
	b := &s.buckets[h&s.mask]

	s.rec.Enter(tid)
	for {
		head := b.Load()
		n.next.Store(head)
		if b.CompareAndSwap(head, n) {
			break
		}
	}
	s.inserts.Add(1)
	// Retire any older entry for the same key (replace semantics).
	if s.removeAfter(tid, n, key, h) {
		s.replaces.Add(1)
	}
	s.rec.Exit(tid)
	return nil
}

// Get copies key's value into dst (growing it as needed) and reports
// whether the key was found.
//
// A replace prepends the new node, then marks the old one deleted and
// unlinks it, so a reader that loaded the bucket head before the prepend
// can reach the old node after the mark, or walk past where it was after
// the unlink, and would report a key that was never absent as missing.
// Both are caught here: a deleted node that matches the probe, and the
// end of the chain, are believed only if the head is still the one the
// walk started from — nothing was prepended, so there was no newer node
// to miss. Otherwise the walk restarts from the new head. Each restart
// is paid for by a writer's completed prepend, so reads stay lock-free.
func (s *Store) Get(tid int, key []byte, dst []byte) ([]byte, bool) {
	h := hash(key)
	b := &s.buckets[h&s.mask]
	s.rec.Enter(tid)
	defer s.rec.Exit(tid)
	for {
		head := b.Load()
		for n := head; n != nil; n = n.next.Load() {
			if n.hash != h || int(n.keyLen) != len(key) {
				continue
			}
			// A deleted node's bytes are still there to compare: it is
			// retired after the mark, and this walk's guard predates that.
			buf := s.mem.Bytes(tid, n.ptr, int(n.keyLen)+int(n.valLen))
			if !bytes.Equal(buf[:n.keyLen], key) {
				continue
			}
			if n.deleted.Load() {
				break
			}
			s.mem.AccessHook(tid, n.ptr)
			dst = append(dst[:0], buf[n.keyLen:]...)
			s.hits.Add(1)
			return dst, true
		}
		if b.Load() == head {
			s.misses.Add(1)
			return dst, false
		}
	}
}

// Range calls fn for every live key/value pair, passing buffers that
// alias allocator memory — fn must copy anything it keeps. The walk is
// safe against concurrent readers and head-inserts (it holds an epoch
// guard), best-effort under concurrent writes — a replace racing the
// walk can hide its key (see Get), and Range cannot restart a bucket
// without repeating fn — and exact once writes to the
// keys involved are frozen: the fabric migration copy path freezes the
// shard before ranging. Returning false stops the walk.
func (s *Store) Range(tid int, fn func(key, val []byte) bool) {
	s.rec.Enter(tid)
	defer s.rec.Exit(tid)
	for bi := range s.buckets {
		head := s.buckets[bi].Load()
		for n := head; n != nil; n = n.next.Load() {
			if n.deleted.Load() {
				continue
			}
			buf := s.mem.Bytes(tid, n.ptr, int(n.keyLen)+int(n.valLen))
			key := buf[:n.keyLen]
			// Newest-wins dedup: a put that crashed between its head CAS
			// and retiring the old entry leaves a shadowed duplicate
			// deeper in the chain; only the node nearest the head counts.
			shadowed := false
			for m := head; m != n; m = m.next.Load() {
				if m.deleted.Load() || m.hash != n.hash || m.keyLen != n.keyLen {
					continue
				}
				if bytes.Equal(s.mem.Bytes(tid, m.ptr, int(m.keyLen)), key) {
					shadowed = true
					break
				}
			}
			if shadowed {
				continue
			}
			if !fn(key, buf[n.keyLen:]) {
				return
			}
		}
	}
}

// Delete removes key, reporting whether it was present.
func (s *Store) Delete(tid int, key []byte) bool {
	h := hash(key)
	s.rec.Enter(tid)
	defer s.rec.Exit(tid)
	mu := s.shard(h)
	mu.Lock()
	defer mu.Unlock()
	b := &s.buckets[h&s.mask]
	for n := b.Load(); n != nil; n = n.next.Load() {
		if n.deleted.Load() || n.hash != h || int(n.keyLen) != len(key) {
			continue
		}
		buf := s.mem.Bytes(tid, n.ptr, int(n.keyLen))
		if !bytes.Equal(buf, key) {
			continue
		}
		n.deleted.Store(true)
		s.unlink(tid, h, n)
		s.deletes.Add(1)
		return true
	}
	return false
}

// removeAfter logically deletes the first non-deleted duplicate of key
// strictly after marker, retiring its allocation.
func (s *Store) removeAfter(tid int, marker *node, key []byte, h uint64) bool {
	mu := s.shard(h)
	mu.Lock()
	defer mu.Unlock()
	for n := marker.next.Load(); n != nil; n = n.next.Load() {
		if n.deleted.Load() || n.hash != h || int(n.keyLen) != len(key) {
			continue
		}
		buf := s.mem.Bytes(tid, n.ptr, int(n.keyLen))
		if !bytes.Equal(buf, key) {
			continue
		}
		n.deleted.Store(true)
		s.unlink(tid, h, n)
		return true
	}
	return false
}

// unlink physically removes a logically deleted node and retires its
// allocation. The caller holds the bucket's shard lock, so no other
// unlink can run in this chain and victim.next is stable; only
// lock-free head inserts race, handled by retrying the head CAS.
func (s *Store) unlink(tid int, h uint64, victim *node) {
	b := &s.buckets[h&s.mask]
	next := victim.next.Load()
	for {
		var prev *node
		n := b.Load()
		for n != nil && n != victim {
			prev = n
			n = n.next.Load()
		}
		if n == nil {
			// Not reachable: cannot happen with the shard lock held,
			// since only lock holders unlink.
			panic("kvstore: victim vanished while holding shard lock")
		}
		if prev != nil {
			// Interior predecessors are stable under the shard lock.
			if !prev.next.CompareAndSwap(victim, next) {
				panic("kvstore: interior next changed under shard lock")
			}
			break
		}
		if b.CompareAndSwap(victim, next) {
			break
		}
		// A concurrent head insert changed the bucket; retry.
	}
	s.rec.Retire(tid, victim.ptr)
}

// ResolvePut settles a PutTracked that crashed, from the repaired slot:
// *p is the allocation its onAlloc captured (0 if Alloc never returned).
// The put applied iff that allocation is linked. If it is not, it is the
// caller's, and it is freed — with *p cleared first: a free, once started,
// is completed by the redo protocol, and a crash inside it must not lead
// the retry into a double free. Either way, a put that crashed between
// its head CAS and retiring the older entry left two live nodes for key,
// and the older one is swept. Idempotent: a crash inside ResolvePut is
// resolved by calling it again with the same p.
func (s *Store) ResolvePut(tid int, key []byte, p *alloc.Ptr) (applied bool) {
	if ptr := *p; ptr != 0 {
		if s.linked(tid, key, ptr) {
			applied = true
		} else {
			*p = 0
			s.FreeOrphan(tid, ptr)
		}
	}
	s.sweep(tid, key)
	return applied
}

// linked reports whether key's chain currently holds a live (not
// logically deleted) node whose allocation is p: the head CAS is the
// insert's linearization point, so a captured allocation that is not
// linked afterwards never became visible to readers. The walk skips
// nothing, and an unlinked node's next still leads back into the chain,
// so a node that stays linked is always reached.
func (s *Store) linked(tid int, key []byte, p alloc.Ptr) bool {
	h := hash(key)
	s.rec.Enter(tid)
	defer s.rec.Exit(tid)
	for n := s.buckets[h&s.mask].Load(); n != nil; n = n.next.Load() {
		if n.ptr == p && !n.deleted.Load() {
			return true
		}
	}
	return false
}

// sweep restores the at-most-one-live-node invariant for key after a
// crashed Put: it keeps the first (newest) live match and deletes every
// later one, returning how many duplicates it removed. Idempotent — a
// crash inside sweep is resolved by running it again.
func (s *Store) sweep(tid int, key []byte) int {
	h := hash(key)
	s.rec.Enter(tid)
	defer s.rec.Exit(tid)
	mu := s.shard(h)
	mu.Lock()
	defer mu.Unlock()
	removed := 0
	seen := false
	for n := s.buckets[h&s.mask].Load(); n != nil; n = n.next.Load() {
		if n.deleted.Load() || n.hash != h || int(n.keyLen) != len(key) {
			continue
		}
		buf := s.mem.Bytes(tid, n.ptr, int(n.keyLen))
		if !bytes.Equal(buf, key) {
			continue
		}
		if !seen {
			seen = true
			continue
		}
		n.deleted.Store(true)
		s.unlink(tid, h, n)
		removed++
	}
	return removed
}

// Stats is the store's operation accounting.
type Stats struct {
	Inserts, Replaces, Deletes, Hits, Misses, Reclaimed uint64
}

// Stats returns a snapshot.
func (s *Store) Stats() Stats {
	return Stats{
		Inserts:   s.inserts.Load(),
		Replaces:  s.replaces.Load(),
		Deletes:   s.deletes.Load(),
		Hits:      s.hits.Load(),
		Misses:    s.misses.Load(),
		Reclaimed: s.rec.Freed(),
	}
}

// FreeOrphan returns an allocation that never got linked (a recovered
// pending allocation) to the underlying allocator.
func (s *Store) FreeOrphan(tid int, p alloc.Ptr) { s.mem.Free(tid, p) }

// LivePtrs enumerates every live entry's allocation. Only safe at
// quiescence; the Figure 7 harness uses it as the root set for ralloc's
// recovery garbage collection.
func (s *Store) LivePtrs() []alloc.Ptr {
	var out []alloc.Ptr
	for i := range s.buckets {
		for n := s.buckets[i].Load(); n != nil; n = n.next.Load() {
			if !n.deleted.Load() {
				out = append(out, n.ptr)
			}
		}
	}
	return out
}

// Drain flushes every thread's deferred reclamations. Only safe at
// quiescence; benchmarks call it before measuring memory.
func (s *Store) Drain(nThreads int) {
	for tid := 0; tid < nThreads; tid++ {
		s.rec.TryAdvance(tid)
		s.rec.TryAdvance(tid)
		s.rec.TryAdvance(tid)
		s.rec.Flush(tid)
	}
}
