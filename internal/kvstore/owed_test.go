package kvstore

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"cxlalloc/internal/core"
)

// putDelete has thread 0 put n values in the seven classes of
// drainCrashInSecondGroup, then delete them all, and then advances the
// epoch three times, so every value expires and its drain leaves it
// owed to thread 0's next puts.
func putDelete(t *testing.T, s *Store, n int) {
	t.Helper()
	sizes := []int{1000, 700, 480, 360, 240, 180, 120}
	for k := 0; k < n; k++ {
		if err := s.Put(0, key(k), make([]byte, sizes[k%len(sizes)])); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < n; k++ {
		if !s.Delete(0, key(k)) {
			t.Fatalf("key %d missing", k)
		}
	}
	for range 3 {
		s.rec.TryAdvance(0)
	}
}

// drainAndAudit drains the store and checks that it freed want values
// in all, that nothing is owed, and that an empty heap's ledger audits
// clean.
func drainAndAudit(t *testing.T, s *Store, heap *core.Heap, want int) {
	t.Helper()
	s.Drain()
	if owed := len(*s.rec.Owed(0)); owed != 0 {
		t.Fatalf("Drain left %d values owed", owed)
	}
	if got := s.Stats().Reclaimed; got != uint64(want) {
		t.Fatalf("%d of %d retired values freed", got, want)
	}
	for tid := 0; tid < 2; tid++ {
		heap.Maintain(tid)
	}
	if err := heap.CheckAll(0); err != nil {
		t.Fatalf("invariants: %v", err)
	}
	heap.DrainCaches()
	if err := heap.AuditEmpty(0); err != nil {
		t.Fatalf("ledger: %v", err)
	}
}

// A drain leaves a thread's own expired values owed, and its puts carry
// them off, three runs to a put, counting each as reclaimed; Drain frees
// what is left.
func TestPutsCarryOwedValues(t *testing.T) {
	s, heap, _ := newPodStore(t, 2, 16, nil)
	const n = 40
	putDelete(t, s, n)
	owed := len(*s.rec.Owed(0))
	if owed != n {
		t.Fatalf("%d values owed after expiry, want all %d", owed, n)
	}
	if err := s.Put(0, []byte("carrier"), make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if left := len(*s.rec.Owed(0)); left >= owed {
		t.Fatalf("a put carried nothing: %d values owed before it, %d after", owed, left)
	}
	s.Delete(0, []byte("carrier"))
	drainAndAudit(t, s, heap, n+1)
}

// A thread that only deletes owes at most the bound: past inboxCap
// owed values, a drain frees them all.
func TestDeleteOnlyThreadFreesPastTheBound(t *testing.T) {
	s, heap, _ := newPodStore(t, 2, 16, nil)
	const n = 400
	for k := 0; k < n; k++ {
		if err := s.Put(0, key(k), make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	for k := 0; k < n; k++ {
		s.Delete(0, key(k))
		if owed := len(*s.rec.Owed(0)); owed > 128 {
			t.Fatalf("%d values owed after %d deletes, want at most 128", owed, k+1)
		}
	}
	if got := s.Stats().Reclaimed; got == 0 {
		t.Fatalf("%d deletes freed nothing before Drain", n)
	}
	drainAndAudit(t, s, heap, n)
}

// A block owed twice, or owed after it was freed, fails as the classic
// local free's double free does, naming its slab and block, when a put
// carries it.
func TestOwedTwiceIsADoubleFree(t *testing.T) {
	for _, c := range []string{"owed-twice", "owed-after-free"} {
		t.Run(c, func(t *testing.T) {
			s, _, _ := newPodStore(t, 2, 16, nil)
			if err := s.Put(0, key(0), make([]byte, 100)); err != nil {
				t.Fatal(err)
			}
			p := s.LivePtrs()[0]
			s.Delete(0, key(0))
			if c == "owed-twice" {
				s.rec.Retire(0, 0, p)
			} else {
				s.FreeOrphan(0, p)
			}
			for range 3 {
				s.rec.TryAdvance(0)
			}
			msg := func() (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				s.Put(0, key(1), make([]byte, 100))
				return ""
			}()
			if !strings.Contains(msg, "double free of") || !strings.Contains(msg, "(slab ") {
				t.Fatalf("carrying a block owed twice: %q, want a double free naming its slab and block", msg)
			}
		})
	}
}

// keysOwed returns a copy of thread 0's owed list.
func keysOwed(s *Store) []uint64 { return slices.Clone(*s.rec.Owed(0)) }
