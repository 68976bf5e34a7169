package server

import (
	"sync"
	"testing"
	"time"

	"cxlalloc/internal/chaos"
	"cxlalloc/internal/xrand"
)

// scriptedStore is a Submitter with a model store behind it: it answers
// from its own goroutine after a short delay (so lanes really overlap),
// fails the test if two writes are ever in flight on one key, and
// scripts some writes to be rejected and some to crash, applied or not.
type scriptedStore struct {
	t  *testing.T
	wg sync.WaitGroup

	mu       sync.Mutex
	vers     map[int]uint64 // present keys and their versions
	inFlight map[int]bool
	writes   int
	overlap  int
}

func (s *scriptedStore) Submit(r *Request) {
	s.mu.Lock()
	fate := 0 // ack
	if r.Op != OpGet {
		if s.inFlight[r.KeyID] {
			s.overlap++
		}
		s.inFlight[r.KeyID] = true
		s.writes++
		switch {
		case s.writes%5 == 0:
			fate = 1 // typed rejection: never executed
		case s.writes%7 == 0:
			fate = 2 // crashed, effect survived
		case s.writes%11 == 0:
			fate = 3 // crashed, effect lost
		}
	}
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		time.Sleep(50 * time.Microsecond)
		if fate == 1 {
			s.mu.Lock()
			delete(s.inFlight, r.KeyID)
			s.mu.Unlock()
			Reject(r, ErrDeadlineExceeded)
			return
		}
		s.mu.Lock()
		ver, present := s.vers[r.KeyID]
		r.resp.Found = present
		switch {
		case r.Op == OpGet:
			if present {
				r.Dst = chaos.EncodeVal(r.Dst, r.KeyID, ver)
				r.resp.Value = r.Dst
			}
		case fate == 3:
			// died before its effect landed
		case r.Op == OpPut:
			nv, err := chaos.DecodeVal(r.KeyID, r.Val)
			if err != nil {
				s.t.Errorf("put carries an invalid value: %v", err)
			}
			s.vers[r.KeyID] = nv
		default:
			if present && ver != r.PrevVer {
				s.t.Errorf("delete of key %d displaces ver %d, request says %d", r.KeyID, ver, r.PrevVer)
			}
			delete(s.vers, r.KeyID)
		}
		if r.Op != OpGet {
			delete(s.inFlight, r.KeyID)
		}
		s.mu.Unlock()
		if fate >= 2 {
			r.resp.Applied = fate == 2
			Reject(r, ErrCrashed)
			return
		}
		r.resp.DoneWall = time.Now()
		r.done <- r
	}()
}

// TestIssuerLanesShareOneIssuer: the oracle's precondition (one write in
// flight per key) holds across lanes, every response settles the oracle
// the way the store's real fate went, and nothing stays busy.
func TestIssuerLanesShareOneIssuer(t *testing.T) {
	const keys, lanes, opsPerLane = 12, 8, 400
	store := &scriptedStore{t: t, vers: map[int]uint64{}, inFlight: map[int]bool{}}
	orc := chaos.NewOracle(keys)
	var gates chaos.Gates
	rng := xrand.New(7)
	// One issuer owning the whole (tiny) keyspace: writes collide on busy
	// keys constantly, which is the point.
	is := NewIssuer(NewClient(store, 1), orc, &gates, time.Second, rng,
		func() int { return rng.Intn(keys) },
		func() int { return rng.Intn(keys) })

	var wg sync.WaitGroup
	var mu sync.Mutex
	var seen [3]int
	for l := 0; l < lanes; l++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := NewRequest()
			for i := 0; i < opsPerLane; i++ {
				is.Prepare(req)
				out := is.Finalize(req, is.Client.Do(req))
				mu.Lock()
				seen[out]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	store.wg.Wait()

	if store.overlap != 0 {
		t.Fatalf("%d writes were issued on a key that already had a write in flight", store.overlap)
	}
	if seen[Acked] == 0 || seen[Crashed] == 0 || seen[Rejected] == 0 {
		t.Fatalf("outcomes acked/crashed/rejected = %v: the script must exercise all three", seen)
	}
	if len(is.busy) != 0 {
		t.Fatalf("busy set not empty after the lanes stopped: %v", is.busy)
	}
	// The oracle's settled state must equal the model store: a rejection
	// resolved as applied, or a crash resolved against resp.Applied, would
	// show here as a lost ack (or earlier, as a delete that found nothing).
	orc.FinalSweep(&gates, chaos.KeyRange(keys), "", func(key, buf []byte) ([]byte, bool) {
		for k, ver := range store.vers {
			if string(chaos.KeyBytes(nil, k)) == string(key) {
				return chaos.EncodeVal(buf, k, ver), true
			}
		}
		return buf, false
	})
	if v, l := gates.Violations(), gates.LostAcks(); len(v) != 0 || len(l) != 0 {
		t.Fatalf("violations %q, lost acks %q", v, l)
	}
}
