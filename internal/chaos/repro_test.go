package chaos

import (
	"testing"
	"time"

	"cxlalloc"
	"cxlalloc/internal/crash"
	"cxlalloc/internal/xrand"
)

// TestLiveRepairDrainFree reproduces the online-chaos ledger leak in a
// deterministic harness: put/delete traffic on every slot in turn, one
// victim armed at a single free-path crash point, watchdog-only
// recovery, ground-truth resolution, audit.
//
// An epoch drain hands each expired value to the slot that allocated
// it, so the victim frees another slot's values remotely only when that
// slot is idle and its inbox is full (more than the reclaimer's bound of
// 128). The survivors are idle while the victim runs alone, so the
// remote-free point needs a keyspace holding well over 128 values of
// each survivor when the victim is armed: about keys/6 each, as a key is
// present two thirds of the time and last written by any of 4 slots.
func TestLiveRepairDrainFree(t *testing.T) {
	for _, c := range []struct {
		point string
		keys  int
	}{
		{"small.local-free.post-oplog", 64},
		{"small.local-free.post-put", 64},
		{"small.remote-free.pre-cas", 1024},
	} {
		t.Run(c.point, func(t *testing.T) { repairDrainFree(t, c.point, c.keys) })
	}
}

// drainWriter is one slot's side of the test: its draws, and the write
// a crash left pending (in Go memory, so the unwind leaves it as is).
type drainWriter struct {
	tid  int
	rng  *xrand.Rand
	pend *drainPend
}

type drainPend struct {
	put bool
	key int
	ptr cxlalloc.Ptr // put: captured allocation (0 = Alloc never returned)
}

func repairDrainFree(t *testing.T, point string, keys int) {
	const threads = 4
	inj := crash.NewInjector()
	pt, err := NewPodTarget(threads, 2, keys, 64, 16, inj)
	if err != nil {
		t.Fatal(err)
	}
	pod, heap := pt.Pod, pt.Pod.Heap()
	pod.RetuneLiveness(cxlalloc.LivenessConfig{RenewInterval: 4, GraceMult: 64, PollInterval: 4})
	orc := NewOracle(keys)
	var gates Gates
	workers := make([]*drainWriter, threads)
	for tid := range workers {
		workers[tid] = &drainWriter{tid: tid, rng: xrand.New(uint64(tid) + 99)}
	}
	held := func(k int) bool {
		for _, w := range workers {
			if w.pend != nil && w.pend.key == k {
				return true
			}
		}
		return false
	}

	// step runs one put or delete in w's slot, or first settles the write
	// a crash left pending. Keys are drawn over the whole keyspace, so a
	// slot retires what another allocated; a key a crashed write still
	// holds is left alone until it is settled.
	var keyb, valb []byte
	step := func(w *drainWriter) *cxlalloc.Crashed {
		th, err := pod.ThreadOf(w.tid)
		if err != nil {
			return &cxlalloc.Crashed{TID: w.tid}
		}
		return th.Run(func() {
			if p := w.pend; p != nil {
				keyb = KeyBytes(keyb, p.key)
				if p.put {
					orc.Resolve(p.key, pt.Store.ResolvePut(w.tid, keyb, &p.ptr))
				} else {
					_, found := pt.Store.Get(w.tid, keyb, nil)
					orc.Resolve(p.key, !found)
				}
				w.pend = nil
				return
			}
			k := w.rng.Intn(keys)
			if held(k) {
				return
			}
			keyb = KeyBytes(keyb, k)
			if orc.Current(k).Present && w.rng.Intn(2) == 0 {
				w.pend = &drainPend{key: k}
				orc.Begin(k, KVState{})
				if !pt.Store.Delete(w.tid, keyb) {
					gates.LostAckf("key %d: vanished before delete", k)
				}
			} else {
				ver := orc.NextVersion(k)
				p := &drainPend{put: true, key: k}
				w.pend = p
				orc.Begin(k, KVState{Ver: ver, Present: true})
				valb = EncodeVal(valb, k, ver)
				if err := pt.Store.PutTracked(w.tid, keyb, valb, func(ptr cxlalloc.Ptr) { p.ptr = ptr }); err != nil {
					// Out of memory while a dead slot holds the epoch back:
					// the put never happened.
					orc.Resolve(k, false)
					w.pend = nil
					return
				}
			}
			orc.Ack(k)
			w.pend = nil
		})
	}

	// Seed some churn, then arm the victim and drive it until it dies.
	for i := 0; i < 2000; i++ {
		for _, w := range workers {
			if c := step(w); c != nil {
				t.Fatalf("unexpected crash before arming: tid %d at %s", c.TID, c.Point)
			}
		}
	}
	victim := workers[1]
	inj.Arm(point, victim.tid, 3)
	crashed := false
	for i := 0; i < 200000 && !crashed; i++ {
		if c := step(victim); c != nil {
			if c.Point != point {
				t.Fatalf("crashed at %s, wanted %s", c.Point, point)
			}
			crashed = true
		}
	}
	inj.Disarm()
	if !crashed {
		t.Skipf("point %s never fired under this traffic", point)
	}

	// Watchdog-only recovery: survivors' heartbeats must repair the slot.
	deadline := time.Now().Add(10 * time.Second)
	for !heap.Alive(victim.tid) || !heap.Leased(victim.tid) {
		for _, w := range workers {
			if w == victim {
				continue
			}
			if c := step(w); c != nil {
				t.Fatalf("survivor tid %d crashed at %s", c.TID, c.Point)
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("watchdog never repaired the victim")
		}
	}
	// Settle the victim's pending write, then run on.
	for i := 0; i < 100; i++ {
		if c := step(victim); c != nil {
			t.Fatalf("victim crashed post-repair at %s", c.Point)
		}
	}

	pt.Audit(&gates, orc, keys, threads)
	if v, l := gates.Violations(), gates.LostAcks(); len(v) != 0 || len(l) != 0 {
		t.Fatalf("violations %q, lost acks %q", v, l)
	}
}
