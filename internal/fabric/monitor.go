package fabric

import (
	"fmt"
	"time"

	"cxlalloc/internal/telemetry"
)

// Pod-dark causes (telemetry EvPodDark/EvPodHeal Arg).
const (
	darkCauseStall = 0 // heartbeat plane stopped advancing
	darkCauseFence = 1 // device fenced off by fault injection
)

const monPoll = 2 * time.Millisecond

// monitor is the fabric's liveness plane: it watches each pod's
// logical clock (every Thread.Run ticks it, and idle workers tick
// benignly, so a serving pod always advances), declares a pod dark
// after DarkGrace of stall, retakes stalled shard claims, and re-places
// shards orphaned on decommissioned pods.
func (f *Fabric) monitor() {
	defer f.monWG.Done()
	for !f.stopped.Load() {
		now := time.Now()
		for _, n := range f.pods {
			f.checkPod(n, now)
		}
		f.sweepStalled(now)
		f.sweepOrphanShards()
		time.Sleep(monPoll)
	}
}

func (f *Fabric) checkPod(n *podNode, now time.Time) {
	if n.dark.Load() || n.decommissioned.Load() {
		return
	}
	c := n.pod.Heap().ClockNow(0)
	if c != n.lastClock.Load() {
		n.lastClock.Store(c)
		n.lastAdvance.Store(now.UnixNano())
		return
	}
	if n.fenced.Load() {
		// Fenced is its own state with its own heal path; a fenced pod
		// must not also go dark (failover would copy unreachable bytes).
		n.lastAdvance.Store(now.UnixNano())
		return
	}
	if now.UnixNano()-n.lastAdvance.Load() < int64(f.cfg.DarkGrace) {
		return
	}
	n.dark.Store(true)
	f.podDarks.Add(1)
	f.emit(telemetry.EvPodDark, uint64(n.id), darkCauseStall)
	f.monWG.Add(1)
	go func() {
		defer f.monWG.Done()
		f.failover(n)
	}()
}

// FencePod partitions pod i off: the router rejects its traffic and no
// handoff may touch its device. There is deliberately no failover for a
// fence — the bytes are intact but unreachable, so flipping ownership
// would manufacture lost acks. Shards wait for HealPod.
func (f *Fabric) FencePod(i int) {
	n := f.pods[i]
	if n.fenced.Swap(true) {
		return
	}
	f.podFencesN.Add(1)
	f.emit(telemetry.EvPodDark, uint64(i), darkCauseFence)
}

// HealPod lifts pod i's fence; routing resumes at the same epoch (no
// ownership changed while fenced).
func (f *Fabric) HealPod(i int) {
	n := f.pods[i]
	if !n.fenced.Swap(false) {
		return
	}
	n.lastAdvance.Store(time.Now().UnixNano())
	f.podHeals.Add(1)
	f.emit(telemetry.EvPodHeal, uint64(i), darkCauseFence)
}

// failover evacuates a dark pod: decommission it, rescue its dead
// thread slots so every pending crashed write settles against store
// ground truth, stop its server, then migrate every owned shard to its
// new ring placement. MTTR is dark-declared → last shard flipped.
func (f *Fabric) failover(n *podNode) {
	start := time.Now()
	f.failoversN.Add(1)

	// Ground truth for the false-takeover gate: a dark declaration is
	// legitimate only for a pod the fault plan actually killed. Evacuating
	// a live pod is still *safe* (the epoch CAS fences its writers out),
	// but it is a liveness bug the experiment must count.
	if !n.dying.Load() {
		owned := f.OwnedShards(n.id)
		f.falseShardTakeovers.Add(uint64(len(owned)))
		f.violation(fmt.Sprintf("pod %d declared dark while live: false takeover of %d shards", n.id, len(owned)))
	}

	// Out of the ring first: the router stops sending, the gate rejects
	// anything already queued, and new placements skip this pod.
	n.decommissioned.Store(true)
	f.rebuildRing()

	// Rescue every dead slot. Reviving a worker's slot wakes it from
	// awaitRepair so it resolves its pending crashed write (ack or
	// ErrCrashed, from what actually persisted); reviving the agent slot
	// gives the copy-out a working control thread. Pod memory outlived
	// the pod's processes — that is the premise being exercised.
	heap := n.pod.Heap()
	for tid := 0; tid <= f.cfg.Threads; tid++ {
		if heap.Alive(tid) {
			continue
		}
		np := n.pod.NewProcess()
		if _, rep, err := np.Recover(tid); err != nil {
			f.violation(fmt.Sprintf("pod %d: rescue of slot %d failed: %v", n.id, tid, err))
		} else if rep.PendingAlloc != 0 {
			n.addOrphan(rep.PendingAlloc)
		}
	}

	// Every pending crashed write must settle before the copy-out: an
	// unsettled pend is an ack-racing op whose effect the copy would
	// fork. Only then stop the server (stopping first would answer
	// maybe-applied writes ErrStopped — a manufactured lost ack).
	deadline := time.Now().Add(pendWait)
	for n.srv.PendingCrashed() != 0 {
		if time.Now().After(deadline) {
			f.violation(fmt.Sprintf("pod %d: %d crashed writes unsettled at failover", n.id, n.srv.PendingCrashed()))
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	n.srv.Stop()

	for _, s := range f.OwnedShards(n.id) {
		dst := f.pickTarget(s)
		if dst < 0 {
			f.violation(fmt.Sprintf("pod %d: no live failover target for shard %d", n.id, s))
			continue
		}
		f.failoverShard(s, n.id, dst)
	}
	f.recordMTTR(time.Since(start))
}

// failoverShard force-moves shard s off a dark pod: take the claim
// unconditionally (superseding any in-flight migrator) and drive the
// same handoff protocol with the source-liveness checks waived.
func (f *Fabric) failoverShard(s, srcID, dstID int) {
	sl := &f.shard[s]
	tok := sl.takeClaim()
	w := sl.word.Load()
	if wordOwner(w) != srcID {
		// Already flipped away (a racing migration completed first).
		sl.release(tok)
		return
	}
	m := &migration{shard: s, src: srcID, dst: dstID, epoch: wordEpoch(w), tok: tok, failover: true}
	m.progress()
	f.register(m)
	f.emit(telemetry.EvShardClaim, uint64(s), uint32(dstID))
	// A stall or crash here is retaken by the sweep like any other.
	_ = f.drive(m)
}

// sweepStalled retakes handoffs whose claim has not progressed within
// MigStall — the interrupted-migrator path: a new claim generation
// supersedes the old holder and re-drives the idempotent protocol.
func (f *Fabric) sweepStalled(now time.Time) {
	f.migMu.Lock()
	var stale []*migration
	for _, m := range f.migs {
		if now.UnixNano()-m.lastProg.Load() > int64(f.cfg.MigStall) {
			stale = append(stale, m)
		}
	}
	f.migMu.Unlock()
	for _, m := range stale {
		f.retake(m)
	}
}

func (f *Fabric) retake(m *migration) {
	sl := &f.shard[m.shard]
	if f.pods[m.src].fenced.Load() {
		// Source bytes unreachable; both copy and drain need them. Hold
		// the claim and wait for the fence to heal.
		return
	}
	w := sl.word.Load()
	flipped := wordOwner(w) == m.dst && wordEpoch(w) == m.epoch+1
	if !flipped && !f.pods[m.dst].endpoint() {
		// The handoff can never complete; thaw the shard back onto its
		// source. (If the source itself is gone, the orphan sweep
		// re-places it with a fresh target.)
		tok := sl.takeClaim()
		f.forget(m)
		if sl.word.CompareAndSwap(packWord(m.src, shardFrozen, m.epoch), packWord(m.src, shardServing, m.epoch)) {
			f.migAborts.Add(1)
		}
		sl.release(tok)
		return
	}
	tok := sl.takeClaim()
	m2 := &migration{shard: m.shard, src: m.src, dst: m.dst, epoch: m.epoch, tok: tok, failover: m.failover}
	m2.progress()
	f.register(m2)
	f.migRetakes.Add(1)
	f.monWG.Add(1)
	go func() {
		defer f.monWG.Done()
		_ = f.drive(m2)
	}()
}

// sweepOrphanShards re-places shards still owned by a decommissioned
// pod with no handoff in flight (a failover drive that aborted, or a
// target that died mid-evacuation).
func (f *Fabric) sweepOrphanShards() {
	for s := range f.shard {
		w := f.shard[s].word.Load()
		o := wordOwner(w)
		if !f.pods[o].decommissioned.Load() {
			continue
		}
		f.migMu.Lock()
		_, busy := f.migs[s]
		f.migMu.Unlock()
		if busy || f.shard[s].claim.Load()&1 != 0 {
			continue
		}
		dst := f.pickTarget(s)
		if dst < 0 {
			continue
		}
		f.monWG.Add(1)
		go func(s, src, dst int) {
			defer f.monWG.Done()
			f.failoverShard(s, src, dst)
		}(s, o, dst)
	}
}

// pickTarget returns shard s's placement on the current (survivors-
// only) ring, walking past pods that are not live endpoints right now.
func (f *Fabric) pickTarget(s int) int {
	f.ringMu.Lock()
	r := f.ring
	f.ringMu.Unlock()
	return r.placeWhere(uint64(s), f.cfg.Seed, func(p int) bool { return f.pods[p].endpoint() })
}

// rebuildRing drops decommissioned pods from the placement ring;
// consistent hashing keeps every survivor's shards where they are.
func (f *Fabric) rebuildRing() {
	f.ringMu.Lock()
	f.ring = buildRing(f.cfg.Pods, f.cfg.Seed, func(p int) bool {
		return !f.pods[p].decommissioned.Load()
	})
	f.ringMu.Unlock()
}

func (f *Fabric) recordMTTR(d time.Duration) {
	f.mttrMu.Lock()
	f.mttrs = append(f.mttrs, d)
	f.mttrMu.Unlock()
}
