package fabric

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"time"

	"cxlalloc/internal/telemetry"
)

// Migration step names — stable identifiers used by the fault schedule
// (a mig-interrupt spec kills the migrator after the named step).
const (
	StepFreeze = "freeze"
	StepCopy   = "copy"
	StepVerify = "verify"
	StepFlip   = "flip"
)

// MigrationSteps lists the interruptible steps in protocol order.
var MigrationSteps = []string{StepFreeze, StepCopy, StepVerify, StepFlip}

// migration is one handoff attempt: the claim token fences it, and
// every phase is idempotent so a re-claimant can re-drive from
// whatever state the last holder left.
type migration struct {
	shard, src, dst int
	epoch           uint64 // routing epoch at claim time (flip expects it)
	tok             uint64 // held claim value
	failover        bool   // src is dark: skip source endpoint checks
	interruptAfter  string // chaos: abandon the drive after this step
	lastProg        atomic.Int64
}

func (m *migration) progress() { m.lastProg.Store(time.Now().UnixNano()) }

func (f *Fabric) register(m *migration) {
	f.migMu.Lock()
	f.migs[m.shard] = m
	f.migMu.Unlock()
}

func (f *Fabric) forget(m *migration) {
	f.migMu.Lock()
	if f.migs[m.shard] == m {
		delete(f.migs, m.shard)
	}
	f.migMu.Unlock()
}

// Migrate live-migrates shard to pod dst: claim, freeze, copy, verify,
// flip, drain. interruptAfter, when non-empty, abandons the drive
// after that step completes — simulating a migrator crash — leaving
// the claim held and the shard frozen for the monitor to re-claim and
// re-drive. Synchronous; callers wanting fire-and-forget wrap it in a
// goroutine.
func (f *Fabric) Migrate(shard, dst int, interruptAfter string) error {
	if shard < 0 || shard >= f.cfg.Shards || dst < 0 || dst >= f.cfg.Pods {
		return fmt.Errorf("fabric: bad migrate target shard=%d dst=%d", shard, dst)
	}
	sl := &f.shard[shard]
	w := sl.word.Load()
	src := wordOwner(w)
	if src == dst {
		return fmt.Errorf("fabric: shard %d already on pod %d", shard, dst)
	}
	if wordState(w) != shardServing {
		return fmt.Errorf("fabric: shard %d mid-handoff", shard)
	}
	if !f.pods[src].endpoint() || !f.pods[dst].endpoint() {
		return fmt.Errorf("fabric: shard %d endpoints not healthy (src %d, dst %d)", shard, src, dst)
	}
	tok, ok := sl.tryClaim()
	if !ok {
		return fmt.Errorf("fabric: shard %d claim held", shard)
	}
	m := &migration{shard: shard, src: src, dst: dst, epoch: wordEpoch(w), tok: tok, interruptAfter: interruptAfter}
	m.progress()
	f.register(m)
	f.migStarts.Add(1)
	f.emit(telemetry.EvShardClaim, uint64(shard), uint32(dst))
	return f.drive(m)
}

// interrupt fires the armed mid-migration crash: the "migrator" dies
// after completing step, leaving the claim held and the protocol state
// exactly as the step left it. The monitor's stalled-claim sweep must
// finish the handoff.
func (f *Fabric) interrupt(m *migration, step string) bool {
	if m.interruptAfter != step {
		return false
	}
	f.migInterruptsN.Add(1)
	for i, s := range MigrationSteps {
		if s == step {
			f.emit(telemetry.EvMigInterrupt, uint64(m.shard), uint32(i))
		}
	}
	return true
}

// unwind aborts a handoff cleanly: scrub any partial copy off dst,
// thaw the routing word back to serving on src, release the claim.
func (f *Fabric) unwind(m *migration, scrubDst bool, reason string) error {
	sl := &f.shard[m.shard]
	if scrubDst {
		// Partial copies from an unwound attempt must not survive to a
		// later handoff — a stale extra key would resurrect a deleted
		// value at flip time.
		if held, _ := f.purge(f.pods[m.dst], m); !held {
			return f.superseded(m, "unwind")
		}
	}
	sl.word.CompareAndSwap(packWord(m.src, shardFrozen, m.epoch), packWord(m.src, shardServing, m.epoch))
	sl.release(m.tok)
	f.forget(m)
	f.migAborts.Add(1)
	return fmt.Errorf("fabric: shard %d handoff aborted: %s", m.shard, reason)
}

// stall leaves the handoff exactly as it stands — claim held, state
// frozen — for the monitor's stalled-claim sweep to retake. This is
// the path a real migrator crash takes (an injected fault killed the
// agent mid-copy).
func (f *Fabric) stall(m *migration, err error) error {
	return fmt.Errorf("fabric: shard %d handoff stalled (monitor will retake): %w", m.shard, err)
}

// fenced runs fn on pod n's control thread on m's behalf — unless m's
// claim has been superseded, in which case nothing runs and held is
// false. Every store mutation a handoff makes goes through here. The
// flip's own claim check is not enough: a driver that is alive but slow
// (descheduled past MigStall) is retaken, its successor copies, flips,
// and clients write to the destination; if the old driver then woke
// into its install it would scrub those fresh keys and put old values
// over new ones before ever reaching the flip check. The check is made
// inside the agent's critical section because a retaker bumps the claim
// before it does anything and needs this same agent for its own
// install: a driver that still holds the claim here cannot interleave
// with its successor, and one that does not must not touch the pod.
func (f *Fabric) fenced(n *podNode, m *migration, fn func(tid int)) (held bool, err error) {
	err = n.agentRun(func(tid int) {
		if held = f.shard[m.shard].holds(m.tok); held {
			fn(tid)
		}
	})
	return held, err
}

// superseded ends a drive whose claim was retaken: the shard, the claim
// and the registry entry are the successor's now, so nothing is
// released, thawed or forgotten.
func (f *Fabric) superseded(m *migration, step string) error {
	f.migAborts.Add(1)
	return fmt.Errorf("fabric: shard %d claim superseded before %s", m.shard, step)
}

// purge deletes every key of m's shard from pod n's store, fenced: the
// unwind's scrub of a partial copy off the destination, and the drain
// of the stale copy off the old owner after the flip.
func (f *Fabric) purge(n *podNode, m *migration) (held bool, err error) {
	return f.fenced(n, m, func(tid int) {
		var doomed [][]byte
		n.store.Range(tid, func(k, _ []byte) bool {
			if f.ShardOfKey(k) == m.shard {
				doomed = append(doomed, append([]byte(nil), k...))
			}
			return true
		})
		for _, k := range doomed {
			n.store.Delete(tid, k)
		}
	})
}

// drive runs the handoff protocol from whatever state m's claim found.
// Every step is idempotent; the flip CAS is the linearization point —
// exactly one claimant's flip lands, and it bumps the routing epoch so
// every stale routing stamp (and stale claimant) is fenced out.
func (f *Fabric) drive(m *migration) error {
	sl := &f.shard[m.shard]
	src, dst := f.pods[m.src], f.pods[m.dst]

	if !dst.endpoint() {
		return f.unwind(m, false, "destination not serving")
	}
	if !m.failover && !src.endpoint() {
		// The source is dying or dark: the failover path owns this
		// shard's fate now; just stop competing for it.
		sl.release(m.tok)
		f.forget(m)
		f.migAborts.Add(1)
		return fmt.Errorf("fabric: shard %d source %d left service", m.shard, m.src)
	}

	// Freeze: writes stop at the router and the gate; reads continue
	// against the now-immutable source copy.
	w := sl.word.Load()
	switch {
	case w == packWord(m.src, shardServing, m.epoch):
		if !sl.word.CompareAndSwap(w, packWord(m.src, shardFrozen, m.epoch)) {
			sl.release(m.tok)
			f.forget(m)
			f.migAborts.Add(1)
			return fmt.Errorf("fabric: shard %d freeze lost", m.shard)
		}
	case w == packWord(m.src, shardFrozen, m.epoch):
		// Re-drive of an interrupted handoff: already frozen.
	case wordOwner(w) == m.dst && wordEpoch(w) == m.epoch+1:
		// The previous holder died between flip and drain.
		return f.drainAndRelease(m)
	default:
		sl.release(m.tok)
		f.forget(m)
		f.migAborts.Add(1)
		return fmt.Errorf("fabric: shard %d superseded (word %x)", m.shard, w)
	}
	m.progress()

	// Wait out in-flight pinned writes; after this the source copy is
	// immutable (pin-then-recheck in the gate closes the race).
	pinDeadline := time.Now().Add(freezeWait)
	for sl.pins.Load() != 0 {
		if time.Now().After(pinDeadline) {
			return f.unwind(m, false, "pins did not drain")
		}
		time.Sleep(50 * time.Microsecond)
	}
	m.progress()
	if f.interrupt(m, StepFreeze) {
		return nil
	}

	// Copy: collect the shard's entries off the source device through
	// the source's control thread. (Cross-pod rule: an op on pod X only
	// ever runs inside X's own Thread.Run — a Crashed carries the TID
	// in its pod's numbering.)
	var keys, vals [][]byte
	if err := src.agentRun(func(tid int) {
		src.store.Range(tid, func(k, v []byte) bool {
			if f.ShardOfKey(k) == m.shard {
				keys = append(keys, append([]byte(nil), k...))
				vals = append(vals, append([]byte(nil), v...))
			}
			return true
		})
	}); err != nil {
		return f.stall(m, err)
	}
	m.progress()
	if f.interrupt(m, StepCopy) {
		return nil
	}

	// Install on the destination: scrub strays a previous unwound
	// attempt may have left, then put the fresh set.
	fresh := make(map[string]bool, len(keys))
	for _, k := range keys {
		fresh[string(k)] = true
	}
	var putErr error
	if f.testHookPreInstall != nil {
		f.testHookPreInstall(m)
	}
	held, err := f.fenced(dst, m, func(tid int) {
		var stale [][]byte
		dst.store.Range(tid, func(k, _ []byte) bool {
			if f.ShardOfKey(k) == m.shard && !fresh[string(k)] {
				stale = append(stale, append([]byte(nil), k...))
			}
			return true
		})
		for _, k := range stale {
			dst.store.Delete(tid, k)
		}
		for i := range keys {
			if e := dst.store.Put(tid, keys[i], vals[i]); e != nil {
				putErr = e
				return
			}
		}
	})
	if err != nil {
		return f.stall(m, err)
	}
	if !held {
		return f.superseded(m, "install")
	}
	if putErr != nil {
		return f.unwind(m, true, fmt.Sprintf("install failed: %v", putErr))
	}

	// Verify: re-read every entry from the destination and byte-compare
	// against the captured copy (the frozen source cannot have moved).
	mismatch := -1
	held, err = f.fenced(dst, m, func(tid int) {
		var buf []byte
		for i := range keys {
			var ok bool
			buf, ok = dst.store.Get(tid, keys[i], buf)
			if !ok || !bytes.Equal(buf, vals[i]) {
				mismatch = i
				return
			}
		}
	})
	if err != nil {
		return f.stall(m, err)
	}
	if !held {
		// Not a mismatch: the successor flipped and the destination is
		// live, so it has moved on from the captured copy by design.
		return f.superseded(m, "verify")
	}
	if mismatch >= 0 {
		f.violation(fmt.Sprintf("shard %d: verify mismatch on key %x during %d->%d handoff",
			m.shard, keys[mismatch], m.src, m.dst))
		return f.unwind(m, true, "verify mismatch")
	}
	m.progress()
	if f.interrupt(m, StepVerify) {
		return nil
	}

	// Flip: the fenced ownership handoff. The claim check keeps a
	// superseded holder from racing the retaker's flip; the epoch CAS
	// is the hard fence — of any racers, exactly one lands.
	if !sl.holds(m.tok) {
		return f.superseded(m, "flip")
	}
	if !sl.word.CompareAndSwap(packWord(m.src, shardFrozen, m.epoch), packWord(m.dst, shardServing, m.epoch+1)) {
		sl.release(m.tok)
		f.forget(m)
		f.migAborts.Add(1)
		return fmt.Errorf("fabric: shard %d flip lost", m.shard)
	}
	f.migFlips.Add(1)
	f.emit(telemetry.EvShardFlip, uint64(m.shard), uint32(m.dst))
	m.progress()
	if f.interrupt(m, StepFlip) {
		return nil
	}

	return f.drainAndRelease(m)
}

// drainAndRelease deletes the shard's (now-stale) entries from the old
// owner and drops the claim — the handoff's last, purely-janitorial
// step. Idempotent; a crash here just means the retaker drains again.
func (f *Fabric) drainAndRelease(m *migration) error {
	held, err := f.purge(f.pods[m.src], m)
	if err != nil {
		return f.stall(m, err)
	}
	if !held {
		// A driver that flipped, stalled and was retaken: the successor
		// has drained, and the shard may since have migrated back here.
		return f.superseded(m, "drain")
	}
	f.emit(telemetry.EvShardDrain, uint64(m.shard), uint32(m.src))
	f.forget(m)
	f.shard[m.shard].release(m.tok)
	return nil
}
