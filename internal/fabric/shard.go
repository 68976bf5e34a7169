package fabric

import "sync/atomic"

// Per-shard control state: one packed routing word — owner pod (8
// bits), state (8 bits), routing epoch (48 bits) — plus a pin count
// and a generation-counted claim word.
//
// The routing word is the single source of truth readers race against:
// routing stamps (owner, epoch) at submit time, the gate re-validates
// at execution time, and ownership changes only via one CAS that bumps
// the epoch — (src, frozen, e) → (dst, serving, e+1) — so of any
// number of racing migrators, exactly one flip lands.
//
// The claim word arbitrates who *works* on a handoff, exactly like a
// thread-slot claim: gen<<1|held, acquired by CAS, taken over (gen
// bumped, not released) when the holder stalls — the superseded
// holder's flip is fenced out by the claim check plus the epoch CAS.

const (
	shardServing = 0
	shardFrozen  = 1

	maxPods = 255
)

type shardSlot struct {
	word  atomic.Uint64 // owner | state | epoch
	pins  atomic.Int64  // in-flight writes holding the gate permit
	claim atomic.Uint64 // gen<<1 | held
}

// readPin counts one pod's in-flight reads of one shard.
type readPin struct{ atomic.Int64 }

func (p *readPin) done() { p.Add(-1) }

func packWord(owner, state int, epoch uint64) uint64 {
	return uint64(owner)<<56 | uint64(state)<<48 | (epoch & (1<<48 - 1))
}

func wordOwner(w uint64) int    { return int(w >> 56) }
func wordState(w uint64) int    { return int(w >> 48 & 0xff) }
func wordEpoch(w uint64) uint64 { return w & (1<<48 - 1) }

// claimNext returns the held claim value that supersedes cur (fresh
// acquire when cur is released, takeover when cur is held).
func claimNext(cur uint64) uint64 { return (cur>>1+1)<<1 | 1 }

// tryClaim acquires the shard's claim if it is not held.
func (sl *shardSlot) tryClaim() (uint64, bool) {
	cur := sl.claim.Load()
	if cur&1 != 0 {
		return 0, false
	}
	tok := claimNext(cur)
	if sl.claim.CompareAndSwap(cur, tok) {
		return tok, true
	}
	return 0, false
}

// takeClaim acquires the claim unconditionally (failover, stalled-
// migration takeover), superseding any holder.
func (sl *shardSlot) takeClaim() uint64 {
	for {
		cur := sl.claim.Load()
		tok := claimNext(cur)
		if sl.claim.CompareAndSwap(cur, tok) {
			return tok
		}
	}
}

// release drops the claim if tok still holds it.
func (sl *shardSlot) release(tok uint64) {
	sl.claim.CompareAndSwap(tok, tok&^1)
}

// holds reports whether tok is still the current claim holder.
func (sl *shardSlot) holds(tok uint64) bool { return sl.claim.Load() == tok }
