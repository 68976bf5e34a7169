package atomicx

// Detectable CAS (paper §3.4.2, following Attiya et al. [10]): a CAS
// whose success can be determined after a crash. cxlalloc uses it for
// every multi-writer word — heap length, global free-list heads,
// remote-free counters, and the huge heap's reservation array — so that
// a thread recovering mid-operation can tell whether its update became
// visible and redo the operation idempotently.
//
// Mechanism: every CAS target embeds the writer's thread ID and a
// per-thread version alongside the 32-bit payload (the paper notes its
// CAS targets are at most 32 bits, leaving room for a 16-bit thread ID
// and 16-bit version in an 8-byte word — which is why the remote-free
// metadata grows from 2 B to 8 B per slab, §3.4.2). The help protocol
// uses one HWcc word per thread:
//
//  1. Begin: before attempting a CAS for a new operation with version v,
//     thread t publishes help[t] = v<<1 ("v pending, not yet observed").
//  2. Help: before a thread u overwrites a word whose value is tagged
//     (t, v), it makes sure help[t] cannot be left at v<<1:
//     - t == u: nothing to do. A thread has one operation in flight, so
//     an older tag of its own protects nothing it will ever ask about,
//     and re-tagging a word with the version it already carries leaves
//     the tag Succeeded looks for in place (if the overwriting CAS then
//     loses to a third thread, that thread helped (t, v) itself).
//     - t != u: u loads help[t] and, only if it reads v<<1, CASes it to
//     v<<1|1 ("observed"). That CAS may still fail — another helper
//     won, or t moved on in between — and both make it unnecessary.
//  3. Succeeded: on recovery, t's CAS with version v took effect iff the
//     target still carries the (t, v) tag, or help[t] == v<<1|1.
//
// Why the load may stand in for the CAS. The help step used to be the
// CAS alone, issued unconditionally, and it failed about as often as it
// succeeded: whenever t had begun a later operation, had already been
// helped, or was the caller. A CAS that fails changes nothing and
// linearizes at the instant it reads a value other than v<<1; a load
// that reads a value other than v<<1 is that same instant with the same
// (absent) effect. So every execution of this protocol is an execution
// of the unconditional one in which each skipped CAS is placed at its
// load, and Succeeded observes exactly the states it did before. What
// changed is the price: on a pod without HWcc a failing CAS is a full
// spwr/sprd pair (~2.3 µs, §5.4), the load one uncached read.
//
// With disabled set (the cxlalloc-nonrecoverable ablation of §5.2)
// neither Begin nor the help step touches the help array, exactly as
// before: CAS is the tagged hardware CAS and nothing else.
//
// Version wrap-around. Comparisons are exact matches on 16 bits, which
// is sound for a tag that is overwritten before its writer issues
// 65 536 further operations: a stale tag (t, v_old) cannot disturb
// help[t] while t is in any operation v != v_old, because the help CAS
// expects v_old<<1 exactly. It is not sound beyond that. A tag (t, v)
// left in a word for exactly 65 536·k of t's operations matches t's
// current pending v again, and whoever overwrites it then marks
// observed an operation that may never have CASed; a recovering t would
// skip a redo it owed. The self-skip above removes the instance a
// thread used to inflict on itself (overwriting its own wrapped tag,
// then losing the CAS and crashing). The cross-thread instance — u
// overwrites t's wrapped tag, or u stalls between the help load and the
// help CAS for 65 536 of t's operations — remains, as it does in the
// unconditional protocol: a known bound on how long a tag may sit, not
// a property the exact match provides.

// Word layout: [ tid+1 : 16 | version : 16 | payload : 32 ].
const (
	payloadBits = 32
	payloadMask = (uint64(1) << payloadBits) - 1
)

// Pack builds a tagged word. tid < 0 builds an untagged word (tag zero),
// used for initialization stores; a zeroed device is therefore made of
// valid untagged words, preserving the zero-initialization property.
func Pack(payload uint32, tid int, ver uint16) uint64 {
	w := uint64(payload)
	if tid >= 0 {
		w |= uint64(ver) << 32
		w |= uint64(tid+1) << 48
	}
	return w
}

// Payload extracts the 32-bit payload of a tagged word.
func Payload(w uint64) uint32 { return uint32(w & payloadMask) }

// Tag extracts the writer tag of a word. tagged is false for words
// written by untagged stores (or never written).
func Tag(w uint64) (tid int, ver uint16, tagged bool) {
	t := uint16(w >> 48)
	if t == 0 {
		return 0, 0, false
	}
	return int(t) - 1, uint16(w >> 32), true
}

const observedBit = 1

func helpPending(ver uint16) uint64  { return uint64(ver) << 1 }
func helpObserved(ver uint16) uint64 { return uint64(ver)<<1 | observedBit }

// DCAS layers detectability on an HW. The help array occupies one HWcc
// word per thread starting at word helpBase.
type DCAS struct {
	hw       *HW
	helpBase int
	// disabled turns DCAS into plain CAS (the paper's
	// cxlalloc-nonrecoverable ablation): words are still tagged so the
	// layout is identical, but no help-array maintenance is performed.
	disabled bool

	// testHookPreHelpCAS, when set, runs in helpBeforeOverwrite between
	// the help load that saw the writer pending and the help CAS. Nil in
	// production; tests park a helper in that window.
	testHookPreHelpCAS func()
}

// NewDCAS returns a detectable-CAS layer with per-thread help words at
// helpBase. If disabled, help maintenance is skipped (ablation §5.2).
func NewDCAS(hw *HW, helpBase int, disabled bool) *DCAS {
	return &DCAS{hw: hw, helpBase: helpBase, disabled: disabled}
}

// HW returns the underlying primitive layer.
func (d *DCAS) HW() *HW { return d.hw }

// Disabled reports whether detectability is turned off.
func (d *DCAS) Disabled() bool { return d.disabled }

// Begin publishes that thread tid is starting an operation with version
// ver. It must be called after the operation is recorded in the thread's
// recovery state and before the first CAS attempt. Retries of the same
// logical operation reuse the version and need no new Begin.
func (d *DCAS) Begin(tid int, ver uint16) {
	if d.disabled {
		return
	}
	d.hw.Store(tid, d.helpBase+tid, helpPending(ver))
}

// CAS attempts to replace the full word oldWord (as previously loaded by
// the caller) with a new word tagging (tid, ver) and carrying
// newPayload.
func (d *DCAS) CAS(tid int, ver uint16, w int, oldWord uint64, newPayload uint32) bool {
	if !d.disabled {
		d.helpBeforeOverwrite(tid, oldWord)
	}
	_, ok := d.hw.CAS(tid, w, oldWord, Pack(newPayload, tid, ver))
	return ok
}

// Load reads the full tagged word w.
func (d *DCAS) Load(tid, w int) uint64 { return d.hw.Load(tid, w) }

// Store writes an untagged word; only legal where no concurrent CAS is
// possible (single-owner reinitialization).
func (d *DCAS) Store(tid, w int, payload uint32) {
	d.hw.Store(tid, w, Pack(payload, -1, 0))
}

// helpBeforeOverwrite marks the previous writer's pending version as
// observed before destroying the evidence of its success (step 2 of the
// header comment). The caller's own tags are skipped, and the help CAS
// is issued only when a load finds the writer still pending on exactly
// that version; one attempt suffices, since failure means another helper
// won or the writer has begun a later operation.
func (d *DCAS) helpBeforeOverwrite(tid int, oldWord uint64) {
	t, v, tagged := Tag(oldWord)
	if !tagged || t == tid {
		return
	}
	hw := d.helpBase + t
	if d.hw.Load(tid, hw) != helpPending(v) {
		return
	}
	if d.testHookPreHelpCAS != nil {
		d.testHookPreHelpCAS()
	}
	d.hw.CAS(tid, hw, helpPending(v), helpObserved(v))
}

// Succeeded reports, after a crash, whether thread tid's in-flight CAS
// with version ver on word w took effect: either the word still carries
// the (tid, ver) tag, or an overwriter recorded having observed it.
func (d *DCAS) Succeeded(tid int, ver uint16, w int) bool {
	cur := d.hw.Load(tid, w)
	if t, v, tagged := Tag(cur); tagged && t == tid && v == ver {
		return true
	}
	return d.hw.Load(tid, d.helpBase+tid) == helpObserved(ver)
}
