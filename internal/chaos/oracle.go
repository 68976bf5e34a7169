package chaos

// The lost-ack oracle: a client-side per-key versioned shadow map that
// records every acknowledged Put/Delete, so an acked write the pod
// silently loses to a crash is a run failure, not a shrug.
//
// The keyspace is partitioned one-writer-per-key (issuer i owns keys
// congruent to i mod issuers), so each key's shadow history is a simple
// linear version sequence. A reader cannot know exactly where in that
// sequence a concurrent writer is, so mid-run reads are validated
// against a bracket: ReadMark before the read is issued, CheckRead once
// it has returned. The observed (version, found) must be admissible
// under the state at either end, and reads that raced more than one
// transition are skipped (counted, not checked). The authoritative check
// is the end-of-run sweep at quiescence: every key's store content must
// exactly equal its settled shadow state.
//
// An in-flight op whose worker crashes is a fork in the history — the
// op either committed or it did not — and is settled by ground truth,
// not by guessing: the repaired worker probes the store (kvstore.Linked
// for puts, a version probe for deletes) and the response tells the
// oracle which branch happened. Versions are minted monotonically per
// key and never reused, so a stale value can never masquerade as a
// newer one.
//
// The oracle's one client is internal/server's Issuer, which every
// online harness (livechaos, slo/slochaos, fabricchaos) drives: it runs
// the writer-side protocol — mint a version, Begin, then Ack on success
// or Resolve from ground truth after a crash — and brackets every read.

import (
	"encoding/binary"
	"fmt"
	"sync"

	"cxlalloc/internal/xrand"
)

// KVState is one key's settled shadow state. Ver 0 means never written.
type KVState struct {
	Ver     uint64
	Present bool
}

// matches reports whether an observed read (found, ver) is exactly this
// state.
func (st KVState) matches(ver uint64, found bool) bool {
	if !found {
		return !st.Present
	}
	return st.Present && st.Ver == ver
}

// shadow is one key's state as readers see it: the settled state and,
// while a write is in flight, its target.
type shadow struct {
	cur, pend KVState
	pendOn    bool
}

// admits reports whether an observed read is explainable by this state:
// the settled state, or the in-flight target (the reader may serialize
// before or after a concurrent op's linearization point).
func (s shadow) admits(ver uint64, found bool) bool {
	return s.cur.matches(ver, found) || s.pendOn && s.pend.matches(ver, found)
}

// oracleEntry is one key's shadow record. gen counts transitions
// (begin/ack/resolve), letting readers detect how much history they
// raced with; before is the state the last transition left, so a read
// that raced one transition can be checked against both ends of it.
type oracleEntry struct {
	mu          sync.Mutex
	gen         uint64
	now, before shadow
	nextVer     uint64
}

// Oracle is the shadow map over the whole keyspace.
type Oracle struct {
	entries []oracleEntry
}

// NewOracle returns an oracle over keys [0, keys).
func NewOracle(keys int) *Oracle {
	return &Oracle{entries: make([]oracleEntry, keys)}
}

// NextVersion mints key k's next version (called only by k's writer).
func (o *Oracle) NextVersion(k int) uint64 {
	e := &o.entries[k]
	e.mu.Lock()
	e.nextVer++
	v := e.nextVer
	e.mu.Unlock()
	return v
}

// transition moves k's shadow state on by one generation.
func (o *Oracle) transition(k int, move func(s *shadow)) {
	e := &o.entries[k]
	e.mu.Lock()
	e.before = e.now
	move(&e.now)
	e.gen++
	e.mu.Unlock()
}

// Begin records an in-flight op that will move k to target if it
// commits. The writer must have no other op in flight on k.
func (o *Oracle) Begin(k int, target KVState) {
	o.transition(k, func(s *shadow) { s.pend, s.pendOn = target, true })
}

// Ack commits the in-flight op: the store acknowledged it.
func (o *Oracle) Ack(k int) {
	o.transition(k, func(s *shadow) { s.cur, s.pendOn = s.pend, false })
}

// Resolve settles a crashed op from ground truth: applied reports
// whether the op's effect is visible in the recovered store.
func (o *Oracle) Resolve(k int, applied bool) {
	o.transition(k, func(s *shadow) {
		if applied {
			s.cur = s.pend
		}
		s.pendOn = false
	})
}

// read returns k's generation and its state now and before the last
// transition.
func (o *Oracle) read(k int) (gen uint64, now, before shadow) {
	e := &o.entries[k]
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.gen, e.now, e.before
}

// Current returns k's settled state; only meaningful to k's writer (no op
// can be in flight).
func (o *Oracle) Current(k int) KVState {
	_, now, _ := o.read(k)
	return now.cur
}

// ReadMark opens a read's bracket on k: taken before the read is issued,
// it is what CheckRead measures the read's window against.
func (o *Oracle) ReadMark(k int) uint64 {
	gen, _, _ := o.read(k)
	return gen
}

// CheckRead closes the bracket ReadMark opened, once the read has
// returned: the observed (ver, found) must be admissible under k's state
// at the mark or now. With no transition in between the two are one
// state; with one, the state at the mark is the one that transition
// left. A read that raced two or more transitions cannot be placed — the
// states in between are gone — so it is skipped (checked is false),
// never flagged. A read no bracketing state admits is a lost ack.
func (o *Oracle) CheckRead(g *Gates, k int, mark, ver uint64, found bool) (checked bool) {
	gen, now, before := o.read(k)
	switch {
	case gen-mark > 1:
		return false
	case !now.admits(ver, found) && (gen == mark || !before.admits(ver, found)):
		g.LostAckf("key %d: read saw {ver %d found %v}, not admissible under gens %d-%d", k, ver, found, mark, gen)
	}
	return true
}

// Final returns k's authoritative end-of-run state. ok is false if an
// op is still unresolved — the run failed to settle, itself a failure.
func (o *Oracle) Final(k int) (KVState, bool) {
	_, now, _ := o.read(k)
	return now.cur, !now.pendOn
}

// --- self-validating value codec ------------------------------------

// Values carry their own identity: version, an integrity checksum over
// (key, version), and deterministic filler whose length is a pure
// function of (key, version). A reader can therefore validate any
// observed value bytes against the shadow map without trusting the
// store, and a torn, stale, or cross-key value is detected as
// corruption rather than admitted as a plausible read.

const valHeader = 16 // 8 bytes version + 8 bytes checksum

func valCheck(key int, ver uint64) uint64 {
	return xrand.Mix(uint64(key)<<32 ^ ver ^ 0x5ca1ab1e)
}

// valSize derives the value length for (key, ver): mostly small-class
// sizes, a tail of large-class and huge-class sizes so fault injection
// crosses every allocator path.
func valSize(key int, ver uint64) int {
	m := xrand.Mix(uint64(key)*0x9e3779b97f4a7c15 + ver)
	switch r := m % 1000; {
	case r < 900:
		return valHeader + int(m>>10%224) // small classes
	case r < 995:
		return 2048 + int(m>>10%4096) // large classes
	default:
		return 66000 + int(m>>10%4096) // huge region
	}
}

// EncodeVal renders the self-validating value for (key, ver) into dst,
// reusing its capacity.
func EncodeVal(dst []byte, key int, ver uint64) []byte {
	n := valSize(key, ver)
	if cap(dst) < n {
		dst = make([]byte, n)
	}
	dst = dst[:n]
	binary.LittleEndian.PutUint64(dst[0:8], ver)
	binary.LittleEndian.PutUint64(dst[8:16], valCheck(key, ver))
	fill := valCheck(key, ver^0xf111)
	for i := valHeader; i < n; i++ {
		dst[i] = byte(fill >> (uint(i%8) * 8))
	}
	return dst
}

// DecodeVal validates buf as a value of key and returns its version; a
// torn, stale, or cross-key value is an error, never a plausible read.
func DecodeVal(key int, buf []byte) (uint64, error) {
	if len(buf) < valHeader {
		return 0, fmt.Errorf("value too short (%d bytes)", len(buf))
	}
	ver := binary.LittleEndian.Uint64(buf[0:8])
	if got, want := binary.LittleEndian.Uint64(buf[8:16]), valCheck(key, ver); got != want {
		return 0, fmt.Errorf("checksum mismatch for key %d ver %d", key, ver)
	}
	if len(buf) != valSize(key, ver) {
		return 0, fmt.Errorf("length %d != %d for key %d ver %d", len(buf), valSize(key, ver), key, ver)
	}
	fill := valCheck(key, ver^0xf111)
	for i := valHeader; i < len(buf); i++ {
		if buf[i] != byte(fill>>(uint(i%8)*8)) {
			return 0, fmt.Errorf("filler corrupt at byte %d for key %d ver %d", i, key, ver)
		}
	}
	return ver, nil
}

// KeyBytes renders key k's fixed 16-byte key.
func KeyBytes(dst []byte, k int) []byte {
	if cap(dst) < 16 {
		dst = make([]byte, 16)
	}
	dst = dst[:16]
	binary.LittleEndian.PutUint64(dst[0:8], uint64(k))
	binary.LittleEndian.PutUint64(dst[8:16], xrand.Mix(uint64(k)))
	return dst
}
