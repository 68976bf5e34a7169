package server

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"cxlalloc/internal/chaos"
	"cxlalloc/internal/xrand"
)

// Issuer is one oracle-checked client connection: it draws KV requests,
// runs every write through the lost-ack oracle's writer protocol, and
// settles each response against it. Any number of lanes may share one
// issuer; the oracle's single-writer-per-key precondition holds because
// writes go only to the issuer's own key partition and a key with a
// write in flight is busy until that write settles. The slo harness
// drives a Server with it, fabricchaos a fabric router — anything a
// Client can submit to.
type Issuer struct {
	Client *Client // the retry policy lanes submit through

	orc      *chaos.Oracle
	gates    *chaos.Gates
	deadline time.Duration

	// Lanes share the issuer's rng, so draws serialize.
	prepMu sync.Mutex
	rng    *xrand.Rand
	anyKey func() int // a key of the whole keyspace (reads)
	ownKey func() int // a key of this issuer's partition (writes)

	busyMu sync.Mutex
	busy   map[int]bool
}

// Outcome is how a response settled, for the caller's own tallies.
type Outcome int

const (
	Acked    Outcome = iota // executed: the effect is durable store state
	Crashed                 // died mid-op; the oracle took the server's resolved fate
	Rejected                // typed rejection: the op never executed
)

// NewIssuer builds an issuer whose requests carry deadline. anyKey and
// ownKey are the harness's two key draws; they may (and, to keep one
// seed one stream, should) draw from rng, which only Prepare touches.
// client may be nil until the harness has a server to point it at.
func NewIssuer(client *Client, orc *chaos.Oracle, gates *chaos.Gates, deadline time.Duration, rng *xrand.Rand, anyKey, ownKey func() int) *Issuer {
	return &Issuer{
		Client: client,
		orc:    orc, gates: gates, deadline: deadline,
		rng: rng, anyKey: anyKey, ownKey: ownKey,
		busy: make(map[int]bool),
	}
}

// Prepare draws the next op into req: 50% reads over the whole
// keyspace, else a write on the issuer's own partition, with ~30% of
// writes on present keys issued as deletes. A write that lands only on
// busy keys degrades to a read, keeping the offered rate intact.
func (is *Issuer) Prepare(req *Request) {
	is.prepMu.Lock()
	defer is.prepMu.Unlock()
	req.Reset()
	req.Deadline = is.deadline
	k := -1
	if is.rng.Intn(100) >= 50 {
		for try := 0; try < 4 && k < 0; try++ {
			cand := is.ownKey()
			is.busyMu.Lock()
			if !is.busy[cand] {
				is.busy[cand] = true
				k = cand
			}
			is.busyMu.Unlock()
		}
	}
	if k < 0 {
		req.Op = OpGet
		req.KeyID = is.anyKey()
		req.Key = chaos.KeyBytes(req.Key, req.KeyID)
		return
	}
	req.KeyID = k
	req.Key = chaos.KeyBytes(req.Key, k)
	cur := is.orc.Current(k)
	if cur.Present && is.rng.Intn(100) < 30 {
		req.Op = OpDelete
		req.PrevVer = cur.Ver
		is.orc.Begin(k, chaos.KVState{})
		return
	}
	nv := is.orc.NextVersion(k)
	req.Op = OpPut
	req.Val = chaos.EncodeVal(req.Val, k, nv)
	is.orc.Begin(k, chaos.KVState{Ver: nv, Present: true})
}

// Finalize settles one response: ack on success, resolve from the
// server's ground truth after a crash, resolve not-applied on a typed
// rejection; reads are validated by the value codec alone (exactness is
// the final sweep's job). A settled write releases its key.
func (is *Issuer) Finalize(req *Request, resp *Response) Outcome {
	k := req.KeyID
	out := Rejected
	switch {
	case resp.Err == nil:
		out = Acked
		if req.Op == OpDelete && !resp.Found {
			is.gates.LostAckf("key %d: acked ver %d vanished before delete", k, req.PrevVer)
		}
		if req.Op == OpGet && resp.Found {
			if _, err := chaos.DecodeVal(k, resp.Value); err != nil {
				is.gates.Violationf("key %d: read corrupt: %v", k, err)
			}
		}
	case errors.Is(resp.Err, ErrCrashed):
		out = Crashed
	}
	if req.Op != OpGet {
		if out == Acked {
			is.orc.Ack(k)
		} else {
			is.orc.Resolve(k, out == Crashed && resp.Applied)
		}
		is.busyMu.Lock()
		delete(is.busy, k)
		is.busyMu.Unlock()
	}
	return out
}

// Preload puts keys [0, n) through sub, one acknowledged write each
// with the oracle tracking it, so a run starts with data in place.
func Preload(sub Submitter, orc *chaos.Oracle, n int, seed uint64) error {
	c := NewClient(sub, seed)
	req := NewRequest()
	for k := 0; k < n; k++ {
		ver := orc.NextVersion(k)
		req.Reset()
		req.Deadline = time.Second
		req.Op = OpPut
		req.KeyID = k
		req.Key = chaos.KeyBytes(req.Key, k)
		req.Val = chaos.EncodeVal(req.Val, k, ver)
		orc.Begin(k, chaos.KVState{Ver: ver, Present: true})
		if resp := c.Do(req); resp.Err != nil {
			orc.Resolve(k, false)
			return fmt.Errorf("server: preload key %d: %w", k, resp.Err)
		}
		orc.Ack(k)
	}
	return nil
}
