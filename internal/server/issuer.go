package server

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cxlalloc/internal/chaos"
	"cxlalloc/internal/telemetry"
	"cxlalloc/internal/xrand"
)

// Issuer is one oracle-checked client connection: it draws KV requests,
// runs every write through the lost-ack oracle's writer protocol,
// brackets every read against it, and settles each response. Any number
// of lanes may share one issuer; the oracle's single-writer-per-key
// precondition holds because writes go only to the issuer's own key
// partition and a key with a write in flight is busy until that write
// settles. livechaos and slo drive a Server with it, fabricchaos a
// fabric router — anything a Client can submit to.
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

	readsChecked, readsSkipped atomic.Uint64
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
// busy keys degrades to a read, keeping the offered rate intact. A read
// returns its oracle mark, which Finalize needs back.
func (is *Issuer) Prepare(req *Request) (mark uint64) {
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
		return is.orc.ReadMark(req.KeyID)
	}
	req.KeyID = k
	req.Key = chaos.KeyBytes(req.Key, k)
	cur := is.orc.Current(k)
	if cur.Present && is.rng.Intn(100) < 30 {
		req.Op = OpDelete
		req.PrevVer = cur.Ver
		is.orc.Begin(k, chaos.KVState{})
		return 0
	}
	nv := is.orc.NextVersion(k)
	req.Op = OpPut
	req.Val = chaos.EncodeVal(req.Val, k, nv)
	is.orc.Begin(k, chaos.KVState{Ver: nv, Present: true})
	return 0
}

// Finalize settles one response: ack on success, resolve from the
// server's ground truth after a crash, resolve not-applied on a typed
// rejection. An acknowledged read is checked against the oracle
// bracket its mark opened; a crashed delete against the version it
// displaced. A settled write releases its key.
func (is *Issuer) Finalize(req *Request, mark uint64, resp *Response) Outcome {
	k := req.KeyID
	out := Rejected
	switch {
	case resp.Err == nil:
		out = Acked
		if req.Op == OpDelete && !resp.Found {
			is.gates.LostAckf("key %d: acked ver %d vanished before delete", k, req.PrevVer)
		}
		if req.Op == OpGet {
			is.checkRead(k, mark, resp)
		}
	case errors.Is(resp.Err, ErrCrashed):
		out = Crashed
		if req.Op == OpDelete && resp.Found {
			// The server resolved the delete by reading the key back. The
			// key has one writer, so anything but the displaced version is
			// impossible.
			if ver, err := chaos.DecodeVal(k, resp.Value); err != nil {
				is.gates.Violationf("key %d: delete-resolve read corrupt: %v", k, err)
			} else if ver != req.PrevVer {
				is.gates.Violationf("key %d: delete-resolve saw ver %d, expected %d or absent", k, ver, req.PrevVer)
			}
		}
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

// checkRead validates an acknowledged read: its bytes by the value codec
// (linked values are fully written before they are published, so
// corruption is real, never a racing writer), its version by the
// oracle bracket.
func (is *Issuer) checkRead(k int, mark uint64, resp *Response) {
	var ver uint64
	if resp.Found {
		var err error
		if ver, err = chaos.DecodeVal(k, resp.Value); err != nil {
			is.gates.Violationf("key %d: read corrupt: %v", k, err)
			return
		}
	}
	if is.orc.CheckRead(is.gates, k, mark, ver, resp.Found) {
		is.readsChecked.Add(1)
	} else {
		is.readsSkipped.Add(1)
	}
}

// Reads sums what the issuers' oracle brackets did with the acknowledged
// reads: checked, or skipped for racing more than one transition.
func Reads(issuers []*Issuer) (checked, skipped uint64) {
	for _, is := range issuers {
		checked += is.readsChecked.Load()
		skipped += is.readsSkipped.Load()
	}
	return checked, skipped
}

// Tally is what lanes did: every op by how it settled, the acknowledged
// ones by kind, and their latency. Good counts the acknowledgements that
// came within the request deadline (all of them when there is none).
type Tally struct {
	Ops, Acked, Failed, Crashed uint64
	Puts, Gets, Deletes         uint64
	Good                        uint64
	Latency                     telemetry.Hist
}

func (t *Tally) add(o *Tally) {
	t.Ops += o.Ops
	t.Acked += o.Acked
	t.Failed += o.Failed
	t.Crashed += o.Crashed
	t.Puts += o.Puts
	t.Gets += o.Gets
	t.Deletes += o.Deletes
	t.Good += o.Good
	t.Latency.Merge(&o.Latency)
}

// Lanes drives every issuer with n closed-loop lanes — prepare, submit,
// wait, settle, again — until stop is set. The channel yields what they
// did once every lane has settled its last op.
func Lanes(issuers []*Issuer, n int, stop *atomic.Bool) <-chan *Tally {
	var lanes []func(*Tally)
	for _, is := range issuers {
		for range n {
			lanes = append(lanes, func(t *Tally) {
				req := NewRequest()
				for !stop.Load() {
					mark := is.Prepare(req)
					is.issue(req, mark, time.Now(), t)
				}
			})
		}
	}
	return gather(lanes)
}

// gather runs each lane on its own goroutine into its own Tally; the
// channel yields their sum once the last lane has returned.
func gather(lanes []func(*Tally)) <-chan *Tally {
	done := make(chan *Tally, 1)
	total := new(Tally)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, lane := range lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := new(Tally)
			lane(t)
			mu.Lock()
			total.add(t)
			mu.Unlock()
		}()
	}
	go func() {
		wg.Wait()
		done <- total
	}()
	return done
}

// issue submits a prepared op, settles its response and tallies how it
// settled. An acknowledgement's latency runs from fired.
func (is *Issuer) issue(req *Request, mark uint64, fired time.Time, t *Tally) {
	resp := is.Client.Do(req)
	t.Ops++
	switch is.Finalize(req, mark, resp) {
	case Acked:
		lat := resp.DoneWall.Sub(fired)
		t.Acked++
		t.Latency.Observe(lat)
		if is.deadline == 0 || lat <= is.deadline {
			t.Good++
		}
		switch req.Op {
		case OpPut:
			t.Puts++
		case OpDelete:
			t.Deletes++
		default:
			t.Gets++
		}
	case Crashed:
		t.Crashed++
	default:
		t.Failed++
	}
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
