package main

import (
	"testing"

	"cxlalloc/internal/server"
)

// auditEnv is an env with two connections and one key, for the
// admissibility rule alone.
func auditEnv() *kvEnv {
	e := &kvEnv{preLen: []int{64}}
	for i := range e.conns {
		e.conns[i] = &conn{id: i, track: make([]keyTrack, 1)}
	}
	return e
}

func put(c *conn, sent, done int64, seq uint64) {
	k := &c.track[0]
	k.lastSent = sent
	k.ack(outcome{done: done, present: true, seq: seq})
}

func found(conn uint8, seq uint64) *server.Response {
	v := make([]byte, 64)
	encodeValue(v, 0, conn, seq)
	return &server.Response{Found: true, Value: v}
}

func TestAuditAdmitsOnlyWritesNothingFollows(t *testing.T) {
	e := auditEnv()
	if !e.admissible(0, found(preloadConn, 0)) {
		t.Error("an untouched key must hold its preload value")
	}
	if e.admissible(0, &server.Response{}) {
		t.Error("an untouched key may not be missing")
	}

	// Connection 0: write 1 acked at 20; write 2 sent at 30, acked at 40.
	put(e.conns[0], 10, 20, 1)
	put(e.conns[0], 30, 40, 2)
	if e.admissible(0, found(0, 1)) {
		t.Error("write 1 was acked before write 2 was sent: it cannot be last")
	}
	if !e.admissible(0, found(0, 2)) {
		t.Error("write 2 is the only write nothing follows")
	}
	if e.admissible(0, found(preloadConn, 0)) {
		t.Error("the preload value was overwritten")
	}

	// Connection 1 overlaps write 2: sent at 35, acked at 50. Either may
	// have executed last.
	put(e.conns[1], 35, 50, 1)
	if !e.admissible(0, found(0, 2)) || !e.admissible(0, found(1, 1)) {
		t.Error("two overlapping writes are both admissible")
	}

	// Connection 1 deletes, sent at 60 after everything was acked.
	k := &e.conns[1].track[0]
	k.lastSent = 60
	k.ack(outcome{done: 70})
	if !e.admissible(0, &server.Response{}) {
		t.Error("the delete follows every write: the key must be gone")
	}
	if e.admissible(0, found(0, 2)) || e.admissible(0, found(1, 1)) {
		t.Error("nothing acked before the delete was sent can survive it")
	}
}

func TestAuditToleratesOnePipelinesReordering(t *testing.T) {
	// Two writes of one connection in flight together (sent 10 and 11,
	// acked 21 and 20): two workers may run them in either order.
	e := auditEnv()
	k := &e.conns[0].track[0]
	k.lastSent = 10
	k.lastSent = 11
	k.ack(outcome{done: 21, present: true, seq: 1})
	k.ack(outcome{done: 20, present: true, seq: 2})
	if !e.admissible(0, found(0, 1)) || !e.admissible(0, found(0, 2)) {
		t.Error("writes in flight together are both admissible")
	}
	if e.admissible(0, found(0, 3)) {
		t.Error("a value nobody wrote is not admissible")
	}
}
