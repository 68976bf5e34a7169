package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// The traced run records spans from the benchmark's own files, around the
// calls into each layer. A span names its layer call, its start and end
// (ns since the run's epoch), the span that caused it, and the request it
// belongs to; spans of one request share the request id. Only every
// sampleEvery-th call is timed, so the clock reads stay a small share of
// the work they time.
const sampleEvery = 16

type spanKind uint8

const (
	spGen spanKind = iota
	spCoreAllocSmall
	spCoreAllocLarge
	spCoreAllocHuge
	spCoreFreeLocal
	spCoreFreeRemote
	spKVGet
	spKVPut
	spKVDelete
	spRequest
	spSubmit
	spSojourn
	nSpanKinds
)

var spanNames = [nSpanKinds]string{
	"workload.gen",
	"core.alloc_small", "core.alloc_large", "core.alloc_huge",
	"core.free_local", "core.free_remote",
	"kvstore.get", "kvstore.put", "kvstore.delete",
	"request", "server.submit", "server.sojourn",
}

// span is one timed layer call. Parent indexes the same buffer; -1 marks
// a root.
type span struct {
	Kind       spanKind
	Parent     int32
	Req        uint64
	Start, End int64
}

// maxSpans bounds one buffer (32 MiB); spans past it are counted, not kept.
const maxSpans = 1 << 20

// spanBuf is one goroutine's span store: appended without locks, merged
// when the run ends.
type spanBuf struct {
	rung    string
	conn    int
	epoch   time.Time
	spans   []span
	dropped uint64
}

func newSpanBuf(rung string, conn int, epoch time.Time) *spanBuf {
	return &spanBuf{rung: rung, conn: conn, epoch: epoch, spans: make([]span, 0, 1<<16)}
}

// now is the span clock.
func (b *spanBuf) now() int64 { return int64(time.Since(b.epoch)) }

// at converts a wall stamp taken elsewhere (Response.DoneWall).
func (b *spanBuf) at(t time.Time) int64 { return int64(t.Sub(b.epoch)) }

func (b *spanBuf) add(kind spanKind, parent int32, req uint64, start, end int64) int32 {
	if len(b.spans) >= maxSpans {
		b.dropped++
		return -1
	}
	b.spans = append(b.spans, span{Kind: kind, Parent: parent, Req: req, Start: start, End: end})
	return int32(len(b.spans) - 1)
}

// durations collects the durations of every span of one kind.
func durations(bufs []*spanBuf, kind spanKind) []int64 {
	var out []int64
	for _, b := range bufs {
		for i := range b.spans {
			if b.spans[i].Kind == kind {
				out = append(out, b.spans[i].End-b.spans[i].Start)
			}
		}
	}
	return out
}

// spanLine is the NDJSON form of a span.
type spanLine struct {
	Rung    string `json:"rung"`
	Conn    int    `json:"conn"`
	ID      int    `json:"id"`
	Parent  int32  `json:"parent"`
	Req     uint64 `json:"req"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// writeSpans writes every kept span as one JSON object per line.
func writeSpans(path string, bufs []*spanBuf) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, b := range bufs {
		for i, s := range b.spans {
			err := enc.Encode(spanLine{
				Rung: b.rung, Conn: b.conn, ID: i, Parent: s.Parent, Req: s.Req,
				Name: spanNames[s.Kind], StartNs: s.Start, EndNs: s.End,
			})
			if err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
