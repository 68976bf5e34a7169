package telemetry

import (
	"fmt"
	"math/bits"
	"time"
)

// Hist is a log-linear (HDR-style) latency histogram: values below
// 2^histSubBits land in exact unit buckets; above that, each power-of-
// two octave is split into 2^histSubBits linear sub-buckets, bounding
// the relative quantile error by one sub-bucket width (1/32 ≈ 3.1%).
//
// A Hist is mergeable — two histograms recorded by different threads
// (or processes, once serialized) combine bucket-wise with Merge — which
// is what lets per-thread recording replace the raw []time.Duration
// sample slices the bench harness used to collect and sort.
//
// A Hist is not safe for concurrent use; record per thread and Merge
// after the recording threads quiesce.
type Hist struct {
	counts [histBuckets]uint64
	n      uint64
	sum    uint64
	min    uint64
	max    uint64
}

const (
	histSubBits = 5
	histSub     = 1 << histSubBits // sub-buckets per octave
	// Octaves run from exponent histSubBits..63 plus the exact range,
	// mirroring bucketOf: (63-histSubBits+1)<<histSubBits + histSub.
	histBuckets = (64-histSubBits)<<histSubBits + histSub
)

// bucketOf maps a value to its bucket index.
func bucketOf(v uint64) int {
	if v < histSub {
		return int(v)
	}
	e := uint(bits.Len64(v) - 1)
	sub := (v >> (e - histSubBits)) & (histSub - 1)
	return int(uint(e-histSubBits+1)<<histSubBits + uint(sub))
}

// bucketMid returns the midpoint of bucket b's value range, halving the
// worst-case quantile error versus reporting the lower bound.
func bucketMid(b int) uint64 {
	if b < histSub {
		return uint64(b)
	}
	g := uint(b) >> histSubBits // octave group, 1-based
	sub := uint64(b) & (histSub - 1)
	e := g + histSubBits - 1
	lo := uint64(1)<<e | sub<<(e-histSubBits)
	width := uint64(1) << (e - histSubBits)
	return lo + width/2
}

// Record adds one value.
func (h *Hist) Record(v uint64) {
	h.counts[bucketOf(v)]++
	h.n++
	h.sum += v
	if h.n == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Observe adds one duration (clamped at zero).
func (h *Hist) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.Record(uint64(d))
}

// Merge adds o's recordings into h.
func (h *Hist) Merge(o *Hist) {
	if o == nil || o.n == 0 {
		return
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.n += o.n
	h.sum += o.sum
}

// Count returns the number of recorded values.
func (h *Hist) Count() uint64 { return h.n }

// Sum returns the total of recorded values.
func (h *Hist) Sum() uint64 { return h.sum }

// Quantile returns the value at quantile q in [0,1], using the same
// nearest-rank convention as an exact sort of the samples
// (rank = int(q*(n-1))), so a Hist-reported percentile agrees with the
// sorted-sample one to within half a sub-bucket's width.
func (h *Hist) Quantile(q float64) uint64 {
	if h.n == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(h.n-1))
	var cum uint64
	for b, c := range h.counts {
		cum += c
		if cum > rank {
			m := bucketMid(b)
			// Clamp to observed extremes: exact min/max beat bucket
			// midpoints at the tails.
			if m < h.min {
				m = h.min
			}
			if m > h.max {
				m = h.max
			}
			return m
		}
	}
	return h.max
}

// Percentiles holds the latency percentiles Figure 11 reports.
type Percentiles struct {
	P50   time.Duration
	P90   time.Duration
	P99   time.Duration
	P999  time.Duration
	Count int
}

func (p Percentiles) String() string {
	return fmt.Sprintf("p50=%v p90=%v p99=%v p99.9=%v (n=%d)",
		p.P50, p.P90, p.P99, p.P999, p.Count)
}

// Percentiles summarizes the histogram as Percentiles (durations in
// nanoseconds).
func (h *Hist) Percentiles() Percentiles {
	return Percentiles{
		P50:   time.Duration(h.Quantile(0.50)),
		P90:   time.Duration(h.Quantile(0.90)),
		P99:   time.Duration(h.Quantile(0.99)),
		P999:  time.Duration(h.Quantile(0.999)),
		Count: int(h.n),
	}
}
