package telemetry

import (
	"math"
	"sort"
	"testing"
	"time"

	"cxlalloc/internal/xrand"
)

// relErr is the histogram's accuracy contract: one sub-bucket's
// relative width (values ≥ histSub land in buckets spanning lo..lo +
// lo/histSub, so the midpoint is within 1/(2·histSub) of any member,
// but min/max clamping and rank rounding at tiny counts justify the
// full bucket width as the asserted bound).
const relErr = 1.0 / histSub

func pctClose(t *testing.T, name string, got, want time.Duration) {
	t.Helper()
	g, w := float64(got), float64(want)
	tol := w*relErr + 1 // +1 ns absolute slack for the exact-unit range
	if math.Abs(g-w) > tol {
		t.Fatalf("%s: hist %v vs exact %v exceeds one bucket's relative error (tol %v ns)", name, got, want, tol)
	}
}

// TestHistQuantileMatchesSortedSamples is the property test demanded by
// the issue: across several workload-shaped distributions, every
// reported percentile must agree with the exact sorted-sample
// percentile to within one bucket's relative error.
func TestHistQuantileMatchesSortedSamples(t *testing.T) {
	r := xrand.New(2026)
	gens := map[string]func() uint64{
		"uniform":     func() uint64 { return r.Uint64() % 1_000_000 },
		"exponential": func() uint64 { return uint64(-math.Log(1-r.Float64()) * 50_000) },
		"bimodal": func() uint64 {
			if r.Intn(10) == 0 {
				return 800_000 + r.Uint64()%200_000 // slow tail
			}
			return 200 + r.Uint64()%300 // fast path
		},
		"tiny": func() uint64 { return r.Uint64() % histSub }, // exact-bucket range
	}
	for name, gen := range gens {
		for _, n := range []int{1, 3, 100, 10_000} {
			var h Hist
			samples := make([]time.Duration, 0, n)
			for i := 0; i < n; i++ {
				v := gen()
				h.Record(v)
				samples = append(samples, time.Duration(v))
			}
			exact := latencyPercentiles(samples)
			got := h.Percentiles()
			if got.Count != exact.Count {
				t.Fatalf("%s/n=%d: count %d vs %d", name, n, got.Count, exact.Count)
			}
			pctClose(t, name+"/p50", got.P50, exact.P50)
			pctClose(t, name+"/p90", got.P90, exact.P90)
			pctClose(t, name+"/p99", got.P99, exact.P99)
			pctClose(t, name+"/p999", got.P999, exact.P999)
		}
	}
}

// TestHistMerge checks that merging per-thread histograms is
// equivalent to recording every sample into one histogram, and that
// min/max/sum/count survive the merge.
func TestHistMerge(t *testing.T) {
	r := xrand.New(7)
	var whole Hist
	parts := make([]Hist, 4)
	for i := 0; i < 20_000; i++ {
		v := r.Uint64() % 5_000_000
		whole.Record(v)
		parts[i%len(parts)].Record(v)
	}
	var merged Hist
	for i := range parts {
		merged.Merge(&parts[i])
	}
	if merged.Count() != whole.Count() || merged.Sum() != whole.Sum() ||
		merged.min != whole.min || merged.max != whole.max {
		t.Fatalf("merge lost aggregates: %+v vs %+v", merged, whole)
	}
	if merged.counts != whole.counts {
		t.Fatalf("merged bucket counts differ from whole-stream counts")
	}
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 0.999, 1} {
		if merged.Quantile(q) != whole.Quantile(q) {
			t.Fatalf("q=%v: merged %d vs whole %d", q, merged.Quantile(q), whole.Quantile(q))
		}
	}
	// Merging an empty histogram is a no-op, including min.
	before := merged
	var empty Hist
	merged.Merge(&empty)
	if merged != before {
		t.Fatalf("merging empty hist changed state")
	}
}

// TestHistBucketBounds pins the bucket layout: bucketOf must be
// monotone, bucketMid must land inside its own bucket, and the extremes
// must not overflow the bucket array.
func TestHistBucketBounds(t *testing.T) {
	if got := bucketOf(0); got != 0 {
		t.Fatalf("bucketOf(0) = %d", got)
	}
	if got := bucketOf(math.MaxUint64); got != histBuckets-1 {
		t.Fatalf("bucketOf(MaxUint64) = %d, want %d", got, histBuckets-1)
	}
	prev := -1
	for e := uint(0); e < 64; e++ {
		lo, hi := uint64(1)<<e, uint64(1)<<e+(uint64(1)<<e-1) // [2^e, 2^(e+1)-1]
		for _, v := range []uint64{lo, lo + (hi-lo)/2, hi} {
			b := bucketOf(v)
			if b < prev {
				t.Fatalf("bucketOf not monotone at %d: %d < %d", v, b, prev)
			}
			prev = b
			if mb := bucketOf(bucketMid(b)); mb != b {
				t.Fatalf("bucketMid(%d)=%d lands in bucket %d", b, bucketMid(b), mb)
			}
		}
	}
}

// latencyPercentiles is the exact reference Hist's percentiles are held
// to: p50/p90/p99/p99.9 by nearest rank over the sorted samples. The
// input slice is sorted in place.
func latencyPercentiles(samples []time.Duration) Percentiles {
	if len(samples) == 0 {
		return Percentiles{}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	at := func(q float64) time.Duration {
		return samples[int(q*float64(len(samples)-1))]
	}
	return Percentiles{
		P50:   at(0.50),
		P90:   at(0.90),
		P99:   at(0.99),
		P999:  at(0.999),
		Count: len(samples),
	}
}

func TestLatencyPercentiles(t *testing.T) {
	var samples []time.Duration
	for i := 1; i <= 1000; i++ {
		samples = append(samples, time.Duration(i)*time.Microsecond)
	}
	p := latencyPercentiles(samples)
	if p.P50 < 490*time.Microsecond || p.P50 > 510*time.Microsecond {
		t.Fatalf("p50 = %v", p.P50)
	}
	if p.P99 < 985*time.Microsecond || p.P99 > 995*time.Microsecond {
		t.Fatalf("p99 = %v", p.P99)
	}
	if p.P999 < p.P99 || p.P99 < p.P90 || p.P90 < p.P50 {
		t.Fatalf("percentiles not monotone: %+v", p)
	}
	if p.Count != 1000 {
		t.Fatalf("count = %d", p.Count)
	}
}

func TestLatencyPercentilesUnsortedInput(t *testing.T) {
	samples := []time.Duration{5, 1, 4, 2, 3}
	p := latencyPercentiles(samples)
	if p.P50 != 3 {
		t.Fatalf("p50 = %v, want 3", p.P50)
	}
}

func TestLatencyPercentilesEmpty(t *testing.T) {
	if p := latencyPercentiles(nil); p.Count != 0 || p.P999 != 0 {
		t.Fatalf("empty percentiles = %+v", p)
	}
}
