package main

import (
	"math"
	"sort"
)

// tailLadder is the set of percentiles the benchmark reports a tail at.
var tailLadder = []float64{0.50, 0.90, 0.99, 0.999, 0.9999}

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: a p99 read off 200 samples is the second-largest value,
// not a percentile.
const minBeyond = 10

// pickTail returns the highest percentile of tailLadder that n samples
// support (at least minBeyond samples beyond it), or 0 when even the
// median is not supported.
func pickTail(n int) float64 {
	best := 0.0
	for _, q := range tailLadder {
		if n-1-rank(n, q) >= minBeyond {
			best = q
		}
	}
	return best
}

// rank is the index quantile q is read at in n ascending samples.
func rank(n int, q float64) int {
	i := int(math.Floor(q*float64(n) + 1e-9))
	if i >= n {
		i = n - 1
	}
	return i
}

// quantile reads quantile q off an ascending slice.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)]
}

// tailOf sorts samples in place and returns the median, the requested
// tail (capped at the highest percentile the sample count supports),
// and the percentile actually used for the tail.
func tailOf(samples []int64, want float64) (p50, tail int64, used float64) {
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	used = want
	if top := pickTail(len(samples)); top < used {
		used = top
	}
	return quantile(samples, 0.50), quantile(samples, used), used
}

// spread is the median of a set of repeats with its range beside it.
type spread struct {
	Med, Min, Max float64
}

func spreadOf(xs []float64) spread {
	if len(xs) == 0 {
		return spread{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	med := s[len(s)/2]
	if len(s)%2 == 0 {
		med = (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return spread{Med: med, Min: s[0], Max: s[len(s)-1]}
}

// quartileSpread is the distance between the first and third quartile of
// xs as a share of their median — the driver's measure of run-to-run
// spread, computed as Python's statistics.quantiles(xs, n=4) does. Fewer
// than two values have no spread.
func quartileSpread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 { // the k-th quartile, exclusive method
		pos := float64(k*(len(s)+1)) / 4 // 1-based rank
		i := int(pos)
		switch {
		case i < 1:
			return s[0]
		case i >= len(s):
			return s[len(s)-1]
		}
		return s[i-1] + (pos-float64(i))*(s[i]-s[i-1])
	}
	return (at(3) - at(1)) / math.Abs(spreadOf(s).Med)
}
