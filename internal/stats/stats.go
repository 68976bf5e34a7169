// Package stats provides the latency percentiles the benchmark harness
// reports (Figure 11 reports p50/p90/p99/p99.9).
package stats

import (
	"fmt"
	"sort"
	"time"
)

// Percentiles holds the latency percentiles reported in Figure 11.
type Percentiles struct {
	P50   time.Duration
	P90   time.Duration
	P99   time.Duration
	P999  time.Duration
	Count int
}

// LatencyPercentiles computes p50/p90/p99/p99.9 over samples. The input
// slice is sorted in place.
func LatencyPercentiles(samples []time.Duration) Percentiles {
	if len(samples) == 0 {
		return Percentiles{}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	at := func(q float64) time.Duration {
		i := int(q * float64(len(samples)-1))
		return samples[i]
	}
	return Percentiles{
		P50:   at(0.50),
		P90:   at(0.90),
		P99:   at(0.99),
		P999:  at(0.999),
		Count: len(samples),
	}
}

func (p Percentiles) String() string {
	return fmt.Sprintf("p50=%v p90=%v p99=%v p99.9=%v (n=%d)",
		p.P50, p.P90, p.P99, p.P999, p.Count)
}
