package stats

import (
	"testing"
	"time"
)

func TestLatencyPercentiles(t *testing.T) {
	var samples []time.Duration
	for i := 1; i <= 1000; i++ {
		samples = append(samples, time.Duration(i)*time.Microsecond)
	}
	p := LatencyPercentiles(samples)
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
	p := LatencyPercentiles(samples)
	if p.P50 != 3 {
		t.Fatalf("p50 = %v, want 3", p.P50)
	}
}

func TestLatencyPercentilesEmpty(t *testing.T) {
	if p := LatencyPercentiles(nil); p.Count != 0 || p.P999 != 0 {
		t.Fatalf("empty percentiles = %+v", p)
	}
}
