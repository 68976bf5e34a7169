package main

import "testing"

func TestPickTailNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0}, {20, 0}, {21, 0.50}, {100, 0.50}, {101, 0.90}, {1000, 0.90},
		{1001, 0.99}, {10000, 0.99}, {10001, 0.999}, {100001, 0.9999},
	}
	for _, c := range cases {
		if got := pickTail(c.n); got != c.want {
			t.Errorf("pickTail(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestTailOfCapsThePercentileAndReportsIt(t *testing.T) {
	samples := make([]int64, 500)
	for i := range samples {
		samples[i] = int64(len(samples) - i) // descending: tailOf must sort
	}
	p50, tail, used := tailOf(samples, 0.99)
	if used != 0.90 {
		t.Fatalf("500 samples support p90, got p%g", 100*used)
	}
	if p50 != 251 || tail != 451 {
		t.Fatalf("p50 %d tail %d, want 251 and 451", p50, tail)
	}
	big := make([]int64, 2000)
	for i := range big {
		big[i] = int64(i)
	}
	if _, tail, used := tailOf(big, 0.99); used != 0.99 || tail != 1980 {
		t.Fatalf("2000 samples: tail %d at p%g, want 1980 at p99", tail, 100*used)
	}
}

func TestSpreadOf(t *testing.T) {
	s := spreadOf([]float64{5, 1, 9, 3})
	if s.Med != 4 || s.Min != 1 || s.Max != 9 {
		t.Fatalf("got %+v", s)
	}
	if s := spreadOf([]float64{7, 2, 4}); s.Med != 4 {
		t.Fatalf("odd median: got %+v", s)
	}
}

func TestMedianRateIgnoresASlowWindow(t *testing.T) {
	// Two workers, five windows of 1 s; the third window runs at a tenth.
	var a, b []mark
	ops := uint64(0)
	for k, per := range []uint64{0, 100, 100, 10, 100, 100} {
		ops += per
		m := mark{at: secs(k), ops: ops}
		a, b = append(a, m), append(b, m)
	}
	rate, ok := medianRate(a, b)
	if !ok || rate != 200 {
		t.Fatalf("rate %g ok %v, want 200", rate, ok)
	}
	if _, ok := medianRate(a[:3], b[:3]); ok {
		t.Fatal("two windows must not yield a median")
	}
}
