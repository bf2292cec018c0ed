package main

import (
	"math"
	"testing"
	"time"
)

func TestSplitMix64IsDeterministicAndForksDiffer(t *testing.T) {
	a, b := newSplitMix64(7), newSplitMix64(7)
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatal("same seed, different streams")
		}
	}
	fa, fb := a.fork(), a.fork()
	if fa.next() == fb.next() {
		t.Error("two forks share a stream")
	}
	sum, sq := 0.0, 0.0
	const n = 20000
	for i := 0; i < n; i++ {
		x := a.norm()
		sum, sq = sum+x, sq+x*x
	}
	if mean, variance := sum/n, sq/n; math.Abs(mean) > 0.05 || math.Abs(variance-1) > 0.05 {
		t.Errorf("norm: mean %.3f variance %.3f, want 0 and 1", mean, variance)
	}
}

func TestPercentileInterpolates(t *testing.T) {
	v := []float64{40, 10, 30, 20} // unsorted on purpose
	for _, c := range []struct{ p, want float64 }{{0, 10}, {50, 25}, {90, 37}, {100, 40}, {25, 17.5}} {
		if got := percentile(v, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if v[0] != 40 {
		t.Error("percentile sorted its argument in place")
	}
	if percentile(nil, 50) != 0 {
		t.Error("empty input must read 0")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	// Middle half of 8 values: the 3rd to the 6th; outliers do not count.
	if got := midmean([]float64{1000, 54, 54, 54, 79, 54, 79, 0}); got != (54+54+54+79)/4.0 {
		t.Errorf("midmean = %v, want 60.25", got)
	}
	if midmean([]float64{7}) != 7 || midmean(nil) != 0 {
		t.Error("midmean of one value is the value, of none 0")
	}
}

// The expected values are statistics.quantiles(values, n=4) in Python.
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{10, 30, 20, 50, 40})
	if q1 != 15 || q2 != 30 || q3 != 45 {
		t.Errorf("quartiles of five = %v %v %v, want 15 30 45", q1, q2, q3)
	}
	q1, _, q3 = quartiles([]float64{1, 2})
	if q1 != 0.75 || q3 != 2.25 {
		t.Errorf("quartiles of two = %v .. %v, want 0.75 .. 2.25", q1, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread(1..10) = %v, want (8.25−2.75)/5.5 = 1", got)
	}
	if spread([]float64{5}) != 0 {
		t.Error("one value has no spread")
	}
	if got := medianNoise([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 1, 2, 3, 4, 5, 6}); math.Abs(got-spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 1, 2, 3, 4, 5, 6})/4) > 1e-15 || medianNoise(nil) != 0 {
		t.Errorf("medianNoise of 16 values = %v, want their spread over 4", got)
	}
}

func TestSegmentRatesUseBusyTimePerClient(t *testing.T) {
	ms := time.Millisecond
	// Two clients, each back to back: 10 ops per 100 ms request, then
	// the second half twice as slow. Gaps between requests (untimed
	// checks) must not count.
	var reqs []request
	for i := 0; i < 4; i++ {
		for c := 0; c < 2; c++ {
			start := time.Duration(i) * 150 * ms // 50 ms gap after each request
			reqs = append(reqs, request{client: c, start: start, end: start + 100*ms, ops: 10})
		}
	}
	for i := 0; i < 4; i++ {
		for c := 0; c < 2; c++ {
			start := 600*ms + time.Duration(i)*200*ms
			reqs = append(reqs, request{client: c, start: start, end: start + 200*ms, ops: 10})
		}
	}
	rates := segmentRates(reqs, 2, 2)
	if len(rates) != 2 || math.Abs(rates[0]-200) > 1e-9 || math.Abs(rates[1]-100) > 1e-9 {
		t.Errorf("segment rates = %v, want [200 100] ops/s", rates)
	}
	if got := median(segmentRates(reqs, 2, 4)); math.Abs(got-150) > 1e-9 {
		t.Errorf("median of four segment rates = %v, want 150", got)
	}
	// Fewer requests than segments: one segment per request.
	if got := segmentRates(reqs[:3], 2, 5); len(got) != 3 {
		t.Errorf("3 requests in 5 segments gave %d rates, want 3", len(got))
	}
	if got := segmentLatencyMid(reqs, 2); got[0] != 100 || got[1] != 200 {
		t.Errorf("segment latency medians = %v, want [100 200] ms", got)
	}
}
