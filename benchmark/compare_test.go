package main

import "testing"

func TestJudgeVerdictTable(t *testing.T) {
	higher := boundedMetric{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	lower := boundedMetric{Name: "latency_mid_ms", Better: "lower", Bound: 0.10}
	cases := []struct {
		name             string
		m                boundedMetric
		a, b             float64
		spreadA, spreadB float64
		want             verdict
	}{
		{"throughput up", higher, 100, 130, 0.02, 0.02, ok},
		{"throughput down inside bound", higher, 100, 92, 0.02, 0.02, ok},
		{"throughput down past bound", higher, 100, 85, 0.02, 0.02, regressed},
		{"latency up past bound", lower, 50, 56, 0.01, 0.01, regressed},
		{"latency down", lower, 50, 30, 0.01, 0.01, ok},
		{"noisy run hides a small change", higher, 100, 95, 0.15, 0.02, unresolved},
		{"noisy run, change inside bound, still unresolved", higher, 100, 101, 0.02, 0.30, unresolved},
		{"noisy run cannot hide a collapse", higher, 100, 50, 0.15, 0.15, regressed},
		{"zero base", higher, 0, 10, 0, 0, unresolved},
		{"exactly at the bound is not past it", lower, 100, 110, 0, 0, ok},
	}
	for _, c := range cases {
		if _, got := judge(c.m, c.a, c.b, c.spreadA, c.spreadB); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	if worse, _ := judge(higher, 200, 150, 0, 0); worse != 0.25 {
		t.Errorf("worse = %v, want 0.25 of the base 200", worse)
	}
}
