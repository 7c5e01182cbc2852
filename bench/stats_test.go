package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, tc := range []struct{ p, want float64 }{
		{0, 1}, {50, 5}, {90, 9}, {91, 10}, {99, 10}, {100, 10},
	} {
		if got := percentile(xs, tc.p); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median = %v, want 5", got)
	}
}

// A tail percentile is reported only when at least ten samples lie
// beyond it.
func TestSupportedTail(t *testing.T) {
	for _, tc := range []struct {
		n           int
		limit, want float64
	}{
		{0, 99, 50},
		{39, 99, 50},    // 25% of 39 is fewer than ten
		{40, 99, 75},    // ten samples beyond p75
		{100, 99, 90},   // ten beyond p90, five beyond p95
		{200, 99, 95},   // ten beyond p95
		{999, 99, 95},   // 9.99 beyond p99
		{1000, 99, 99},  // exactly ten beyond p99
		{10000, 99, 99}, // p99.9 is supported but over the limit
		{10000, 100, 99.9},
	} {
		if got := supportedTail(tc.n, tc.limit); got != tc.want {
			t.Errorf("supportedTail(%d, %v) = %v, want %v", tc.n, tc.limit, got, tc.want)
		}
	}
}

func TestWorseByDirection(t *testing.T) {
	higher := metric{name: "records_per_s", higher: true}
	lower := metric{name: "post_p50_ms"}
	if got := higher.worseBy(100, 90); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("throughput 100 -> 90 worse by %v, want 0.10", got)
	}
	if got := lower.worseBy(100, 90); math.Abs(got+0.10) > 1e-12 {
		t.Errorf("latency 100 -> 90 worse by %v, want -0.10", got)
	}
}
