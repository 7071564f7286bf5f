package main

import (
	"math"
	"testing"
)

func seq(n int) []int64 {
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = int64(i + 1)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want int64
		ok   bool
	}{
		{100, 0.50, 50, true},
		{101, 0.50, 51, true},
		{1000, 0.99, 990, true}, // 0.99*1000 rounds up in floating point; the rank must not
		{1009, 0.99, 999, true}, // exactly 10 samples beyond
		{999, 0.99, 0, false},   // 9 beyond
		{10_000, 0.999, 9990, true},
		{9_999, 0.999, 0, false},
		{20, 0.50, 10, true},
		{19, 0.50, 0, false},
		{0, 0.50, 0, false},
	} {
		got, ok := percentile(seq(tc.n), tc.q)
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("percentile(1..%d, %v) = %d, %v; want %d, %v", tc.n, tc.q, got, ok, tc.want, tc.ok)
		}
	}
}

func TestMedianOfRepeats(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{7}, 7},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{1.2, 9e9, 1.1, 1.3, 1.0}, 1.2}, // one outlier repeat does not move it
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 {
		t.Error("median reordered its argument")
	}
}

// The expected values come from Python's statistics.quantiles(xs, n=4),
// which the calibration in README.md uses.
func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, (8.25 - 2.75) / 5.5},
		{[]float64{10, 11, 12, 13, 14}, (13.5 - 10.5) / 12},
		{[]float64{2, 4}, (4.5 - 1.5) / 3},
		{[]float64{5}, 0},
	} {
		if got := spread(tc.xs); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("spread(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

// On a machine running at half its nominal speed the probe takes twice as
// long, so throughput doubles and times halve; RSS and counts stay put,
// and a percentile with too few samples stays absent.
func TestAdjustForSpeed(t *testing.T) {
	v := map[string]float64{"ops_per_s": 1e6, "setup_s": 0.2, "req_p50_us": 8, "req_p99_us": 30, "rss_mean_mib": 19,
		"wall_ops_per_s": 1e6, "probe_ms": 2 * probeNominalMs}
	adjustForSpeed(v)
	want := map[string]float64{"ops_per_s": 2e6, "setup_s": 0.1, "req_p50_us": 4, "req_p99_us": 15, "rss_mean_mib": 19,
		"wall_ops_per_s": 1e6, "probe_ms": 2 * probeNominalMs}
	if len(v) != len(want) {
		t.Errorf("got keys %v, want %v", v, want)
	}
	for k, x := range want {
		if math.Abs(v[k]-x) > 1e-9*x {
			t.Errorf("%s = %v, want %v", k, v[k], x)
		}
	}
}

func TestSelfTime(t *testing.T) {
	p := interval{100, 200}
	for _, tc := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"back to back", []interval{{110, 130}, {130, 150}, {150, 160}}, 50},
		{"nested", []interval{{110, 180}, {120, 130}, {140, 170}}, 30},
		{"overlapping, out of order", []interval{{150, 170}, {110, 160}}, 40},
		{"clipped to the parent", []interval{{50, 120}, {190, 250}}, 70},
		{"outside the parent", []interval{{10, 20}, {300, 400}}, 100},
		{"covering the parent", []interval{{100, 200}, {120, 130}}, 0},
	} {
		if got := selfTime(p, tc.children); got != tc.want {
			t.Errorf("%s: selfTime = %d, want %d", tc.name, got, tc.want)
		}
	}
}
