package main

import (
	"math"
	"slices"
)

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported: a tail estimate that rests on fewer observations is noise.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of the ascending samples
// xs, and false when fewer than minBeyond samples lie above it.
func percentile(xs []int64, q float64) (int64, bool) {
	n := len(xs)
	// The epsilon keeps q*n from landing a hair above an integer (0.99*1000
	// is 990.0000000000001 in floating point) and skipping a rank.
	rank := int(math.Ceil(q*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if n == 0 || n-rank < minBeyond {
		return 0, false
	}
	return xs[rank-1], true
}

// median returns the median of xs (the mean of the middle two for an even
// count), or 0 for no values.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// spread returns the interquartile range of xs as a share of their median,
// with quartiles placed as Python's statistics.quantiles(xs, n=4) places
// them (the exclusive method), so printed spreads can be checked against
// the calibration in README.md. It is 0 for fewer than two values or a
// zero median.
func spread(xs []float64) float64 {
	n := len(xs)
	m := median(xs)
	if n < 2 || m == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	q := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return math.Abs(q(3)-q(1)) / math.Abs(m)
}

// interval is a closed-open time range in nanoseconds.
type interval struct{ start, end int64 }

// selfTime returns the part of parent not covered by any child: its
// duration minus the union of the children clipped to it. Children may be
// nested, overlapping or back to back; each instant is subtracted once.
func selfTime(parent interval, children []interval) int64 {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		c.start = max(c.start, parent.start)
		c.end = min(c.end, parent.end)
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	slices.SortFunc(cs, func(a, b interval) int {
		switch {
		case a.start < b.start:
			return -1
		case a.start > b.start:
			return 1
		}
		return 0
	})
	var covered int64
	var cur interval
	for i, c := range cs {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			cur.end = max(cur.end, c.end)
		default:
			covered += cur.end - cur.start
			cur = c
		}
	}
	if len(cs) > 0 {
		covered += cur.end - cur.start
	}
	return parent.end - parent.start - covered
}
