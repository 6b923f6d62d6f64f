package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a percentile before the
// benchmark reports it: with fewer, the "tail" is one or two outliers.
const minBeyond = 10

// quantile returns the nearest-rank q-quantile (0 < q <= 1) of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(q*float64(len(sorted)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(sorted) {
		k = len(sorted) - 1
	}
	return sorted[k]
}

// beyond counts the samples of an n-sample set that lie strictly above the
// nearest-rank q-quantile.
func beyond(n int, q float64) int {
	return n - int(math.Ceil(q*float64(n)))
}

// tailLadder is the set of percentiles the benchmark may report as a tail.
var tailLadder = []float64{0.5, 0.9, 0.99, 0.999, 0.9999}

// supportedTail returns the highest percentile of tailLadder with at least
// minBeyond samples beyond it in an n-sample set, or 0 when even the median
// is unsupported.
func supportedTail(n int) float64 {
	best := 0.0
	for _, q := range tailLadder {
		if beyond(n, q) >= minBeyond {
			best = q
		}
	}
	return best
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median returns the median of xs (mean of the middle pair for even n).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// interval is a half-open time range [lo, hi) on one recorder's clock.
type interval struct{ lo, hi time.Duration }

func (iv interval) len() time.Duration { return iv.hi - iv.lo }

// union merges overlapping intervals into a sorted disjoint set.
func union(ivs []interval) []interval {
	s := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.hi > iv.lo {
			s = append(s, iv)
		}
	}
	sort.Slice(s, func(i, j int) bool { return s[i].lo < s[j].lo })
	out := s[:0]
	for _, iv := range s {
		if n := len(out); n > 0 && iv.lo <= out[n-1].hi {
			if iv.hi > out[n-1].hi {
				out[n-1].hi = iv.hi
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// total sums the lengths of disjoint intervals.
func total(ivs []interval) time.Duration {
	var t time.Duration
	for _, iv := range ivs {
		t += iv.len()
	}
	return t
}

// intersect returns the intersection of two sorted disjoint interval sets.
func intersect(a, b []interval) []interval {
	var out []interval
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lo, hi := max(a[i].lo, b[j].lo), min(a[i].hi, b[j].hi)
		if hi > lo {
			out = append(out, interval{lo, hi})
		}
		if a[i].hi < b[j].hi {
			i++
		} else {
			j++
		}
	}
	return out
}

// subtract returns the parts of sorted disjoint set a not covered by b.
func subtract(a, b []interval) []interval {
	var out []interval
	j := 0
	for _, iv := range a {
		lo := iv.lo
		for j < len(b) && b[j].hi <= lo {
			j++
		}
		for k := j; k < len(b) && b[k].lo < iv.hi; k++ {
			if b[k].lo > lo {
				out = append(out, interval{lo, b[k].lo})
			}
			if b[k].hi > lo {
				lo = b[k].hi
			}
		}
		if lo < iv.hi {
			out = append(out, interval{lo, iv.hi})
		}
	}
	return out
}

// selfTime is a span's duration minus the part of it its children cover:
// the time the span's own layer spent outside every layer it called.
func selfTime(span interval, children []interval) time.Duration {
	return total(subtract([]interval{span}, union(children)))
}

// overlapFrac is the share of the time in bg that coincides with fg.
func overlapFrac(bg, fg []interval) float64 {
	b := union(bg)
	if total(b) == 0 {
		return 0
	}
	return float64(total(intersect(b, union(fg)))) / float64(total(b))
}
