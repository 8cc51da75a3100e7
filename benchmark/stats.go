package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantile returns the q-quantile (0..1) of an ascending sample by the
// nearest-rank rule, so a reported value is always one that was
// measured. An empty sample has no quantile and reads as 0.
func quantile(asc []float64, q float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(asc)))) - 1
	return asc[min(max(i, 0), len(asc)-1)]
}

// median is the middle value, or the mean of the two middle values.
func median(xs []float64) float64 {
	asc := sorted(xs)
	n := len(asc)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return asc[n/2]
	}
	return (asc[n/2-1] + asc[n/2]) / 2
}

// percentileLadder lists the percentiles the benchmark reports, lowest
// first.
var percentileLadder = []int{50, 75, 90, 95, 99}

// pickPercentile returns the highest ladder percentile not above want
// that still has at least ten of the n samples beyond it; a tail
// percentile of fewer samples is one or two outliers, not a
// distribution. Below twenty samples only the median is supported.
func pickPercentile(n, want int) int {
	best := percentileLadder[0]
	for _, p := range percentileLadder {
		if p <= want && n*(100-p) >= 10*100 {
			best = p
		}
	}
	return best
}

// percentile reports the want-th percentile of xs, lowered to what the
// sample size supports (pickPercentile). A result of +Inf means the
// percentile fell on a failed request and is clamped so it still
// encodes as JSON.
func percentile(xs []float64, want int) float64 {
	v := quantile(sorted(xs), float64(pickPercentile(len(xs), want))/100)
	if math.IsInf(v, 1) {
		return 1e12
	}
	return v
}

// spread is the interquartile range as a share of the median - the
// run-to-run steadiness figure bounds are judged against. It uses the
// same exclusive-method quartiles as Python's statistics.quantiles(n=4).
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	asc := sorted(xs)
	q := func(k int) float64 {
		pos := float64(k) * float64(len(asc)+1) / 4
		i := int(pos)
		switch {
		case i < 1:
			return asc[0]
		case i >= len(asc):
			return asc[len(asc)-1]
		}
		return asc[i-1] + (pos-float64(i))*(asc[i]-asc[i-1])
	}
	m := q(2)
	if m == 0 {
		return 0
	}
	return (q(3) - q(1)) / math.Abs(m)
}
