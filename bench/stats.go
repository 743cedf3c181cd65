package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile (0 <= q <= 1) of v by linear
// interpolation between order statistics; 0 for an empty sample.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(v []float64) float64 { return quantile(v, 0.5) }

// fast summarises the wall times of a run's operations by their fast
// decile. On the shared 2-core reference host the median of identical
// operations swung 11-12% between back-to-back runs of the same code (the
// host takes cycles away in bursts of seconds and in phases of minutes),
// the fast decile 5% and the minimum 4%: the fastest operations are the
// ones the host left alone, which is the code's own cost. The decile is
// kept over the minimum so one lucky sample cannot set the number.
func fast(walls []float64) float64 { return quantile(walls, 0.10) }

// spread is the interquartile distance as a share of the median, the
// run-to-run noise measure every bound is compared with.
func spread(v []float64) float64 {
	m := median(v)
	if m == 0 {
		return 0
	}
	return (quantile(v, 0.75) - quantile(v, 0.25)) / math.Abs(m)
}

// tailPercentile picks the tail a sample of n timings can support: the
// highest whole percentile that still has at least ten samples beyond it.
// It returns the percentile and that count; (0, 0) when n is too small for
// even the median to have ten samples beyond it.
func tailPercentile(n int) (pct, beyond int) {
	for p := 99; p >= 50; p-- {
		if b := n - int(math.Ceil(float64(n)*float64(p)/100)); b >= 10 {
			return p, b
		}
	}
	return 0, 0
}

// percentile returns the p-th percentile (nearest-rank) of v.
func percentile(v []float64, p int) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	rank := int(math.Ceil(float64(len(s)) * float64(p) / 100))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}
