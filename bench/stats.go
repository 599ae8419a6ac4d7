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

// median of xs; 0 for an empty slice.
func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// quartiles returns Q1, the median and Q3 by the exclusive method — the
// same cut points Python's statistics.quantiles(xs, n=4) gives, which is
// what the driver uses to judge run-to-run spread. Fewer than two values
// return the single value (or 0) three times.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		pos := float64(i) * float64(n+1) / 4 // 1-based rank
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + frac*(s[j]-s[j-1])
	}
	return cut(1), cut(2), cut(3)
}

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// an ascending slice; 0 for an empty one.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	rank := nearestRank(p, len(asc))
	if rank < 1 {
		rank = 1
	}
	if rank > len(asc) {
		rank = len(asc)
	}
	return asc[rank-1]
}

// nearestRank is ceil(p/100 × n), computed so that binary rounding of
// p/100 cannot push an exact product over the next integer.
func nearestRank(p float64, n int) int {
	return int(math.Ceil(p*float64(n)/100 - 1e-9))
}

// tailLadder is the percentile ladder latency reports climb.
var tailLadder = []float64{90, 99, 99.9, 99.99}

// minBeyond is how many samples must lie beyond a percentile for it to
// be reported: fewer and the figure is one outlier's value.
const minBeyond = 10

// highestPercentile picks the highest rung of tailLadder that still has
// at least minBeyond samples beyond it in a sample of n; ok is false
// when even the lowest rung does not.
func highestPercentile(n int) (p float64, ok bool) {
	for _, q := range tailLadder {
		if n-nearestRank(q, n) >= minBeyond {
			p, ok = q, true
		}
	}
	return p, ok
}

// latencySummary is a latency sample reduced the way every report in
// this benchmark states it: median, p90 where the sample supports it,
// and the highest supported percentile with the sample count.
type latencySummary struct {
	N         int
	P50, P90  float64
	TailP     float64 // 0 when no rung of the ladder is supported
	TailValue float64
	Max       float64
}

// scaled converts the summary's values to another unit.
func (s latencySummary) scaled(f float64) latencySummary {
	s.P50, s.P90, s.TailValue, s.Max = s.P50*f, s.P90*f, s.TailValue*f, s.Max*f
	return s
}

func summarize(samples []float64) latencySummary {
	asc := sorted(samples)
	s := latencySummary{N: len(asc)}
	if len(asc) == 0 {
		return s
	}
	s.P50 = percentile(asc, 50)
	s.P90 = percentile(asc, 90)
	s.Max = asc[len(asc)-1]
	if p, ok := highestPercentile(len(asc)); ok {
		s.TailP, s.TailValue = p, percentile(asc, p)
	}
	return s
}
