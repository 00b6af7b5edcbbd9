package main

import (
	"math"
	"sort"

	"repro/internal/detrand"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted: the smallest value with at least p% of the samples at or below
// it. sorted must be ascending and non-empty.
func percentile(sorted []float64, p float64) float64 {
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// median returns the middle value of vals (mean of the two middle values
// for an even count). vals is not modified.
func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of vals by the exclusive
// method — the same numbers Python's statistics.quantiles(vals, n=4) gives,
// which is what the acceptance rule for this benchmark is stated in.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	at := func(pos float64) float64 { // pos is 1-based, in [1, n]
		lo := int(math.Floor(pos))
		if lo < 1 {
			return s[0]
		}
		if lo >= len(s) {
			return s[len(s)-1]
		}
		frac := pos - float64(lo)
		return s[lo-1] + frac*(s[lo]-s[lo-1])
	}
	n := float64(len(s))
	return at((n + 1) / 4), at(3 * (n + 1) / 4)
}

// zipf draws ranks in [0, n) with probability proportional to
// 1/(rank+1)^s, by inverse transform over the cumulative weights.
type zipf struct {
	cum []float64
}

func newZipf(n int, s float64) *zipf {
	z := &zipf{cum: make([]float64, n)}
	total := 0.0
	for i := range z.cum {
		total += 1 / math.Pow(float64(i+1), s)
		z.cum[i] = total
	}
	for i := range z.cum {
		z.cum[i] /= total
	}
	return z
}

func (z *zipf) draw(r *detrand.Rand) int {
	i := sort.SearchFloat64s(z.cum, r.Float64())
	if i >= len(z.cum) {
		i = len(z.cum) - 1
	}
	return i
}
