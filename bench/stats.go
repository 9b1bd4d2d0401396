package main

import (
	"math"
	"sort"
)

// atRank reads a sorted sample at a fractional 0-based rank, interpolating
// linearly between neighbours and clamping to the ends.
func atRank(s []float64, rank float64) float64 {
	if rank <= 0 {
		return s[0]
	}
	if rank >= float64(len(s)-1) {
		return s[len(s)-1]
	}
	lo := int(math.Floor(rank))
	return s[lo] + (rank-float64(lo))*(s[lo+1]-s[lo])
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-th percentile (0..100) of v by linear
// interpolation between closest ranks — the definition Python's
// statistics.quantiles(method="inclusive") and numpy use, so a reader can
// re-derive any reported number from the raw samples in the result file.
// It returns NaN for an empty slice.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	return atRank(sorted(v), p/100*float64(len(v)-1))
}

func median(v []float64) float64 { return percentile(v, 50) }

// quartileSpread is the distance between the first and third quartile as
// a share of the median, with the quartiles Python's
// statistics.quantiles(v, n=4) gives (the "exclusive" method: rank
// p*(n+1)). That is the spread the benchmark contract is judged by. It
// returns 0 for fewer than two samples.
func quartileSpread(v []float64) float64 {
	if len(v) < 2 {
		return 0
	}
	s := sorted(v)
	q := func(p float64) float64 { return atRank(s, p*float64(len(s)+1)-1) }
	if q(0.5) == 0 {
		return 0
	}
	return math.Abs((q(0.75) - q(0.25)) / q(0.5))
}
