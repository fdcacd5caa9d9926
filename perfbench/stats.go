package main

import (
	"math"
	"sort"
	"time"
)

// dist is a set of latency samples in milliseconds.
type dist []float64

func (d *dist) add(x time.Duration) { *d = append(*d, ms(x)) }

func ms(x time.Duration) float64 { return float64(x) / float64(time.Millisecond) }

// percentile returns the nearest-rank q-quantile (0 < q ≤ 1): the
// smallest sample with at least a q share of the samples at or below
// it. Nearest rank always returns a measured value, never an
// interpolation between two modes of a bimodal distribution.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// beyond counts the samples strictly above the nearest-rank
// q-quantile: a percentile is only reported when at least ten samples
// lie past it.
func beyond(n int, q float64) int {
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return n - rank
}

// median is the middle value (mean of the two middle values for an
// even count), as Python's statistics.median gives it.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}
