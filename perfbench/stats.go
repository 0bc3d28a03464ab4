package main

import (
	"math"
	"sort"
	"time"
)

// samples is a set of raw latency observations in milliseconds. Percentiles
// are computed from the raw values (nearest rank), never from buckets.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d)/1e6) }

// sorted returns an ascending copy.
func (s samples) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// quantile returns the nearest-rank q-quantile (0 < q <= 1); NaN when empty.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	v := s.sorted()
	i := int(math.Ceil(q*float64(len(v)))) - 1
	if i < 0 {
		i = 0
	}
	return v[i]
}

// beyond is the number of samples strictly above the nearest-rank
// q-quantile position: a percentile is only reported when at least ten
// samples lie beyond it.
func (s samples) beyond(q float64) int {
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return len(s) - 1 - i
}

// tailQuantile returns the highest of p99, p95 and p90 that has at least
// minBeyond samples beyond it, with its label ("p99", ...); ok is false
// when not even p90 qualifies.
func (s samples) tailQuantile(minBeyond int) (label string, q float64, ok bool) {
	for _, c := range []struct {
		label string
		q     float64
	}{{"p99", 0.99}, {"p95", 0.95}, {"p90", 0.90}} {
		if s.beyond(c.q) >= minBeyond {
			return c.label, c.q, true
		}
	}
	return "", 0, false
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

func (s samples) sum() float64 {
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum
}

// median of plain values (used for the repeated set-up timings).
func median(vs []float64) float64 {
	return samples(vs).quantile(0.5)
}
