package rng

import (
	"math"
	"testing"
)

// chiSquareFloat64 bins n Float64 draws into k equal buckets and returns the
// chi-square statistic against the uniform expectation.
func chiSquareFloat64(s *Source, n, k int) float64 {
	counts := make([]int, k)
	for i := 0; i < n; i++ {
		counts[int(s.Float64()*float64(k))]++
	}
	exp := float64(n) / float64(k)
	chi := 0.0
	for _, c := range counts {
		d := float64(c) - exp
		chi += d * d / exp
	}
	return chi
}

// correlation returns the Pearson correlation of two equal-length samples.
func correlation(a, b []float64) float64 {
	n := float64(len(a))
	var sa, sb, saa, sbb, sab float64
	for i := range a {
		sa += a[i]
		sb += b[i]
		saa += a[i] * a[i]
		sbb += b[i] * b[i]
		sab += a[i] * b[i]
	}
	cov := sab/n - (sa/n)*(sb/n)
	return cov / math.Sqrt((saa/n-(sa/n)*(sa/n))*(sbb/n-(sb/n)*(sb/n)))
}

func draws(s *Source, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = s.Float64()
	}
	return out
}

// TestFloat64ChiSquare checks that Float64 fills 64 buckets uniformly, from
// the start of a stream and from far positions reached by NewAt. With 63
// degrees of freedom the statistic has mean 63 and standard deviation ~11.2;
// the bound sits more than five deviations out, so a sound generator fails it
// with probability below 1e-6 per stream.
func TestFloat64ChiSquare(t *testing.T) {
	const n, k, bound = 200000, 64, 125.0
	streams := map[string]*Source{
		"seed 0":          New(0),
		"seed 1":          New(1),
		"seed 42 at 2^40": NewAt(42, 1<<40),
		"derived object":  New(SeedFor(7, "object:tag-17")),
	}
	for name, s := range streams {
		if chi := chiSquareFloat64(s, n, k); chi > bound {
			t.Errorf("%s: chi-square %.1f over %d buckets exceeds %.0f", name, chi, k, bound)
		}
	}
}

// corrBound is five standard errors of a sample correlation between n
// independent uniforms.
func corrBound(n int) float64 { return 5 / math.Sqrt(float64(n)) }

// TestLagOneCorrelation checks that consecutive draws are uncorrelated.
func TestLagOneCorrelation(t *testing.T) {
	const n = 100000
	for _, seed := range []int64{0, 1, 99} {
		x := draws(New(seed), n+1)
		if r := correlation(x[:n], x[1:]); math.Abs(r) > corrBound(n) {
			t.Errorf("seed %d: lag-1 correlation %.4f exceeds %.4f", seed, r, corrBound(n))
		}
	}
}

// TestCrossStreamCorrelation checks that streams of adjacent seeds and of
// SeedFor-derived seeds (the per-object streams of one filter) are
// uncorrelated, both draw-for-draw and shifted by one draw.
func TestCrossStreamCorrelation(t *testing.T) {
	const n = 100000
	pairs := []struct {
		name string
		a, b int64
	}{
		{"adjacent 0/1", 0, 1},
		{"adjacent 41/42", 41, 42},
		{"derived siblings", SeedFor(42, "object:a"), SeedFor(42, "object:b")},
		{"derived across bases", SeedFor(1, "object:a"), SeedFor(2, "object:a")},
	}
	for _, p := range pairs {
		a, b := draws(New(p.a), n+1), draws(New(p.b), n+1)
		if r := correlation(a[:n], b[:n]); math.Abs(r) > corrBound(n) {
			t.Errorf("%s: correlation %.4f exceeds %.4f", p.name, r, corrBound(n))
		}
		if r := correlation(a[:n], b[1:]); math.Abs(r) > corrBound(n) {
			t.Errorf("%s: shifted correlation %.4f exceeds %.4f", p.name, r, corrBound(n))
		}
	}
}
