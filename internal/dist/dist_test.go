package dist

import (
	"math"
	"testing"

	"nanotarget/internal/rng"
)

func TestNormCDFQuantileRoundTrip(t *testing.T) {
	for _, p := range []float64{0.01, 0.25, 0.5, 0.75, 0.99} {
		z := NormQuantile(p)
		if got := NormCDF(z); math.Abs(got-p) > 1e-12 {
			t.Errorf("NormCDF(NormQuantile(%v)) = %v", p, got)
		}
	}
	if NormCDF(0) != 0.5 {
		t.Errorf("NormCDF(0) = %v, want 0.5", NormCDF(0))
	}
}

func TestFitLogNormalQuantiles(t *testing.T) {
	ln, err := FitLogNormalQuantiles(100, 0.25, 10000, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	if got := ln.Quantile(0.25); math.Abs(got-100)/100 > 1e-9 {
		t.Errorf("q25 = %v, want 100", got)
	}
	if got := ln.Quantile(0.75); math.Abs(got-10000)/10000 > 1e-9 {
		t.Errorf("q75 = %v, want 10000", got)
	}
	if got := ln.Median(); got < 100 || got > 10000 {
		t.Errorf("median %v outside quartiles", got)
	}
	if _, err := FitLogNormalQuantiles(10000, 0.25, 100, 0.75); err == nil {
		t.Error("inverted quantiles accepted")
	}
}

func TestNewLogNormalFromMedian(t *testing.T) {
	ln, err := NewLogNormalFromMedian(426, 1.15)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ln.Median()-426) > 1e-9 {
		t.Errorf("median = %v, want 426", ln.Median())
	}
	if _, err := NewLogNormalFromMedian(0, 1); err == nil {
		t.Error("zero median accepted")
	}
}

func TestTruncatedSampleStaysInBounds(t *testing.T) {
	ln, _ := NewLogNormalFromMedian(100, 2)
	const lo, hi = 2, 5000
	tr := PrepareInverse(ln, lo, hi)
	r := rng.New(1)
	for i := 0; i < 10000; i++ {
		v := tr.Sample(r)
		if v < lo || v > hi {
			t.Fatalf("sample %v outside [%v, %v]", v, lo, hi)
		}
	}
}

// perDrawTruncated is truncated inverse-CDF sampling as it was written
// before the bound CDFs were hoisted: both evaluated on every draw. It is
// the reference PrepareInverse's sampler must match bit for bit.
func perDrawTruncated(inv Inversible, lo, hi float64, r *rng.Rand) float64 {
	pLo, pHi := inv.CDF(lo), inv.CDF(hi)
	if pHi <= pLo {
		return lo
	}
	v := inv.Quantile(pLo + r.Float64()*(pHi-pLo))
	if v < lo {
		v = lo
	}
	if v > hi {
		v = hi
	}
	return v
}

// skewedUniform is Uniform(0, 10) whose quantile is off by Shift, so
// inverse-CDF draws land outside the truncation bounds and exercise the
// round-trip clamps.
type skewedUniform struct{ Shift float64 }

func (u skewedUniform) CDF(x float64) float64      { return math.Min(math.Max(x/10, 0), 1) }
func (u skewedUniform) Quantile(p float64) float64 { return 10*p + u.Shift }

// TestPreparedTruncatedDrawsLikeSample pins that the prepared sampler
// returns exactly what per-draw CDF evaluation returned, and leaves the
// stream in the same state, for every branch: the catalog's log-normal, an
// empty probability interval (no stream value consumed), and the low and
// high clamps. So does the split the catalog uses: a uniform drawn per
// variate (none when Empty) and mapped with At.
func TestPreparedTruncatedDrawsLikeSample(t *testing.T) {
	catalog, err := FitLogNormalQuantiles(113_193, 0.25, 1_719_925, 0.75)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		inv    Inversible
		lo, hi float64
		// clamp is the bound some draws must be clamped to (0: none).
		clamp float64
	}{
		{"catalog log-normal", catalog, 2, 0.20 * 1_500_000_000, 0},
		{"empty interval pHi < pLo", catalog, 5000, 2, 0},
		{"empty interval pHi == pLo", catalog, -5, 0, 0},
		{"low clamp", skewedUniform{Shift: -1}, 2, 8, 2},
		{"high clamp", skewedUniform{Shift: 1}, 2, 8, 8},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			inv := PrepareInverse(c.inv, c.lo, c.hi)
			a, ref, split := rng.New(7), rng.New(7), rng.New(7)
			clamped := 0
			for i := 0; i < 2000; i++ {
				got, old := inv.Sample(a), perDrawTruncated(c.inv, c.lo, c.hi, ref)
				if math.Float64bits(got) != math.Float64bits(old) {
					t.Fatalf("draw %d: Sample %v, per-draw CDFs %v", i, got, old)
				}
				u := 0.0
				if !inv.Empty() {
					u = split.Float64()
				}
				if at := inv.At(u); math.Float64bits(at) != math.Float64bits(got) {
					t.Fatalf("draw %d: At %v, Sample %v", i, at, got)
				}
				if c.clamp != 0 && got == c.clamp {
					clamped++
				}
			}
			if x, z, w := a.Uint64(), ref.Uint64(), split.Uint64(); x != z || x != w {
				t.Fatal("samplers consumed different numbers of stream values")
			}
			if c.clamp != 0 && clamped == 0 {
				t.Fatalf("no draw was clamped to %v", c.clamp)
			}
		})
	}
}

func TestPoissonMoments(t *testing.T) {
	// Both regimes: exact inversion (λ=4) and normal approximation (λ=400).
	for _, lambda := range []float64{4, 400} {
		r := rng.New(2)
		const n = 20000
		var sum, sumSq float64
		for i := 0; i < n; i++ {
			v := float64(Poisson(r, lambda))
			sum += v
			sumSq += v * v
		}
		mean := sum / n
		variance := sumSq/n - mean*mean
		if math.Abs(mean-lambda) > 4*math.Sqrt(lambda/n) {
			t.Errorf("λ=%v: mean %v", lambda, mean)
		}
		if math.Abs(variance-lambda)/lambda > 0.1 {
			t.Errorf("λ=%v: variance %v", lambda, variance)
		}
	}
	if Poisson(rng.New(1), 0) != 0 || Poisson(rng.New(1), -1) != 0 {
		t.Error("non-positive lambda must yield 0")
	}
}

func TestBinomialRegimes(t *testing.T) {
	cases := []struct {
		n int64
		p float64
	}{
		{100, 0.3},            // exact
		{1_500_000_000, 1e-9}, // Poisson regime (mean 1.5)
		{1_000_000, 0.25},     // normal regime
		{1_000_000, 0.999999}, // mirrored rare-failure tail
	}
	for _, c := range cases {
		r := rng.New(3)
		const iters = 5000
		var sum float64
		for i := 0; i < iters; i++ {
			v := Binomial(r, c.n, c.p)
			if v < 0 || v > c.n {
				t.Fatalf("n=%d p=%v: draw %d out of range", c.n, c.p, v)
			}
			sum += float64(v)
		}
		mean := sum / iters
		want := float64(c.n) * c.p
		sd := math.Sqrt(want * (1 - c.p))
		tol := 5 * sd / math.Sqrt(iters)
		if tol < 0.05*want {
			tol = 0.05 * want
		}
		if math.Abs(mean-want) > tol {
			t.Errorf("n=%d p=%v: mean %v, want %v", c.n, c.p, mean, want)
		}
	}
	if Binomial(rng.New(1), 10, 0) != 0 || Binomial(rng.New(1), 10, 1) != 10 {
		t.Error("degenerate p must short-circuit")
	}
	if Binomial(rng.New(1), 0, 0.5) != 0 {
		t.Error("n=0 must yield 0")
	}
}

func TestDrawsDeterministic(t *testing.T) {
	a, b := rng.New(9), rng.New(9)
	for i := 0; i < 100; i++ {
		if Poisson(a, 12.5) != Poisson(b, 12.5) {
			t.Fatal("Poisson diverged")
		}
		if Binomial(a, 1_000_000, 1e-5) != Binomial(b, 1_000_000, 1e-5) {
			t.Fatal("Binomial diverged")
		}
	}
}
