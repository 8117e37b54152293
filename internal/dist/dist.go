// Package dist provides the probability distributions the simulation draws
// from: normal CDF/quantile helpers, log-normal variates (interest audience
// sizes, panel profile sizes, CPM noise), truncated sampling, and the
// Poisson/Binomial counting draws behind audience realization and ad
// delivery.
//
// Everything is parametrized by an explicit *rng.Rand, so draws are
// deterministic given the stream — the same reproducibility contract as the
// rest of the repository. Counting draws switch to asymptotic approximations
// (Poisson for rare events, normal for large counts) above fixed thresholds;
// the switch depends only on the parameters, never on the stream, so a fixed
// seed always takes the same branch.
package dist

import (
	"errors"
	"math"

	"nanotarget/internal/rng"
)

// NormCDF returns Φ(x), the standard normal CDF.
func NormCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// NormQuantile returns Φ⁻¹(p) for p in (0,1).
func NormQuantile(p float64) float64 {
	return math.Sqrt2 * math.Erfinv(2*p-1)
}

// LogNormal is the distribution of exp(Normal(Mu, Sigma)).
type LogNormal struct {
	Mu, Sigma float64
}

// NewLogNormalFromMedian builds a log-normal from its median (= exp(Mu)) and
// log-space spread.
func NewLogNormalFromMedian(median, sigma float64) (LogNormal, error) {
	if median <= 0 {
		return LogNormal{}, errors.New("dist: log-normal median must be positive")
	}
	if sigma <= 0 {
		return LogNormal{}, errors.New("dist: log-normal sigma must be positive")
	}
	return LogNormal{Mu: math.Log(median), Sigma: sigma}, nil
}

// FitLogNormalQuantiles solves for the log-normal whose p1- and p2-quantiles
// are x1 and x2 (e.g. the paper's audience-size quartiles).
func FitLogNormalQuantiles(x1, p1, x2, p2 float64) (LogNormal, error) {
	if x1 <= 0 || x2 <= 0 {
		return LogNormal{}, errors.New("dist: quantile values must be positive")
	}
	if p1 <= 0 || p1 >= 1 || p2 <= 0 || p2 >= 1 || p1 == p2 {
		return LogNormal{}, errors.New("dist: quantile probabilities must be distinct and in (0,1)")
	}
	if (x2-x1)*(p2-p1) <= 0 {
		return LogNormal{}, errors.New("dist: quantile values must be ordered like their probabilities")
	}
	z1, z2 := NormQuantile(p1), NormQuantile(p2)
	sigma := (math.Log(x2) - math.Log(x1)) / (z2 - z1)
	mu := math.Log(x1) - sigma*z1
	return LogNormal{Mu: mu, Sigma: sigma}, nil
}

// Sample draws one variate.
func (d LogNormal) Sample(r *rng.Rand) float64 {
	return math.Exp(d.Mu + d.Sigma*r.NormFloat64())
}

// Median returns exp(Mu).
func (d LogNormal) Median() float64 { return math.Exp(d.Mu) }

// Quantile returns the p-quantile.
func (d LogNormal) Quantile(p float64) float64 {
	return math.Exp(d.Mu + d.Sigma*NormQuantile(p))
}

// CDF implements Inversible.
func (d LogNormal) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return NormCDF((math.Log(x) - d.Mu) / d.Sigma)
}

// Inversible is a distribution with a CDF and its inverse, which
// PrepareInverse truncates for exact one-draw sampling.
type Inversible interface {
	CDF(x float64) float64
	Quantile(p float64) float64
}

// TruncatedInverse restricts an Inversible base to [lo, hi] by mapping ONE
// uniform draw through the truncated inverse CDF — exact, and it consumes a
// fixed number of stream values, which keeps downstream derivations
// stable. The base CDF's values at the bounds are computed once. Sample(r)
// is At(r.Float64()), except that an empty probability interval draws
// nothing, so a caller may draw its uniforms in stream order and map them
// with At on any goroutine.
type TruncatedInverse struct {
	inv      Inversible
	lo, hi   float64
	pLo, pHi float64
}

// PrepareInverse truncates inv to [lo, hi], computing its CDF at both
// bounds once.
func PrepareInverse(inv Inversible, lo, hi float64) TruncatedInverse {
	return TruncatedInverse{inv: inv, lo: lo, hi: hi, pLo: inv.CDF(lo), pHi: inv.CDF(hi)}
}

// Empty reports whether the truncated probability interval is empty. Every
// variate is then lo, and Sample consumes no stream value.
func (s TruncatedInverse) Empty() bool { return s.pHi <= s.pLo }

// Sample draws one variate. An empty probability interval returns lo
// without consuming a stream value.
func (s TruncatedInverse) Sample(r *rng.Rand) float64 {
	if s.Empty() {
		return s.lo
	}
	return s.At(r.Float64())
}

// At returns the variate that uniform u in [0, 1) maps to: the base
// quantile at u's position in the truncated probability interval, clamped
// to [lo, hi], or lo when the interval is empty.
func (s TruncatedInverse) At(u float64) float64 {
	if s.Empty() {
		return s.lo
	}
	v := s.inv.Quantile(s.pLo + u*(s.pHi-s.pLo))
	// Guard the interval against floating-point round-trip error.
	if v < s.lo {
		v = s.lo
	}
	if v > s.hi {
		v = s.hi
	}
	return v
}

// poissonNormalCutoff is where Poisson switches from exact inversion to the
// normal approximation; at λ=64 the approximation's relative error is far
// below the simulation's calibration error.
const poissonNormalCutoff = 64

// Poisson draws a Poisson(lambda) count. Non-positive lambda yields 0.
func Poisson(r *rng.Rand, lambda float64) int64 {
	if lambda <= 0 {
		return 0
	}
	if lambda < poissonNormalCutoff {
		// Inversion by sequential search on the CDF (stable in log space is
		// unnecessary below the cutoff: exp(-64) ≈ 1.6e-28 > smallest normal).
		l := math.Exp(-lambda)
		var k int64
		p := 1.0
		for {
			p *= r.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	v := math.Round(lambda + math.Sqrt(lambda)*r.NormFloat64())
	if v < 0 {
		return 0
	}
	return int64(v)
}

// Binomial thresholds: below smallN, count Bernoulli trials exactly; above,
// use Poisson(np) for rare events or the normal approximation when the count
// is large in both tails.
const (
	binomialSmallN     = 256
	binomialNormalMass = 32 // min(np, n(1-p)) above which normal approx holds
)

// Binomial draws a Binomial(n, p) count. The simulation calls this with n up
// to the platform population (billions) and p down to 1e-12 (nano
// audiences), so the regimes matter: exact for small n, Poisson for rare
// events, normal otherwise.
func Binomial(r *rng.Rand, n int64, p float64) int64 {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	if n <= binomialSmallN {
		var k int64
		for i := int64(0); i < n; i++ {
			if r.Float64() < p {
				k++
			}
		}
		return k
	}
	mean := float64(n) * p
	if mean < binomialNormalMass && p < 0.01 {
		k := Poisson(r, mean)
		if k > n {
			k = n
		}
		return k
	}
	if float64(n)*(1-p) < binomialNormalMass {
		// Mirror the rare-failure tail.
		return n - Binomial(r, n, 1-p)
	}
	sd := math.Sqrt(mean * (1 - p))
	v := math.Round(mean + sd*r.NormFloat64())
	if v < 0 {
		return 0
	}
	if v > float64(n) {
		return n
	}
	return int64(v)
}
