package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"nanotarget/internal/interest"
	"nanotarget/internal/parallel"
	"nanotarget/internal/population"
	"nanotarget/internal/rng"
	"nanotarget/internal/stats"
)

// MaxCombinationInterests is Facebook's limit on the number of interests in
// one audience definition (§2.1); the study therefore evaluates N ∈ [1,25].
const MaxCombinationInterests = 25

// Samples holds the collected audience sizes: Samples.AS[u][n-1] is the
// Potential Reach of user u's first n selected interests. Users with fewer
// than MaxN interests contribute shorter rows (the paper's N=25 vector has
// 2,286 of 2,390 samples); missing cells are NaN.
type Samples struct {
	// AS is indexed [user][n-1]; NaN marks missing.
	AS [][]float64
	// MaxN is the largest combination size collected.
	MaxN int
	// FloorValue is the platform floor the source applied.
	FloorValue float64
	// Strategy is the selector name that produced the samples.
	Strategy string

	// Columnar-kernel state: the lazily built presorted index and the
	// pooled per-resample scratch (see columns.go). Zero values are ready;
	// AS and MaxN must not change once the index has been built.
	colOnce      sync.Once
	cols         *columnIndex
	resamplePool sync.Pool
	countsPool   stats.CountsPool
}

// CollectConfig controls sample collection.
type CollectConfig struct {
	// MaxN is the largest combination size (default and cap: 25).
	MaxN int
	// Seed drives the per-user selection randomness.
	Seed *rng.Rand
	// Parallelism is the number of users processed concurrently: 0 means one
	// worker per core, 1 the exact legacy sequential path. Every user's
	// selection stream is derived from Seed and the user's identity, never
	// from execution order, so the collected samples are byte-identical for
	// any value. The audience source must be safe for concurrent queries
	// when Parallelism != 1 (ModelSource is: model queries are read-only).
	Parallelism int
}

// Collect runs the §4.1 data collection: for every panel user, select up to
// MaxN interests with sel and query the audience size of every prefix.
func Collect(users []*population.User, sel Selector, src AudienceSource, cfg CollectConfig) (*Samples, error) {
	if len(users) == 0 {
		return nil, errors.New("core: no panel users")
	}
	if sel == nil || src == nil {
		return nil, errors.New("core: selector and source are required")
	}
	maxN := cfg.MaxN
	if maxN <= 0 || maxN > MaxCombinationInterests {
		maxN = MaxCombinationInterests
	}
	seed := cfg.Seed
	if seed == nil {
		seed = rng.New(0)
	}
	cat := catalogOf(src)
	s := &Samples{
		AS:         make([][]float64, len(users)),
		MaxN:       maxN,
		FloorValue: float64(src.Floor()),
		Strategy:   sel.Name(),
	}
	prefix, hasPrefix := src.(PrefixSource)
	err := parallel.ForEach(context.Background(), len(users), cfg.Parallelism, func(ui int) error {
		u := users[ui]
		ids := sel.Select(u, cat, maxN, selectorRand(seed, sel, u))
		row := make([]float64, maxN)
		for i := range row {
			row[i] = math.NaN()
		}
		if len(ids) > 0 {
			if hasPrefix {
				reaches, err := prefix.PrefixReach(ids)
				if err != nil {
					return fmt.Errorf("core: prefix reach for user %d: %w", u.ID, err)
				}
				for i, v := range reaches {
					row[i] = float64(v)
				}
			} else {
				for i := 1; i <= len(ids); i++ {
					v, err := src.PotentialReach(ids[:i])
					if err != nil {
						return fmt.Errorf("core: reach for user %d, n=%d: %w", u.ID, i, err)
					}
					row[i-1] = float64(v)
				}
			}
		}
		s.AS[ui] = row
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// catalogOf extracts the catalog when the source is model-backed; selectors
// that need shares (LP) require it.
func catalogOf(src AudienceSource) *interest.Catalog {
	type cataloged interface{ Catalog() *interest.Catalog }
	if ms, ok := src.(*ModelSource); ok && ms.Model != nil {
		return ms.Model.Catalog()
	}
	if c, ok := src.(cataloged); ok {
		return c.Catalog()
	}
	return nil
}

// NumUsers returns the number of panel rows.
func (s *Samples) NumUsers() int { return len(s.AS) }

// SampleCountAt returns how many users contribute a sample at combination
// size n (1-based), and 0 for n outside [1, MaxN]. The count is read off the
// column kernel's presorted index (one slice length) instead of rescanning
// every row; TestSampleCountAtMatchesScan checks it against that scan.
func (s *Samples) SampleCountAt(n int) int {
	if n < 1 || n > s.MaxN {
		return 0
	}
	return len(s.columns().vals[n-1])
}

// VAS computes the vector VAS(Q) = [AS(Q,1), ..., AS(Q,MaxN)] for quantile
// q in (0,1): the per-N q-quantile of audience size across users (§4.1).
// Index i holds AS(Q, i+1). Entries with no samples are NaN. Each entry is
// QuantileSorted over the column kernel's presorted column (columns.go):
// O(MaxN) after the one-time index build.
func (s *Samples) VAS(q float64) []float64 {
	cols := s.columns()
	out := make([]float64, s.MaxN)
	for n := range out {
		if len(cols.vals[n]) == 0 {
			out[n] = math.NaN()
			continue
		}
		out[n] = stats.QuantileSorted(cols.vals[n], q)
	}
	return out
}

// FitResult is the outcome of the log–log fit of one VAS vector.
type FitResult struct {
	// A and B parametrize log10(VAS) = −A·log10(N+1) + B.
	A, B float64
	// R2 is the coefficient of determination of the fit.
	R2 float64
	// NP is the cutpoint 10^(B/A) − 1 where the fit crosses audience size 1.
	NP float64
	// PointsUsed is how many (N, VAS) points entered the fit after the
	// floor-censoring rule.
	PointsUsed int
}

// FitVAS applies the paper's censoring rule — keep points down to and
// including the FIRST floored value, drop the rest — then fits
// log10(VAS) ~ −A·log10(N+1) + B and derives N_P.
func FitVAS(vas []float64, floor float64) (FitResult, error) {
	return fitVASInto(make([]float64, 0, len(vas)), make([]float64, 0, len(vas)), vas, floor)
}

// fitVASInto is FitVAS appending the censored fit points into caller-owned
// scratch (the bootstrap loop passes pooled buffers so a warm resample
// iteration allocates nothing; contents are overwritten, capacity reused).
func fitVASInto(xs, ys []float64, vas []float64, floor float64) (FitResult, error) {
	xs, ys = xs[:0], ys[:0]
	for i, v := range vas {
		if math.IsNaN(v) {
			break
		}
		if v <= 0 {
			return FitResult{}, fmt.Errorf("core: non-positive audience size %v at N=%d", v, i+1)
		}
		xs = append(xs, math.Log10(float64(i+2))) // log10(N+1), N = i+1
		ys = append(ys, math.Log10(v))
		if v <= floor {
			break // include the first floored point, discard the tail
		}
	}
	if len(xs) < 2 {
		return FitResult{}, errors.New("core: not enough uncensored points to fit")
	}
	fit, err := stats.FitLine(xs, ys)
	if err != nil {
		return FitResult{}, err
	}
	a := -fit.Slope
	b := fit.Intercept
	if a <= 0 {
		return FitResult{}, errors.New("core: fit slope is non-negative; VAS does not decay")
	}
	return FitResult{
		A:          a,
		B:          b,
		R2:         fit.R2,
		NP:         math.Pow(10, b/a) - 1,
		PointsUsed: len(xs),
	}, nil
}

// Estimate is a full N_P estimate with bootstrap uncertainty.
type Estimate struct {
	// P is the uniqueness probability (the quantile of the VAS vector).
	P float64
	// NP is the point estimate from the full panel.
	NP float64
	// CI is the bootstrap percentile confidence interval.
	CI stats.CI
	// R2 of the point-estimate fit.
	R2 float64
	// Fit carries the full point-estimate fit.
	Fit FitResult
	// Strategy is the selector that produced the samples.
	Strategy string
	// BootstrapIters is the number of resamples used.
	BootstrapIters int
}

// EstimateConfig controls EstimateNP.
type EstimateConfig struct {
	// BootstrapIters is the number of panel resamples (paper: 10,000).
	BootstrapIters int
	// CILevel is the confidence level (paper: 0.95).
	CILevel float64
	// Rand drives resampling. Required when BootstrapIters > 0.
	Rand *rng.Rand
	// Parallelism spreads bootstrap iterations over this many workers
	// (0 = one per core, 1 = sequential). Each iteration resamples from its
	// own index-derived stream, so estimates are byte-identical for any
	// value.
	Parallelism int
}

// DefaultEstimateConfig mirrors the paper: 10,000 resamples, 95% CIs.
func DefaultEstimateConfig(r *rng.Rand) EstimateConfig {
	return EstimateConfig{BootstrapIters: 10_000, CILevel: 0.95, Rand: r}
}

// EstimateNP computes N_P for uniqueness probability p from collected
// samples, with a bootstrap CI over panel resamples.
func EstimateNP(s *Samples, p float64, cfg EstimateConfig) (Estimate, error) {
	if p <= 0 || p >= 1 {
		return Estimate{}, errors.New("core: P must be in (0,1)")
	}
	point, err := FitVAS(s.VAS(p), s.FloorValue)
	if err != nil {
		return Estimate{}, err
	}
	est := Estimate{
		P:        p,
		NP:       point.NP,
		R2:       point.R2,
		Fit:      point,
		Strategy: s.Strategy,
	}
	if cfg.BootstrapIters > 0 {
		if cfg.Rand == nil {
			return Estimate{}, errors.New("core: EstimateConfig.Rand required for bootstrap")
		}
		level := cfg.CILevel
		if level <= 0 || level >= 1 {
			level = 0.95
		}
		ci, _, err := stats.BootstrapCIParallel(s.NumUsers(), cfg.BootstrapIters, cfg.Parallelism, level, cfg.Rand,
			func(idx []int) (float64, error) {
				// The columnar kernel: pooled counting scratch, the
				// presorted index, pooled fit buffers — zero allocations
				// per warm iteration (TestWarmResampleZeroAllocs).
				sc := s.borrowResample()
				fit, err := fitVASInto(sc.xs, sc.ys, s.vasResample(p, idx, sc), s.FloorValue)
				s.releaseResample(sc)
				if err != nil {
					return 0, err
				}
				return fit.NP, nil
			})
		if err != nil {
			return Estimate{}, fmt.Errorf("core: bootstrap: %w", err)
		}
		est.CI = ci
		est.BootstrapIters = cfg.BootstrapIters
	}
	return est, nil
}
