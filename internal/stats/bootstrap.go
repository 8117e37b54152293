package stats

import (
	"context"
	"errors"
	"sort"

	"nanotarget/internal/parallel"
	"nanotarget/internal/rng"
)

// CI is a two-sided confidence interval.
type CI struct {
	Lo, Hi float64
	Level  float64 // e.g. 0.95
}

// BootstrapParallel draws iters resamples (with replacement) of indices
// [0, n) and applies stat to each resample's index set, returning the
// statistic values. The statistic receives a reusable index slice; it must
// not retain it.
//
// This mirrors the paper's procedure: "we repeat the data aggregation and
// model fit in 10,000 bootstrap samples" over the 2,390 panel users.
// Resamples on which stat reports an error are skipped (rare degenerate
// resamples, e.g. a constant-x fit); at least one success is required.
//
// Iterations run across `workers` goroutines (0 = one per core, 1 = the
// sequential path). Every iteration resamples from its own stream, derived
// from r and the iteration index — never from a shared sequential stream —
// so the output is byte-identical for every worker count under a fixed r.
// When workers != 1 the statistic must be safe for concurrent calls (pure
// functions of the index set are; the repository's fit statistics only
// read the collected samples).
func BootstrapParallel(n, iters, workers int, r *rng.Rand, stat func(idx []int) (float64, error)) ([]float64, error) {
	if n <= 0 {
		return nil, ErrEmpty
	}
	if iters <= 0 {
		return nil, errors.New("stats: bootstrap needs positive iteration count")
	}
	if r == nil {
		return nil, errors.New("stats: bootstrap needs a random source")
	}
	w := parallel.Workers(workers)
	vals := make([]float64, iters)
	ok := make([]bool, iters)
	scratch := make([][]int, w) // one index buffer per worker, reused across its iterations
	err := parallel.ForEachWorker(context.Background(), iters, w, func(worker, it int) error {
		idx := scratch[worker]
		if idx == nil {
			idx = make([]int, n)
			scratch[worker] = idx
		}
		ri := parallel.SplitAt(r, "bootstrap", it)
		for i := range idx {
			idx[i] = ri.Intn(n)
		}
		v, err := stat(idx)
		if err != nil {
			return nil // degenerate resample: skip, exactly like the sequential path
		}
		vals[it] = v
		ok[it] = true
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]float64, 0, iters)
	for it, keep := range ok {
		if keep {
			out = append(out, vals[it])
		}
	}
	if len(out) == 0 {
		return nil, errors.New("stats: all bootstrap resamples failed")
	}
	return out, nil
}

// PercentileCI returns the percentile bootstrap confidence interval at the
// given level (e.g. 0.95) from a slice of bootstrap statistic values.
func PercentileCI(boot []float64, level float64) (CI, error) {
	if len(boot) == 0 {
		return CI{}, ErrEmpty
	}
	if level <= 0 || level >= 1 {
		return CI{}, errors.New("stats: CI level must be in (0,1)")
	}
	sorted := make([]float64, len(boot))
	copy(sorted, boot)
	sort.Float64s(sorted)
	alpha := (1 - level) / 2
	return CI{
		Lo:    QuantileSorted(sorted, alpha),
		Hi:    QuantileSorted(sorted, 1-alpha),
		Level: level,
	}, nil
}

// BootstrapCIParallel composes BootstrapParallel and PercentileCI and also
// returns the point cloud so callers can inspect the bootstrap
// distribution. Same workers semantics and determinism guarantee as
// BootstrapParallel.
func BootstrapCIParallel(n, iters, workers int, level float64, r *rng.Rand, stat func(idx []int) (float64, error)) (CI, []float64, error) {
	boot, err := BootstrapParallel(n, iters, workers, r, stat)
	if err != nil {
		return CI{}, nil, err
	}
	ci, err := PercentileCI(boot, level)
	if err != nil {
		return CI{}, nil, err
	}
	return ci, boot, nil
}

// Contains reports whether x lies inside the interval (inclusive).
func (c CI) Contains(x float64) bool { return x >= c.Lo && x <= c.Hi }

// Width returns Hi − Lo.
func (c CI) Width() float64 { return c.Hi - c.Lo }
